"""The benchmark's per-layer tracer wraps package attributes by name.

perfbench/tracer.py looks each name up at run time, so a refactor that
moves or renames one of them breaks `perfbench/run.py --trace 1`; this
test fails first.
"""

import importlib.util
from pathlib import Path

from tvshape import FitOptions

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = _tracer()
    missing = [
        f"{path}.{attr}" for path, attr, _, _ in tracer.WRAPS if not hasattr(tracer._resolve(path), attr)
    ]
    assert missing == []


def test_fit_options_keep_the_field_the_tracer_reads():
    # the fit span's collector counts free parameters from opts.freeze_nodes
    assert hasattr(FitOptions(), "freeze_nodes")
