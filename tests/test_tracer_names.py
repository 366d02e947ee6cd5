"""The benchmark reads package names and builds its record sets from the public API.

perfbench/tracer.py looks each wrapped name up at run time, and
perfbench/workloads.py builds every record with `preset(...)` overrides, so
a refactor that moves or renames one of them, or removes a config field a
record sets, breaks `perfbench/run.py`; these tests fail first.
"""

import importlib.util
import sys
from pathlib import Path

from tvshape import FitOptions, PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = _load("tracer")
    missing = [
        f"{path}.{attr}" for path, attr, _, _ in tracer.WRAPS if not hasattr(tracer._resolve(path), attr)
    ]
    assert missing == []


def test_fit_options_keep_the_field_the_tracer_reads():
    # the fit span's collector counts free parameters from opts.freeze_nodes
    assert hasattr(FitOptions(), "freeze_nodes")


def test_every_workload_record_builds():
    workloads = _load("workloads")
    records = [rec for build in workloads.WORKLOADS.values() for rec in build()]
    records.append(workloads.warmup_record())
    for rec in records:
        assert PipelineConfig.from_dict(rec.cfg.to_dict()) == rec.cfg
