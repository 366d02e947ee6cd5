import functools
import importlib.util
import os
import sys
from pathlib import Path

# One BLAS thread, as perfbench/run.py and the bench's process pool pin it.
# A fit's last bits depend on the BLAS thread count, so every figure the
# suite computes in its own process is then the same on any machine, and
# equals what a bench cell computes in a pool process, which the bench
# tests compare. Read when numpy loads its BLAS, so it must come before the
# first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from tvshape import SyntheticSpec, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def _perfbench_module(name):
    """perfbench/<name>.py, loaded once per session as module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@functools.cache
def _workload_records():
    """The benchmark's workload records, as perfbench/workloads.py builds them, once per session."""
    return [rec for build in _perfbench_module("workloads").WORKLOADS.values() for rec in build()]


def pytest_generate_tests(metafunc):
    # a test that takes `workload_record` runs once per record, named by it
    if "workload_record" in metafunc.fixturenames:
        records = _workload_records()
        metafunc.parametrize("workload_record", records, ids=[rec.name for rec in records])


@pytest.fixture(scope="session")
def perfbench():
    """The benchmark's modules by name: perfbench("workloads"), perfbench("tracer")."""
    return _perfbench_module


@pytest.fixture(scope="session")
def recon_signal():
    """The 3-harmonic reconstruction test signal with its ground truth."""
    return generate(SyntheticSpec("tv_reconstruction"))


@pytest.fixture()
def rng():
    # function-scoped: every test draws the same stream regardless of order
    return np.random.default_rng(20240811)
