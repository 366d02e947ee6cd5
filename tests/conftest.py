import functools
import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace

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


@pytest.fixture()
def band_log(monkeypatch):
    """What the pipeline's spectrograms store and read, recorded while the test runs:
    - made: (spectrogram, first bin, stored bins) of each as `stft` returned it;
    - coarse: each coarse ridge, Hz per coarse frame;
    - cycles: each edge cycle length, two per stage;
    - hops: the hop of each FFT pass, one per coarse pass and one per pass
      over every frame (`stft`'s, and each band a read regrows);
    - reads: (spectrogram id, start, stop, first, end) of each `Spectrogram.bins`
      read, with the band stored when it was asked for."""
    pipeline = importlib.import_module("tvshape.pipeline")
    stft_module = importlib.import_module("tvshape.stft")   # the package exports a function `stft`
    log = SimpleNamespace(made=[], coarse=[], cycles=[], hops=[], reads=[])
    real_stft, real_coarse = pipeline.stft, pipeline._coarse_ridge
    real_cycle, real_transform, real_bins = pipeline.fractional_cycle_len, stft_module._transform, stft_module.Spectrogram.bins

    def stft(*args, **kwargs):
        spec = real_stft(*args, **kwargs)
        log.made.append((spec, spec.first, spec.values.shape[1]))
        return spec

    def coarse_ridge(*args):
        log.coarse.append(real_coarse(*args))
        return log.coarse[-1]

    def cycle(*args):
        log.cycles.append(real_cycle(*args))
        return log.cycles[-1]

    def transform(*args, hop=1, **kwargs):
        log.hops.append(hop)
        return real_transform(*args, hop=hop, **kwargs)

    def bins(self, start, stop):
        log.reads.append((id(self), start, stop, self.first, self.first + self.values.shape[1]))
        return real_bins(self, start, stop)

    monkeypatch.setattr(pipeline, "stft", stft)
    monkeypatch.setattr(pipeline, "_coarse_ridge", coarse_ridge)
    monkeypatch.setattr(pipeline, "fractional_cycle_len", cycle)
    monkeypatch.setattr(stft_module, "_transform", transform)
    monkeypatch.setattr(stft_module.Spectrogram, "bins", bins)
    return log


@pytest.fixture(scope="session")
def recon_signal():
    """The 3-harmonic reconstruction test signal with its ground truth."""
    return generate(SyntheticSpec("tv_reconstruction"))


@pytest.fixture()
def rng():
    # function-scoped: every test draws the same stream regardless of order
    return np.random.default_rng(20240811)
