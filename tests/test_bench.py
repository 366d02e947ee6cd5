import faulthandler
import importlib
import json
import pickle

import numpy as np
import pytest

from tvshape import PipelineStageError, RealSignal, preset, stft
from tvshape.bench import BenchSpec, _run_cells, run_bench, write_bench_outputs

stft_module = importlib.import_module("tvshape.stft")   # the package exports a function `stft`

FORK_TIMEOUT_S = 120


@pytest.fixture(scope="module")
def cfg():
    return preset("synthetic")


def test_bench_spec_validation(cfg):
    with pytest.raises(ValueError):
        BenchSpec(experiment="nope")
    with pytest.raises(ValueError):
        BenchSpec(experiment="tv_denoise_s1", n_realizations=0)
    with pytest.raises(ValueError):
        BenchSpec(experiment="tv_denoise_s1", snr_levels=[])


def test_bench_spec_rejects_fewer_than_one_job():
    for n_jobs in (0, -3):
        with pytest.raises(ValueError, match="n_jobs"):
            BenchSpec(experiment="tv_denoise_s1", n_jobs=n_jobs)


def test_process_pool_returns_the_sequential_result(cfg):
    # two cells per process; the pool must hand back what the loop computes
    kw = dict(experiment="segmentation", snr_levels=[10.0, 20.0], n_realizations=2, seed=4, config=cfg)
    assert run_bench(BenchSpec(n_jobs=2, **kw)) == run_bench(BenchSpec(n_jobs=1, **kw))


def _failing_cell(stage):
    raise PipelineStageError(stage, ValueError("x"))


def test_stage_error_survives_a_process_pool():
    back = pickle.loads(pickle.dumps(PipelineStageError("fit", ValueError("x"))))
    assert back.stage == "fit" and repr(back.cause) == "ValueError('x')"
    assert str(back) == "stage 'fit' failed: x"
    # a cell's error comes back from its worker process with its stage
    faulthandler.dump_traceback_later(FORK_TIMEOUT_S, exit=True)
    try:
        with pytest.raises(PipelineStageError) as err:
            _run_cells(_failing_cell, ["nodes", "fit"], n_jobs=2)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert err.value.stage == "nodes" and isinstance(err.value.cause, ValueError)


def test_process_pool_forked_after_a_threaded_stft(cfg, monkeypatch):
    # every stft call joins its own thread pool before it returns, so a cell
    # process forked afterwards inherits no pool whose threads are gone; the
    # forked cells run threaded STFTs too
    monkeypatch.setattr(stft_module, "worker_count", lambda n_rows: min(2, n_rows))
    stft(RealSignal(np.random.default_rng(0).standard_normal(2000), 2000.0), cfg.sigma)
    kw = dict(experiment="tv_denoise_s1", snr_levels=[10.0], n_realizations=2, seed=6, config=cfg)
    # a hung cell would block the run forever: end the process instead, with
    # every thread's stack on stderr (visible under -s)
    faulthandler.dump_traceback_later(FORK_TIMEOUT_S, exit=True)
    try:
        assert run_bench(BenchSpec(n_jobs=2, **kw)) == run_bench(BenchSpec(n_jobs=1, **kw))
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_denoise_bench_deterministic(cfg, tmp_path):
    spec = BenchSpec(
        experiment="tv_denoise_s1", snr_levels=[10.0], n_realizations=2, seed=3, config=cfg
    )
    r1 = run_bench(spec)
    r2 = run_bench(spec)
    assert r1 == r2
    row = r1["rows"][0]
    assert row["ours_n"] == 2
    assert row["ours_mean"] > row["lr_mean"]
    csv_path, json_path = write_bench_outputs(r1, tmp_path)
    assert csv_path.exists()
    assert json.loads(json_path.read_text())["rows"][0]["snr_in"] == 10.0


def test_decompose_bench_schema(cfg):
    spec = BenchSpec(
        experiment="multicomponent", snr_levels=[10.0], n_realizations=2, seed=5, config=cfg
    )
    result = run_bench(spec)
    row = result["rows"][0]
    for key in ("comp1_ours_mean", "comp2_ours_mean", "comp1_lr_mean", "sum_mean"):
        assert row[key] is not None and np.isfinite(row[key])


def test_segment_bench_schema(cfg):
    spec = BenchSpec(
        experiment="segmentation", snr_levels=[15.0], n_realizations=2, seed=7, config=cfg
    )
    result = run_bench(spec)
    row = result["rows"][0]
    assert row["n"] + row["failures"] == 2
    if row["n"]:
        assert row["ae_median_ms"] >= 0.0
        assert row["ae_q1_ms"] <= row["ae_median_ms"] <= row["ae_q3_ms"]
