import faulthandler
import importlib
import json
import os
import pickle

import numpy as np
import pytest

from tvshape import PipelineStageError, RealSignal, preset, stft
from tvshape.bench import (
    BLAS_THREAD_VARS,
    BenchSpec,
    _decompose_cell,
    _denoise_cell,
    _run_cells,
    _segment_cell,
    _summary_rows,
    run_bench,
    write_bench_outputs,
)

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
    # a non-finite level would be written to the JSON summary as NaN or Infinity
    for level in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"SNR level {level} dB"):
            BenchSpec(experiment="tv_denoise_s1", snr_levels=[10.0, float(level)])


def test_process_pool_returns_the_sequential_result(cfg):
    # the pool must hand back, in cell order, what the loop computes
    cells = [(snr, 4 + k, 40 + k, 3 + k, cfg) for snr in (10.0, 20.0) for k in range(2)]
    assert _run_cells(_segment_cell, cells) == [_segment_cell(c) for c in cells]


def _blas_thread_vars(_):
    return [os.environ.get(var) for var in BLAS_THREAD_VARS]


def test_pool_processes_run_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert _run_cells(_blas_thread_vars, range(3)) == [["1", "1", "1"]] * 3
    # the caller's environment is given back, an unset variable unset
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "MKL_NUM_THREADS" not in os.environ


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
            _run_cells(_failing_cell, ["nodes", "fit"])
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert err.value.stage == "nodes" and isinstance(err.value.cause, ValueError)


def test_process_pool_forked_after_a_threaded_stft(cfg, monkeypatch):
    # the pool's processes are spawned, not forked, so they inherit none of
    # the caller's threads; this keeps the case the forked pool needed: a
    # pool opened right after a threaded stft in the caller, whose cells run
    # threaded STFTs of their own
    monkeypatch.setattr(stft_module, "worker_count", lambda n_rows: min(2, n_rows))
    stft(RealSignal(np.random.default_rng(0).standard_normal(2000), 2000.0), cfg.sigma)
    cells = [(10.0, 6 + k, "tv_denoise_s1", cfg) for k in range(2)]
    # a hung cell would block the run forever: end the process instead, with
    # every thread's stack on stderr (visible under -s)
    faulthandler.dump_traceback_later(FORK_TIMEOUT_S, exit=True)
    try:
        assert _run_cells(_denoise_cell, cells) == [_denoise_cell(c) for c in cells]
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_summary_rows_one_failure_rule():
    # a cell failed when it recorded an error or left a value None
    mean = (("mean", np.mean),)
    missed = {"t_true": 0.5, "t_hat": None, "ae": None}
    (row,) = _summary_rows([(0.0, [missed, {"t_true": 0.5, "t_hat": 0.51, "ae": 0.01}])], ("ae",), mean)
    assert row == {"snr_in": 0.0, "failures": 1, "ae_mean": 0.01, "ae_n": 1}
    # a key holds one value or a list of them, one per decomposition stage
    cells = [{"comp1_ours": [1.0, 3.0], "sum": 4.0}, {"comp1_ours": 2.0, "sum": 6.0}]
    (row,) = _summary_rows([(10.0, cells)], ("comp1_ours", "sum"), mean)
    assert (row["comp1_ours_mean"], row["comp1_ours_n"], row["sum_mean"], row["sum_n"]) == (2.0, 3, 5.0, 2)
    assert row["failures"] == 0
    # a denoise cell whose fit failed keeps its baselines' values and fails once
    failed = {"error": "ValueError('x')", "stft_hard": 4.0, "stft_soft": 3.0}
    (row,) = _summary_rows([(5.0, [failed])], ("ours", "stft_hard"), mean)
    assert row == {"snr_in": 5.0, "failures": 1, "ours_mean": None, "ours_n": 0, "stft_hard_mean": 4.0, "stft_hard_n": 1}


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
    # the _n columns count stages, two per cell that ran
    assert row["comp1_ours_n"] + row["comp2_ours_n"] == 2 * (2 - row["failures"])


def test_decompose_cell_counts_every_stage(cfg):
    # on this noise draw both stages land on component 2: the first at
    # 3.50 dB, the second at 1.18 dB
    out = _decompose_cell((10.0, 5002, cfg))
    assert "error" not in out and "comp1_ours" not in out and "comp1_lr" not in out
    assert len(out["comp2_ours"]) == len(out["comp2_lr"]) == 2


def test_segment_bench_schema(cfg):
    spec = BenchSpec(
        experiment="segmentation", snr_levels=[15.0], n_realizations=2, seed=7, config=cfg
    )
    result = run_bench(spec)
    row = result["rows"][0]
    assert row["ae_n"] + row["failures"] == 2
    if row["ae_n"]:
        assert row["ae_median_ms"] >= 0.0
        assert row["ae_q1_ms"] <= row["ae_median_ms"] <= row["ae_q3_ms"]
