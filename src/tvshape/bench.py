"""Monte-Carlo experiment harness: SNR sweeps and error tables.

Each paper experiment is written here once, as a cell: one isolated
pipeline run on one noise draw, with the seeds it is given. `tvshape bench`
derives those seeds from its own seed; the acceptance suite runs the same
cells with seeds of its own. `EXPERIMENT_TABLE` names each experiment's
cell, the cell's argument, the values it tables and their statistics;
`run_bench` runs any of them and `_summary_rows` builds every table.

`_run_cells` runs the cells on one process per usable CPU. The processes
are spawned with one BLAS thread each, so N processes do not oversubscribe
N CPUs, and a fit's last bits, which follow the BLAS thread count, do not
depend on the CPU count. The outputs come back in cell order, so every
table is what a one-cell-at-a-time run at one BLAS thread computes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .generators import SyntheticSpec, generate
from .metrics import add_noise, snr_out
from .pipeline import PipelineConfig, decompose, denoise, segment
from .signals import RealSignal
from .stft import mean_frequency, threshold_denoise, worker_count

DENOISE_KINDS = ("tv_denoise_s1", "tv_denoise_s2", "tv_denoise_s3", "tv_denoise_s4")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class BenchSpec:
    experiment: str                      # denoise kind, "multicomponent", "segmentation"
    snr_levels: list[float] = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0])
    n_realizations: int = 20
    seed: int = 0
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if not self.snr_levels:
            raise ValueError("snr_levels must be non-empty")
        for level in self.snr_levels:
            if not np.isfinite(level):
                raise ValueError(f"SNR level {level} dB is not finite")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")


def _cell_seed(base: int, level_idx: int, realization: int) -> int:
    return int(np.random.SeedSequence([base, level_idx, realization]).generate_state(1)[0])


def _summary_rows(groups, keys, stats) -> list[dict]:
    """Per level: failed cells, then each named statistic and the count of
    the finite values of every key. A cell holds one value or a list of
    values per key; it failed when it recorded an error or left a value
    None, and a None stays out of the statistics."""
    table = []
    for level, cells in groups:
        failed = ["error" in cell or any(v is None for v in cell.values()) for cell in cells]
        row = {"snr_in": level, "failures": sum(failed)}
        for m in keys:
            vals = [v for cell in cells if cell.get(m) is not None for v in np.atleast_1d(cell[m]) if np.isfinite(v)]
            for name, fn in stats:
                row[f"{m}_{name}"] = float(fn(vals)) if vals else None
            row[f"{m}_n"] = len(vals)
        table.append(row)
    return table


# -- denoising ---------------------------------------------------------------

def _denoise_cell(args):
    snr_db, seed, kind, cfg = args
    x, _ = generate(SyntheticSpec(kind))
    noisy = add_noise(x, snr_db, seed)
    out = {}
    try:
        res = denoise(noisy, cfg)
        out["ours"] = snr_out(x, res.reconstruction)
        out["lr"] = snr_out(x, res.lr_reconstruction)
    except Exception as exc:  # recorded per cell, the sweep continues
        out["error"] = repr(exc)
    try:
        hard, soft = threshold_denoise(noisy, cfg.sigma)
        out["stft_hard"] = snr_out(x, hard)
        out["stft_soft"] = snr_out(x, soft)
    except Exception as exc:
        out.setdefault("error", repr(exc))
    return out


# -- multicomponent decomposition --------------------------------------------

def _decompose_cell(args):
    """Deflate the multicomponent record at snr_db (noise seed `seed`) into
    two stages. Each stage is matched to the component whose mean
    frequency is nearest its ridge's, and its SNR_out is appended to that
    component's `comp<k>_ours` and `comp<k>_lr` lists; so two stages on one
    component give that component two values and the other none."""
    snr_db, seed, cfg = args
    x, gt = generate(SyntheticSpec("multicomponent"))
    noisy = add_noise(x, snr_db, seed)
    out = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parts = decompose(noisy, [cfg], K=len(gt.components))
        ifs = [mean_frequency(c.phi1, x.fs) for c in gt.components]
        for res in parts:
            fm = float(np.mean(res.ridge.freq))
            ci = int(np.argmin([abs(fm - f) for f in ifs]))
            ref = RealSignal(gt.components[ci].clean, x.fs)
            out.setdefault(f"comp{ci + 1}_ours", []).append(snr_out(ref, res.reconstruction))
            out.setdefault(f"comp{ci + 1}_lr", []).append(snr_out(ref, res.lr_reconstruction))
        out["sum"] = snr_out(x, x.with_samples(sum(res.reconstruction.samples for res in parts)))
    except Exception as exc:
        out["error"] = repr(exc)
    return out


# -- segmentation -------------------------------------------------------------

def _segment_cell(args):
    """Segment a sharp-transition record with r harmonics, drawn with
    gen_seed and noised at snr_db with noise_seed."""
    snr_db, gen_seed, noise_seed, r, cfg = args
    spec = SyntheticSpec("sharp_transition", params={"draw": True, "kappa": 50.0, "r": r})
    x, gt = generate(spec, seed=gen_seed)
    noisy = add_noise(x, snr_db, noise_seed)
    out = {"t_true": gt.t_transition}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = segment(noisy, cfg)
        out["t_hat"] = res.t_hat
        out["ae"] = None if res.t_hat is None else abs(res.t_hat - gt.t_transition)
    except Exception as exc:
        out["error"] = repr(exc)
    return out


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread-count variables to 1 for the processes spawned
    inside the block, and give the caller's values back afterwards."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _run_cells(fn, cells):
    """[fn(c) for c in cells], computed on one spawned process per usable
    CPU (`stft.worker_count`), each at one BLAS thread. A spawned process
    reads the variables when its numpy loads; a forked one would inherit
    the caller's loaded BLAS and its thread count. fn must be importable
    by name, and an exception a cell raises is raised here."""
    with _one_blas_thread(), ProcessPoolExecutor(
        max_workers=worker_count(len(cells)), mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return list(pool.map(fn, cells))


def _segment_args(spec: BenchSpec, level: float, seed: int) -> tuple:
    # r is drawn from the cell seed, the record with it, the noise with seed + 1
    return level, seed, seed + 1, int(np.random.default_rng(seed).integers(3, 7)), spec.config


# The experiment table. Per experiment: its cell; the cell's argument at an
# SNR level and a derived seed; the cell values it tables; and the
# (column suffix, statistic) pairs tabled per value.
EXPERIMENT_TABLE = {
    **dict.fromkeys(DENOISE_KINDS, (
        _denoise_cell,
        lambda spec, level, seed: (level, seed, spec.experiment, spec.config),
        ("ours", "lr", "stft_hard", "stft_soft"),
        (("mean", np.mean), ("std", np.std)),
    )),
    "multicomponent": (
        _decompose_cell,
        lambda spec, level, seed: (level, seed, spec.config),
        ("comp1_ours", "comp1_lr", "comp2_ours", "comp2_lr", "sum"),
        (("mean", np.mean),),
    ),
    "segmentation": (  # the absolute error, stored in s, is tabled in ms
        _segment_cell,
        _segment_args,
        ("ae",),
        (
            ("median_ms", lambda v: np.median(v) * 1000),
            ("q1_ms", lambda v: np.percentile(v, 25) * 1000),
            ("q3_ms", lambda v: np.percentile(v, 75) * 1000),
        ),
    ),
}
EXPERIMENTS = tuple(EXPERIMENT_TABLE)


def run_bench(spec: BenchSpec) -> dict:
    """Run the experiment's cell on every SNR level and realization, each
    with its derived seed, and summarize each level's cells in one row."""
    cell, make_args, keys, stats = EXPERIMENT_TABLE[spec.experiment]
    n = spec.n_realizations
    levels = list(enumerate(spec.snr_levels))
    args = [make_args(spec, level, _cell_seed(spec.seed, li, k)) for li, level in levels for k in range(n)]
    raw = _run_cells(cell, args)
    groups = [(level, raw[li * n : (li + 1) * n]) for li, level in levels]
    return {"experiment": spec.experiment, "rows": _summary_rows(groups, keys, stats), "methods": list(keys)}


def write_bench_outputs(result: dict, out_dir: str | Path) -> tuple[Path, Path]:
    """Write the per-cell table as CSV and a summary JSON; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = result["experiment"]
    csv_path = out_dir / f"{name}_table.csv"
    rows = result["rows"]
    cols = list(rows[0].keys())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join("" if row[c] is None else f"{row[c]}" for c in cols) + "\n")
    json_path = out_dir / f"{name}_summary.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return csv_path, json_path
