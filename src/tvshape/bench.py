"""Monte-Carlo experiment harness: SNR sweeps and error tables.

Each experiment cell (signal kind, input SNR, realization) is an isolated
pipeline run with its own derived seed; cells execute sequentially or on
a process pool, and a single collector writes the CSV/JSON outputs, so
results are identical either way.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .generators import SyntheticSpec, generate
from .metrics import add_noise, snr_out
from .pipeline import PipelineConfig, decompose, denoise, segment
from .signals import RealSignal
from .stft import threshold_denoise

DENOISE_KINDS = ("tv_denoise_s1", "tv_denoise_s2", "tv_denoise_s3", "tv_denoise_s4")


@dataclass
class BenchSpec:
    experiment: str                      # denoise kind, "multicomponent", "segmentation"
    snr_levels: list[float] = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0])
    n_realizations: int = 20
    seed: int = 0
    output_dir: str | Path = "bench_out"
    config: PipelineConfig = field(default_factory=PipelineConfig)
    n_jobs: int = 1

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if not self.snr_levels:
            raise ValueError("snr_levels must be non-empty")
        valid = DENOISE_KINDS + ("multicomponent", "segmentation")
        if self.experiment not in valid:
            raise ValueError(f"experiment must be one of {valid}")


def _cell_seed(base: int, level_idx: int, realization: int) -> int:
    return int(np.random.SeedSequence([base, level_idx, realization]).generate_state(1)[0])


def _sweep(spec: BenchSpec, cell_fn, *extra) -> list[tuple[float, list[dict]]]:
    """Run cell_fn on (snr level, derived seed, *extra) for every level and
    realization; returns (level, that level's cell outputs) pairs."""
    cells = [
        (level, _cell_seed(spec.seed, li, k), *extra)
        for li, level in enumerate(spec.snr_levels)
        for k in range(spec.n_realizations)
    ]
    raw = _run_cells(cell_fn, cells, spec.n_jobs)
    n = spec.n_realizations
    return [(level, raw[i * n : (i + 1) * n]) for i, level in enumerate(spec.snr_levels)]


def _summary_rows(groups, keys, stats) -> list[dict]:
    """Per level: failed cells, then each named statistic and the count of
    the finite values of every key."""
    table = []
    for level, cells in groups:
        row = {"snr_in": level, "failures": sum("error" in cell for cell in cells)}
        for m in keys:
            vals = [cell[m] for cell in cells if m in cell and np.isfinite(cell[m])]
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
        res = denoise(noisy, cfg, with_metrics=False)
        out["ours"] = snr_out(x, res.reconstruction)
        out["lr"] = snr_out(x, res.lr_reconstruction)
    except Exception as exc:  # recorded per cell, the sweep continues
        out["error"] = repr(exc)
    try:
        out["stft_hard"] = snr_out(x, threshold_denoise(noisy, cfg.sigma, "hard"))
        out["stft_soft"] = snr_out(x, threshold_denoise(noisy, cfg.sigma, "soft"))
    except Exception as exc:
        out.setdefault("error", repr(exc))
    return out


def run_denoise_bench(spec: BenchSpec) -> dict:
    """SNR_out tables for our method, the fixed-shape baseline, and
    hard/soft STFT thresholding, per input SNR level."""
    groups = _sweep(spec, _denoise_cell, spec.experiment, spec.config)
    methods = ("ours", "lr", "stft_hard", "stft_soft")
    table = _summary_rows(groups, methods, (("mean", np.mean), ("std", np.std)))
    return {"experiment": spec.experiment, "rows": table, "methods": list(methods)}


# -- multicomponent decomposition --------------------------------------------

def _decompose_cell(args):
    snr_db, seed, cfgs = args
    x, gt = generate(SyntheticSpec("multicomponent"))
    noisy = add_noise(x, snr_db, seed)
    out = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parts = decompose(noisy, cfgs, K=len(gt.components))
        fs = x.fs
        for res in parts:
            fm = float(np.mean(res.ridge.freq))
            ifs = [
                (c.phi1[-1] - c.phi1[0]) / (len(c.phi1) - 1) * fs for c in gt.components
            ]
            ci = int(np.argmin([abs(fm - f) for f in ifs]))
            ref = RealSignal(gt.components[ci].clean, fs)
            out[f"comp{ci + 1}_ours"] = snr_out(ref, res.reconstruction)
            out[f"comp{ci + 1}_lr"] = snr_out(ref, res.lr_reconstruction)
        total = parts[0].reconstruction.samples.copy()
        for res in parts[1:]:
            total += res.reconstruction.samples
        out["sum"] = snr_out(x, x.with_samples(total))
    except Exception as exc:
        out["error"] = repr(exc)
    return out


def run_decompose_bench(spec: BenchSpec, cfgs: list[PipelineConfig] | None = None) -> dict:
    cfgs = cfgs or [spec.config]
    groups = _sweep(spec, _decompose_cell, cfgs)
    keys = ("comp1_ours", "comp1_lr", "comp2_ours", "comp2_lr", "sum")
    table = _summary_rows(groups, keys, (("mean", np.mean),))
    return {"experiment": "multicomponent", "rows": table, "methods": list(keys)}


# -- segmentation -------------------------------------------------------------

def _segment_cell(args):
    snr_db, seed, cfg = args
    rng = np.random.default_rng(seed)
    r = int(rng.integers(3, 7))
    spec = SyntheticSpec("sharp_transition", params={"draw": True, "kappa": 50.0, "r": r})
    x, gt = generate(spec, seed=seed)
    noisy = add_noise(x, snr_db, seed + 1)
    out = {"t_true": gt.t_transition}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = segment(noisy, cfg)
        out["t_hat"] = res.t_hat
        out["abs_error"] = None if res.t_hat is None else abs(res.t_hat - gt.t_transition)
    except Exception as exc:
        out["error"] = repr(exc)
    return out


def run_segment_bench(spec: BenchSpec) -> dict:
    table = []
    for level, cells in _sweep(spec, _segment_cell, spec.config):
        errs = [c["abs_error"] for c in cells if "error" not in c and c.get("abs_error") is not None]
        table.append(
            {
                "snr_in": level,
                "failures": len(cells) - len(errs),
                "ae_median_ms": float(np.median(errs) * 1000) if errs else None,
                "ae_q1_ms": float(np.percentile(errs, 25) * 1000) if errs else None,
                "ae_q3_ms": float(np.percentile(errs, 75) * 1000) if errs else None,
                "n": len(errs),
            }
        )
    return {"experiment": "segmentation", "rows": table}


def _run_cells(fn, cells, n_jobs):
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(fn, cells))
    return [fn(c) for c in cells]


def run_bench(spec: BenchSpec) -> dict:
    if spec.experiment in DENOISE_KINDS:
        return run_denoise_bench(spec)
    if spec.experiment == "multicomponent":
        return run_decompose_bench(spec)
    return run_segment_bench(spec)


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
