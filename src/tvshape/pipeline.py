"""End-to-end drivers: denoising, deflationary decomposition, segmentation.

Every driver runs the same estimation chain: extend the record past its
boundaries, take a Gaussian-window spectrogram, ride the dominant ridge
for the fundamental amplitude/phase, demodulate, pick the harmonic count
and per-harmonic node budgets, warm-start from the fixed-shape linear
fit, refine with the constrained nonlinear solver, resynthesize, and trim
back to the original support.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .changepoint import check_penalty, pelt_mean_changes
from .estimate import ENERGY_FRACTION, estimate_node_count, estimate_order, warm_start
from .extend import (
    EXTENSION_FACTOR,
    ExtensionResult,
    estimate_cycle_len,
    extend_boundaries,
    fractional_cycle_len,
    trim,
)
from .metrics import MetricsReport, residual_metrics
from .model import WaveShapeModel, demodulate, evaluate_model, remodulate
from .pchip import pchip_eval
from .signals import RealSignal
from .solver import (
    E_BOUND,
    LAMBDA0,
    MAX_ITERS,
    STEP_TOL,
    FitDiagnostics,
    FitOptions,
    check_field_types,
    fit,
)
from .stft import (
    Ridge,
    default_band_halfwidth,
    estimate_fundamental,
    mean_frequency,
    stft,
    vertical_reconstruct,
)

MIN_NODES = 5            # node-budget floor per harmonic
RIDGE_HEADROOM = 1.25    # stored band's edges over and under the edges' cycle rates; workload ridges run at 0.78-1.07 of them

# Config keys of fields that held one value for every caller and are now
# constants. Configs written before still carry them, so a key is read
# only at that value; any other value would ask for behaviour that no
# longer exists.
RETIRED_KEYS = {
    "extension_factor": EXTENSION_FACTOR,
    "energy_fraction": ENERGY_FRACTION,
    "ridge_band": None,
    "min_nodes": MIN_NODES,
    "r_override": None,
    "fit.jacobian": "analytic_mixed",
    "fit.lambda0": LAMBDA0,
    "fit.grad_tol": 1e-8,
    "fit.step_tol": STEP_TOL,
    "fit.max_iters": MAX_ITERS,
    "fit.e_bound": E_BOUND,
    "fit.min_node_gap": None,       # the two-sample gap, solver.MIN_NODE_GAP_SAMPLES
    "fit.freeze_nodes": False,
}

# The config key of each PipelineConfig field whose key is not its name.
CONFIG_KEYS = {"max_jump_hz": "I_f"}


@dataclass
class PipelineConfig:
    """Stage parameters for one signal class."""

    sigma: float = 1e-4             # STFT window decay, per squared sample
    max_jump_hz: float = 2.0        # ridge continuity bound (I_f)
    delta: float | None = None      # fundamental band half-width; None = window rule
    r_max: int = 8

    def __post_init__(self):
        check_field_types(self)
        if min(self.sigma, self.max_jump_hz) <= 0 or self.r_max < 1:
            raise ValueError("config values must be positive")
        if self.delta is not None and self.delta <= 0:
            raise ValueError("delta must be positive")

    def resolved_delta(self, fs: float) -> float:
        return self.delta if self.delta is not None else default_band_halfwidth(self.sigma, fs)

    def to_dict(self) -> dict:
        return {CONFIG_KEYS.get(k, k): v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Read the `to_dict` layout. An unknown key, or a retired key at
        another value than the one it always had, raises ValueError naming it."""
        keys = _dotted(d)
        for key in sorted(keys.keys() & RETIRED_KEYS.keys()):
            value, kept = keys[key], RETIRED_KEYS[key]
            # 0 == False: a bool is read only as a bool, and a number only as a number
            if value != kept or isinstance(value, (bool, np.bool_)) != isinstance(kept, bool):
                raise ValueError(f"config key {key!r} is retired; only {kept!r} is accepted, got {value!r}")
        unknown = sorted(keys.keys() - RETIRED_KEYS.keys() - cls().to_dict().keys())
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        field_names = {key: name for name, key in CONFIG_KEYS.items()}
        return cls(**{field_names.get(k, k): v for k, v in keys.items() if k not in RETIRED_KEYS})


def _dotted(d: dict) -> dict:
    """A config dict with the keys of its fit section, all retired, written 'fit.<key>'."""
    if not isinstance(d, dict) or not isinstance(d.get("fit", {}), dict):
        raise ValueError("a config is an object whose 'fit' entry, if any, is an object")
    out = {k: v for k, v in d.items() if k != "fit"}
    out.update({f"fit.{k}": v for k, v in d.get("fit", {}).items()})
    return out


# Per-signal-class presets: (sigma, I_f, delta).
PRESETS: dict[str, PipelineConfig] = {
    "synthetic": PipelineConfig(sigma=1e-4, max_jump_hz=2.0, delta=None),
    "eeg": PipelineConfig(sigma=2e-6, max_jump_hz=0.04, delta=0.4),
    "ip": PipelineConfig(sigma=1e-6, max_jump_hz=0.3, delta=0.008),
    "ecg": PipelineConfig(sigma=5e-5, max_jump_hz=0.4, delta=1.2),
}


def preset(name: str, **overrides) -> PipelineConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides)


class PipelineStageError(RuntimeError):
    """Failure wrapped with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # the default rebuilds from self.args, the message alone; a process
        # pool sends a worker's exception back pickled
        return type(self), (self.stage, self.cause)


@dataclass
class DenoiseResult:
    reconstruction: RealSignal
    model: WaveShapeModel
    lr_reconstruction: RealSignal       # warm-start (fixed-shape) baseline
    fit_diagnostics: FitDiagnostics
    extension: ExtensionResult
    ridge: Ridge
    timings: dict[str, float]

    @functools.cached_property
    def metrics(self) -> MetricsReport:
        """Residual diagnostics of input − reconstruction, computed on first read."""
        x = trim(self.extension.extended, self.extension)    # the extension's core is the input bit for bit
        return residual_metrics(x.with_samples(x.samples - self.reconstruction.samples), self.reconstruction)

    def report_json(self, cfg: PipelineConfig) -> str:
        x = trim(self.extension.extended, self.extension)
        digest = hashlib.sha256(x.samples.tobytes()).hexdigest()[:16]
        return json.dumps(
            {
                "input": {"sha256_16": digest, "n": len(x), "fs": x.fs},
                "config": cfg.to_dict(),
                "model": self.model.to_dict(),
                "metrics": asdict(self.metrics),
                "fit": asdict(self.fit_diagnostics),
                "timings": self.timings,
            },
            default=np.ndarray.tolist,
        )


def _staged(timings, stage, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0
    return out


def denoise(x: RealSignal, cfg: PipelineConfig) -> DenoiseResult:
    """Fit the time-varying wave-shape model and resynthesize the record.

    The chain runs on the record started at t0 = 0, so the fit does not
    depend on where the record sits in time (an epoch-stamped t0 would
    swamp the node times' step tolerance and knot differences); every time
    in the result is then moved to the record's own axis.
    """
    return _moved(_denoise(RealSignal(x.samples, x.fs), cfg), x.t0)


def _moved(res: DenoiseResult, t0: float) -> DenoiseResult:
    """res with every time it holds shifted by t0 seconds."""
    def move(y: RealSignal) -> RealSignal:
        return RealSignal(y.samples, y.fs, y.t0 + t0)

    return replace(
        res,
        reconstruction=move(res.reconstruction),
        model=_moved_model(res.model, t0),
        lr_reconstruction=move(res.lr_reconstruction),
        extension=replace(res.extension, extended=move(res.extension.extended)),
    )


def _moved_model(model: WaveShapeModel, t0: float) -> WaveShapeModel:
    model = model.copy()
    for h in model.harmonics:
        h.nodes.times = h.nodes.times + t0
    return model


def _denoise(x: RealSignal, cfg: PipelineConfig) -> DenoiseResult:
    timings: dict[str, float] = {}
    delta = cfg.resolved_delta(x.fs)

    def local_cycles():
        # the oscillation period can drift; fit each forecaster on the
        # period measured near its own edge
        c0 = estimate_cycle_len(x)
        w = min(len(x), max(6 * c0, 64))
        tail = RealSignal(x.samples[-w:], x.fs)
        head = RealSignal(x.samples[:w], x.fs)
        return fractional_cycle_len(tail), fractional_cycle_len(head)

    c_fwd, c_bwd = _staged(timings, "cycle", local_cycles)
    ext = _staged(timings, "extend", extend_boundaries, x, c_fwd, c_bwd)
    xe = ext.extended

    # the ridge walk and the fundamental's band sum read no higher than the
    # faster edge's cycle rate times RIDGE_HEADROOM, plus the band half-width
    # and a ridge jump, and no lower than the slower edge's rate over
    # RIDGE_HEADROOM, less both; a read outside that grows the band toward
    # it, to the width read or twice its width, and the harmonics' band
    # sums come from the record
    max_freq = RIDGE_HEADROOM * x.fs / min(c_fwd, c_bwd) + delta + cfg.max_jump_hz
    min_freq = x.fs / max(c_fwd, c_bwd) / RIDGE_HEADROOM - delta - cfg.max_jump_hz
    spec = _staged(timings, "stft", stft, xe, cfg.sigma, max_freq, min_freq)
    fund, ridge = _staged(timings, "fundamental", estimate_fundamental, spec, cfg.max_jump_hz, delta)
    x_dem = _staged(timings, "demodulate", demodulate, xe, fund)
    # estimation sub-stages look at the original support only: the
    # extension zones carry forecast/window artifacts by construction
    core = ext.core
    x_dem_core = RealSignal(x_dem.samples[core], fs=xe.fs, t0=x.t0)
    r = _staged(timings, "order", estimate_order, x_dem_core, fund.phi1[core], cfg.r_max)

    def budget():
        mean_if = mean_frequency(fund.phi1, fund.fs)
        counts = []
        n = len(x)
        for ell in range(2, r + 1):
            # reconstruct around the integer-multiple ridge, demodulated by
            # B1 so the envelope approximates the harmonic amplitude function
            harm_freq = np.minimum(ell * ridge.freq, spec.fs / 2 - delta)
            y_ell = vertical_reconstruct(spec, Ridge(freq=harm_freq), delta) / fund.B1
            cap = max(2, int(np.ceil(n * ell * mean_if / (4.0 * x.fs))))
            est = estimate_node_count(y_ell[core], xe.fs, max_nodes=cap)
            # floor: a DC-dominated envelope spectrum can starve the budget,
            # leaving no interior freedom to follow amplitude steps
            counts.append(max(est, min(MIN_NODES, cap)))
        return counts

    counts = _staged(timings, "nodes", budget) if r >= 2 else []
    del spec    # nothing after the node budget reads it: its band goes back to the OS before the fit
    init = _staged(
        timings, "warm_start", warm_start, x_dem, fund.phi1, r, counts,
        (ext.n_pre, ext.n_post), fund,
    )
    lr_recon = trim(remodulate(evaluate_model(init, fund.phi1, xe.t0), fund), ext)
    # FitOptions() stays positional: the benchmark's tracer reads it as args[3]
    model, diag = _staged(timings, "fit", fit, x_dem, fund.phi1, init, FitOptions())
    recon_ext = _staged(timings, "synthesize", evaluate_model, model, fund.phi1, xe.t0)
    recon = trim(remodulate(recon_ext, fund), ext)
    return DenoiseResult(
        reconstruction=recon,
        model=model,
        lr_reconstruction=lr_recon,
        fit_diagnostics=diag,
        extension=ext,
        ridge=ridge,
        timings=timings,
    )


def decompose(x: RealSignal, cfgs: list[PipelineConfig], K: int) -> list[DenoiseResult]:
    """Deflationary multicomponent extraction.

    Stage k fits one component on the running residual and subtracts it;
    results come back in fitting order (most energetic ridge first). A
    warning is issued when a later ridge lands within the reconstruction
    band of an earlier component's harmonics.
    """
    if K < 1:
        raise ValueError("need K >= 1 components")
    if len(cfgs) == 1:
        cfgs = list(cfgs) * K
    if len(cfgs) != K:
        raise ValueError("need one config (or one per component)")
    results = []
    residual = x
    prev_tracks: list[tuple[np.ndarray, float]] = []
    for k in range(K):
        res = denoise(residual, cfgs[k])
        core_track = res.ridge.freq[res.extension.core]
        for track, band in prev_tracks:
            if np.mean(np.abs(core_track - track) < band) > 0.5:
                warnings.warn(
                    f"component {k + 1} ridge collides with an earlier component's band",
                    stacklevel=2,
                )
        delta_k = cfgs[k].resolved_delta(x.fs)
        fitted_e = [h.e for h in res.model.harmonics]
        for e in [1.0] + fitted_e:
            prev_tracks.append((e * core_track, delta_k))
        results.append(res)
        residual = residual.with_samples(residual.samples - res.reconstruction.samples)
    return results


@dataclass
class SegmentationResult:
    t_hat: float | None                      # median of the per-harmonic first changes, seconds
    per_harmonic: list[tuple[int, float]]    # (l, change time)
    haf_traces: dict[int, np.ndarray]        # per-harmonic sampled HAF on original support
    all_changes: dict[int, list[float]]      # every detected change per harmonic
    model: WaveShapeModel

    def to_json(self) -> str:
        return json.dumps(
            {
                "t_hat": self.t_hat,
                "per_harmonic": [{"l": ell, "t": t} for ell, t in self.per_harmonic],
                "all_changes": {str(k): v for k, v in self.all_changes.items()},
            }
        )


def segment(x: RealSignal, cfg: PipelineConfig, penalty: float | None = None) -> SegmentationResult:
    """Locate sharp wave-shape transitions from the fitted HAF traces.

    Each harmonic amplitude function is sampled on the original support
    and scanned for mean shifts (penalty None takes pelt_mean_changes'
    default); the first change per harmonic is kept and their median is
    the reported transition time, so one harmonic's spurious change does
    not pull it. No changes anywhere yields t_hat = None.
    """
    check_penalty(penalty)      # a bad penalty fails at once, not after the fit
    # fitted and scanned at t0 = 0, as denoise fits; change times on x's axis
    x0 = RealSignal(x.samples, x.fs)
    model = denoise(x0, cfg).model
    t = x0.times()
    traces: dict[int, np.ndarray] = {}
    firsts: list[tuple[int, float]] = []
    all_changes: dict[int, list[float]] = {}
    for ell, h in zip(range(2, model.r + 1), model.harmonics):
        trace = pchip_eval(h.nodes.times, h.nodes.amps, t)
        traces[ell] = trace
        idx = pelt_mean_changes(trace, penalty)
        times = [x.t0 + float(t[i]) for i in idx]
        all_changes[ell] = times
        if times:
            firsts.append((ell, times[0]))
    t_hat = float(np.median([tt for _, tt in firsts])) if firsts else None
    return SegmentationResult(
        t_hat=t_hat,
        per_harmonic=firsts,
        haf_traces=traces,
        all_changes=all_changes,
        model=_moved_model(model, x.t0),
    )
