"""Constrained Levenberg-Marquardt fit of the wave-shape coefficient vector.

Minimizes ||x_demod - model(gamma)||^2 over the flattened coefficients
(inner node times, node amplitudes, quadrature coefficient, phase ratio
per harmonic). Constraints are enforced by projection after every trial
step: phase ratios stay inside a box around their integer, node times
stay strictly ordered with a minimum gap, and edge node times never move
(they are not part of the coefficient vector at all).

The model and its jacobian come from `model.synthesize`, the one place
the wave-shape formula is written: node amplitudes, quadrature
coefficients and phase ratios get analytic columns, free node times
central differences on the four intervals a node moves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import WaveShapeModel, synthesize
# not called here: the benchmark's per-layer tracer (perfbench/tracer.py,
# --trace 1) wraps these names of this module, so they must stay resolvable
from .pchip import pchip_eval, pchip_eval_with_amp_jacobian  # noqa: F401
from .signals import RealSignal

LAMBDA_CAP = 1e16


@dataclass
class FitOptions:
    max_iters: int = 200
    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    lambda0: float = 1e-3
    e_bound: float = 0.1            # box half-width on |e_l - round(e_l)|
    min_node_gap: float | None = None   # seconds; default 2 samples
    freeze_nodes: bool = False      # leave node times and amplitudes fixed

    def __post_init__(self):
        if min(self.grad_tol, self.step_tol, self.lambda0) <= 0:
            raise ValueError("tolerances and damping must be positive")
        if not 0 < self.e_bound < 0.5:
            raise ValueError("e_bound must be in (0, 0.5)")


@dataclass
class FitDiagnostics:
    iterations: int
    rss_trace: list[float]
    converged_by: str               # gradient | step | max_iters
    final_rss: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "iterations": self.iterations,
                "rss_trace": self.rss_trace,
                "converged_by": self.converged_by,
                "final_rss": self.final_rss,
            }
        )


class FitError(RuntimeError):
    def __init__(self, message, diagnostics: FitDiagnostics | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class FitContext:
    """Everything the residual needs besides the coefficient vector."""

    target: np.ndarray    # demodulated samples
    phi1: np.ndarray      # cycles
    t: np.ndarray         # sample times (same grid as target)
    template: WaveShapeModel
    min_node_gap: float
    e_bound: float
    freeze_nodes: bool = False
    # layout: per-gamma-entry (harmonic index, kind) with kind in t/a/c/e
    layout: list[tuple[int, str]] = field(init=False)

    def __post_init__(self):
        layout = []
        for hi, h in enumerate(self.template.harmonics):
            sl = self.template.free_time_slice(h)
            layout += [(hi, "t")] * (sl.stop - sl.start)
            layout += [(hi, "a")] * len(h.nodes)
            layout += [(hi, "c"), (hi, "e")]
        self.layout = layout

    def free_index(self) -> slice | np.ndarray:
        """Index of the coefficients the fit moves: all of them, or only the
        quadrature coefficients and phase ratios when nodes are frozen."""
        if not self.freeze_nodes:
            return slice(None)      # a view: no copy of J per iteration
        return np.array([kind in ("c", "e") for _, kind in self.layout])

    def project(self, gamma: np.ndarray) -> np.ndarray:
        """Clamp a trial vector back into the feasible set."""
        model = self.template.unflatten(gamma)
        for h in model.harmonics:
            ell = round(h.e)
            h.e = float(np.clip(h.e, ell - self.e_bound, ell + self.e_bound))
            sl = self.template.free_time_slice(h)
            times = h.nodes.times
            gap = self.min_node_gap
            for i in range(sl.start, sl.stop):
                times[i] = max(times[i], times[i - 1] + gap)
            for i in range(sl.stop - 1, sl.start - 1, -1):
                times[i] = min(times[i], times[i + 1] - gap)
            if np.any(np.diff(times) <= 0):
                raise FitError("node ordering infeasible under the minimum gap")
        return model.flatten()

    def synthesize(self, gamma: np.ndarray) -> np.ndarray:
        return synthesize(self.template.unflatten(gamma), self.phi1, self.t)[0]


def residual_and_jacobian(gamma: np.ndarray, ctx: FitContext) -> tuple[np.ndarray, np.ndarray]:
    """Residual r = target - model and d r / d gamma.

    The jacobian is the negated model jacobian of `model.synthesize`, with
    free node times differenced centrally at a tenth of the node gap.
    """
    synth, J = synthesize(ctx.template.unflatten(gamma), ctx.phi1, ctx.t, ctx.min_node_gap / 10.0)
    return ctx.target - synth, np.negative(J, out=J)


def _fd_jacobian(gamma: np.ndarray, ctx: FitContext) -> np.ndarray:
    """Full central-difference jacobian (testing oracle)."""
    J = np.empty((ctx.target.size, gamma.size))
    for i in range(gamma.size):
        h = 1e-7 * max(1.0, abs(gamma[i]))
        if ctx.layout[i][1] == "t":
            h = ctx.min_node_gap / 10.0
        gp, gm = gamma.copy(), gamma.copy()
        gp[i] += h
        gm[i] -= h
        J[:, i] = ((ctx.target - ctx.synthesize(gp)) - (ctx.target - ctx.synthesize(gm))) / (2 * h)
    return J


def fit(
    x_demod: RealSignal,
    phi1: np.ndarray,
    init: WaveShapeModel,
    opts: FitOptions | None = None,
) -> tuple[WaveShapeModel, FitDiagnostics]:
    """Fit the wave-shape model by damped least squares.

    Accepted-step RSS is monotone non-increasing; constraints hold after
    every accepted step. Deterministic.
    """
    opts = opts or FitOptions()
    phi1 = np.asarray(phi1, dtype=float)
    if phi1.size != len(x_demod):
        raise ValueError("phi1 and signal lengths differ")
    gap = opts.min_node_gap if opts.min_node_gap is not None else 2.0 / x_demod.fs
    ctx = FitContext(
        target=x_demod.samples,
        phi1=phi1,
        t=x_demod.times(),
        template=init.copy(),
        min_node_gap=gap,
        e_bound=opts.e_bound,
        freeze_nodes=opts.freeze_nodes,
    )
    gamma = ctx.project(init.flatten())
    resid = ctx.target - ctx.synthesize(gamma)
    if not np.all(np.isfinite(resid)):
        bad = [i for i, v in enumerate(gamma) if not np.isfinite(v)]
        raise FitError(f"non-finite residual at the initial model (coefficients {bad})")
    rss = float(resid @ resid)
    trace = [rss]

    free = ctx.free_index()
    if gamma.size == 0:
        diag = FitDiagnostics(0, trace, "gradient", rss)
        return ctx.template.unflatten(gamma), diag

    lam = opts.lambda0
    converged_by = "max_iters"
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        resid, J = residual_and_jacobian(gamma, ctx)
        Jf = J[:, free]
        grad = Jf.T @ resid
        if np.max(np.abs(grad)) < opts.grad_tol:
            converged_by = "gradient"
            break
        A = Jf.T @ Jf
        D = np.maximum(np.diag(A), 1e-12 * max(np.max(np.diag(A)), 1.0))

        accepted = False
        while True:
            try:
                delta = np.linalg.solve(A + lam * np.diag(D), -grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                if np.linalg.norm(delta) < opts.step_tol * (np.linalg.norm(gamma[free]) + opts.step_tol):
                    converged_by = "step"
                    break
                trial = gamma.copy()
                trial[free] += delta
                trial = ctx.project(trial)
                r_t = ctx.target - ctx.synthesize(trial)
                rss_t = float(r_t @ r_t) if np.all(np.isfinite(r_t)) else np.inf
                if rss_t < rss:
                    gamma, resid, rss = trial, r_t, rss_t
                    trace.append(rss)
                    lam = max(lam / 10.0, 1e-14)
                    accepted = True
                    break
            lam *= 10.0
            if lam > LAMBDA_CAP:
                diag = FitDiagnostics(iterations, trace, "max_iters", rss)
                raise FitError("normal system stayed singular at maximum damping", diag)
        if not accepted:
            break

    diag = FitDiagnostics(iterations, trace, converged_by, rss)
    return ctx.template.unflatten(gamma), diag
