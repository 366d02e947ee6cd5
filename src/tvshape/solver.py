"""Constrained Levenberg-Marquardt fit of the wave-shape coefficient vector.

Minimizes ||x_demod - model(gamma)||^2 over the coefficient vector that
`WaveShapeModel.coefficient_layout` lays out. Constraints are enforced by
projection after every trial step: phase ratios stay inside a box around
their integer, node times stay strictly ordered with a minimum gap, and
edge node times never move (they are not part of the vector at all).

The model and its jacobian come from `model.synthesize`, the one place
the wave-shape formula is written: node amplitudes, quadrature
coefficients and phase ratios get analytic columns, free node times
central differences on the four intervals a node moves.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import WaveShapeModel, synthesize
# not called here: the benchmark's per-layer tracer (perfbench/tracer.py,
# --trace 1) wraps these names of this module, so they must stay resolvable
from .pchip import pchip_eval, pchip_eval_with_amp_jacobian  # noqa: F401
from .signals import RealSignal

LAMBDA0 = 1e-3          # initial damping
LAMBDA_CAP = 1e16
GRAD_TOL = 1e-8         # stop when the largest gradient entry is below this
STEP_TOL = 1e-10        # stop when the step is this small relative to the coefficients

# value types that a config field annotated with the key accepts
_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "bool": ((bool, np.bool_), "true or false"),
}


def check_field_types(cfg) -> None:
    """Raise ValueError naming the first field of the dataclass cfg whose
    value does not have its annotated type (int, float or bool, each
    optionally "| None"; the annotations are strings under the module's
    `from __future__ import annotations`). A bool is never taken for a
    number, and a float must be finite. An accepted numpy scalar is stored
    as the Python value it holds, so the config writes as JSON."""
    for f in fields(cfg):
        kind, _, optional = f.type.partition(" | ")
        if kind not in _FIELD_TYPES:
            continue
        value = getattr(cfg, f.name)
        if value is None and optional == "None":
            continue
        types, what = _FIELD_TYPES[kind]
        is_bool = isinstance(value, (bool, np.bool_))
        if not isinstance(value, types) or is_bool != (kind == "bool"):
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if kind == "float" and not -np.inf < value < np.inf:
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if isinstance(value, np.generic):
            setattr(cfg, f.name, value.item())


@dataclass
class FitOptions:
    max_iters: int = 200
    e_bound: float = 0.1            # box half-width on |e_l - round(e_l)|
    min_node_gap: float | None = None   # seconds; default 2 samples
    freeze_nodes: bool = False      # leave node times and amplitudes fixed

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.e_bound < 0.5:
            raise ValueError("e_bound must be in (0, 0.5)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.min_node_gap is not None and not self.min_node_gap > 0:
            raise ValueError("min_node_gap must be positive")


@dataclass
class FitDiagnostics:
    iterations: int
    rss_trace: list[float]
    converged_by: str               # gradient | step | max_iters
    final_rss: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


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

    def free_index(self) -> slice | np.ndarray:
        """Index of the coefficients the fit moves: all of them, or only the
        quadrature coefficients and phase ratios when nodes are frozen."""
        if not self.freeze_nodes:
            return slice(None)      # a view: no copy of J per iteration
        slots, size = self.template.coefficient_layout()
        free = np.zeros(size, dtype=bool)
        for s in slots:
            free[s.c : s.c + 2] = True
        return free

    def project(self, gamma: np.ndarray) -> np.ndarray:
        """Clamp a trial vector back into the feasible set."""
        out = gamma.copy()
        slots, _ = self.template.coefficient_layout()
        for h, s in zip(self.template.harmonics, slots):
            ell = round(float(out[s.c + 1]))
            out[s.c + 1] = np.clip(out[s.c + 1], ell - self.e_bound, ell + self.e_bound)
            times = h.nodes.times.copy()      # fixed edge times from the template
            times[s.nodes] = out[s.times]
            for i in s.nodes:
                times[i] = max(times[i], times[i - 1] + self.min_node_gap)
            for i in s.nodes[::-1]:
                times[i] = min(times[i], times[i + 1] - self.min_node_gap)
            if np.any(np.diff(times) <= 0):
                raise FitError("node ordering infeasible under the minimum gap")
            out[s.times] = times[s.nodes]
        return out

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
    is_time = np.zeros(gamma.size, dtype=bool)
    for s in ctx.template.coefficient_layout()[0]:
        is_time[s.times] = True
    J = np.empty((ctx.target.size, gamma.size))
    for i in range(gamma.size):
        h = ctx.min_node_gap / 10.0 if is_time[i] else 1e-7 * max(1.0, abs(gamma[i]))
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

    lam = LAMBDA0
    converged_by = "max_iters"
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        resid, J = residual_and_jacobian(gamma, ctx)
        Jf = J[:, free]
        grad = Jf.T @ resid
        if np.max(np.abs(grad)) < GRAD_TOL:
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
                if np.linalg.norm(delta) < STEP_TOL * (np.linalg.norm(gamma[free]) + STEP_TOL):
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
