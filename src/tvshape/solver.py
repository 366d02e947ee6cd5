"""Constrained Levenberg-Marquardt fit of the wave-shape coefficient vector.

Minimizes ||x_demod - model(gamma)||^2 over the coefficient vector that
`WaveShapeModel.coefficient_layout` lays out. Constraints are enforced by
projection after every trial step: phase ratios stay within E_BOUND of
their integer, node times stay strictly ordered at least
MIN_NODE_GAP_SAMPLES samples apart, and edge node times never move (they
are not part of the vector at all).

The model and its jacobian come from `model.synthesize`, the one place
the wave-shape formula is written: node amplitudes, quadrature
coefficients and phase ratios get analytic columns, free node times
central differences on the four intervals a node moves. The next jacobian
is taken at the accepted trial, the last one synthesized, so `fit` hands
the harmonic terms of that trial to `residual_and_jacobian`. The fit holds
one N x p jacobian at a time: an iteration's J is dropped before the next
is built.

The fit stops at the first of three tests. After an accepted step, MINPACK's
relative-reduction test (Moré 1978): the actual and the predicted relative
RSS reductions are both at most FTOL and the actual is at most twice the
predicted. FTOL sits at the noise floor of the records the pipeline fits:
a smaller one only adds a tail of accepted steps that move no output
measure. The prediction is the linearized model's along the projected
step, the one the fit took, not along the step the normal equations
proposed: a coefficient held at its box edge would otherwise keep the
prediction far above the actual reduction. A proposed step below STEP_TOL
relative to the coefficients also stops it, and so does MAX_ITERS.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import HarmonicTerms, WaveShapeModel, harmonic_terms, synthesize
# not called here: the benchmark's per-layer tracer (perfbench/tracer.py,
# --trace 1) wraps these names of this module, so they must stay resolvable
from .pchip import pchip_eval, pchip_eval_with_amp_jacobian  # noqa: F401
from .signals import RealSignal

LAMBDA0 = 1e-3          # initial damping
LAMBDA_CAP = 1e16
# stop when actual and predicted relative RSS reductions are below this. On a
# noise-dominated residual of N = 2,400-9,600 samples a step that gains 1e-5
# of the RSS gains 0.02-0.1 of one sample's noise variance, which no quality
# measure registers
FTOL = 1e-5
STEP_TOL = 1e-10        # stop when the step is this small relative to the coefficients
MAX_ITERS = 200         # LM iterations before the fit stops by `max_iters`
E_BOUND = 0.1           # box half-width on |e_l - round(e_l)|
MIN_NODE_GAP_SAMPLES = 2    # least spacing of adjacent node times, in samples of the record

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
    """The solver's frozen-node mode; only its tests set it."""

    freeze_nodes: bool = False      # leave node times and amplitudes fixed

    def __post_init__(self):
        check_field_types(self)


@dataclass
class FitDiagnostics:
    iterations: int
    rss_trace: list[float]
    converged_by: str               # ftol | step | max_iters; empty: nothing to fit
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
    min_node_gap: float   # seconds
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
            out[s.c + 1] = np.clip(out[s.c + 1], ell - E_BOUND, ell + E_BOUND)
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

    def synthesize(self, gamma: np.ndarray) -> tuple[np.ndarray, list[HarmonicTerms]]:
        """The model at gamma and the harmonic terms it was built from, which
        `residual_and_jacobian` takes at the same gamma."""
        model = self.template.unflatten(gamma)
        terms = harmonic_terms(model, self.phi1, self.t)
        return synthesize(model, self.phi1, self.t, terms=terms)[0], terms


def residual_and_jacobian(
    gamma: np.ndarray, ctx: FitContext, terms: list[HarmonicTerms] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Residual r = target - model and d r / d gamma.

    The jacobian is the negated model jacobian of `model.synthesize`, with
    free node times differenced centrally at a tenth of the node gap.
    terms, if given, are those `ctx.synthesize(gamma)`
    returned at this very gamma (the fit's accepted trial); they are reused
    and the result is the same bit for bit.
    """
    model = ctx.template.unflatten(gamma)
    synth, J = synthesize(model, ctx.phi1, ctx.t, ctx.min_node_gap / 10.0, terms)
    return ctx.target - synth, np.negative(J, out=J)


def fit(
    x_demod: RealSignal,
    phi1: np.ndarray,
    init: WaveShapeModel,
    opts: FitOptions | None = None,
) -> tuple[WaveShapeModel, FitDiagnostics]:
    """Fit the wave-shape model by damped least squares.

    Accepted-step RSS is monotone non-increasing; constraints hold after
    every accepted step. Deterministic for a given BLAS thread count: the
    normal equations are BLAS products whose rounding depends on how the
    sums are split among threads, and the fit's path follows those bits
    (the 4 s long-record fit takes 15 iterations, stopping by `step` at
    RSS 1542.59, with one OpenBLAS thread and 35, by `ftol` at RSS 1536.09,
    with two).
    """
    opts = opts or FitOptions()
    phi1 = np.asarray(phi1, dtype=float)
    if phi1.size != len(x_demod):
        raise ValueError("phi1 and signal lengths differ")
    ctx = FitContext(
        target=x_demod.samples,
        phi1=phi1,
        t=x_demod.times(),
        template=init.copy(),
        min_node_gap=MIN_NODE_GAP_SAMPLES / x_demod.fs,
        freeze_nodes=opts.freeze_nodes,
    )
    gamma = ctx.project(init.flatten())
    synth, terms = ctx.synthesize(gamma)
    resid = ctx.target - synth
    if not np.all(np.isfinite(resid)):
        bad = [i for i, v in enumerate(gamma) if not np.isfinite(v)]
        raise FitError(f"non-finite residual at the initial model (coefficients {bad})")
    rss = float(resid @ resid)
    trace = [rss]

    free = ctx.free_index()
    if gamma.size == 0:
        diag = FitDiagnostics(0, trace, "empty", rss)
        return ctx.template.unflatten(gamma), diag

    lam = LAMBDA0
    converged_by = "max_iters"
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        # terms are the last synthesized trial's, and a new iteration starts
        # only after a trial was accepted: they are gamma's
        resid, J = residual_and_jacobian(gamma, ctx, terms)
        Jf = J[:, free]
        grad = Jf.T @ resid
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
                synth, terms = ctx.synthesize(trial)
                r_t = ctx.target - synth
                rss_t = float(r_t @ r_t) if np.all(np.isfinite(r_t)) else np.inf
                if rss_t < rss:
                    # reductions relative to rss; the prediction is the linear
                    # model's along the projected step, the one actually taken
                    s = (trial - gamma)[free]
                    Js = Jf @ s
                    actual = (rss - rss_t) / rss
                    predicted = -(2.0 * (s @ grad) + Js @ Js) / rss
                    gamma, resid, rss = trial, r_t, rss_t
                    trace.append(rss)
                    lam = max(lam / 10.0, 1e-14)
                    accepted = True
                    break
            lam *= 10.0
            if lam > LAMBDA_CAP:
                diag = FitDiagnostics(iterations, trace, "max_iters", rss)
                raise FitError("normal system stayed singular at maximum damping", diag)
        del J, Jf       # one jacobian at a time: the next is built in this one's place
        if not accepted:
            break
        if actual <= FTOL and predicted <= FTOL and actual <= 2.0 * predicted:
            converged_by = "ftol"
            break

    diag = FitDiagnostics(iterations, trace, converged_by, rss)
    return ctx.template.unflatten(gamma), diag
