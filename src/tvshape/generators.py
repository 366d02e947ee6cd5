"""Synthetic signals with time-varying wave-shape and their ground truth.

Each generator family builds a signal of the form

    x(t) = B1(t) * [cos(2*pi*phi1(t))
                    + sum_l alpha_l(t) * (cos(2*pi*e_l*phi1(t))
                                          + c_l*sin(2*pi*e_l*phi1(t)))]

sampled on [0, duration] at fs, with the record mean removed afterwards.
The ground truth keeps the sampled modulation laws so estimates can be
scored exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .signals import RealSignal

KINDS = (
    "tv_reconstruction",
    "tv_denoise_s1",
    "tv_denoise_s2",
    "tv_denoise_s3",
    "tv_denoise_s4",
    "multicomponent",
    "sharp_transition",
)


@dataclass
class ComponentTruth:
    """Sampled modulation laws of one oscillatory component."""

    b1: np.ndarray
    phi1: np.ndarray                 # cycles
    alphas: dict[int, np.ndarray]    # harmonic index (>= 2) -> sampled HAF
    e: dict[int, float]              # phase ratios
    c: dict[int, float]              # quadrature coefficients
    clean: np.ndarray                # component samples before mean removal

    def synthesize(self) -> np.ndarray:
        out = np.cos(2 * np.pi * self.phi1).astype(float)
        for ell, alpha in self.alphas.items():
            arg = 2 * np.pi * self.e[ell] * self.phi1
            out = out + alpha * (np.cos(arg) + self.c[ell] * np.sin(arg))
        return self.b1 * out


@dataclass
class GroundTruth:
    """What generate() knows about the record it produced."""

    components: list[ComponentTruth]
    mean_offset: float
    fs: float
    t_transition: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def fundamental(self) -> ComponentTruth:
        return self.components[0]

    def synthesize(self) -> np.ndarray:
        """Clean signal before mean removal (sum over components)."""
        return sum(comp.clean for comp in self.components)

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=np.ndarray.tolist)

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        raw = json.loads(text)
        raw["components"] = [
            ComponentTruth(
                b1=np.asarray(c["b1"]),
                phi1=np.asarray(c["phi1"]),
                alphas={int(k): np.asarray(v) for k, v in c["alphas"].items()},
                e={int(k): float(v) for k, v in c["e"].items()},
                c={int(k): float(v) for k, v in c["c"].items()},
                clean=np.asarray(c["clean"]),
            )
            for c in raw["components"]
        ]
        return cls(**raw)


_TRANSITION_PARAMS = {"draw", "kappa", "r", "t_t", "mu", "lam"}


@dataclass
class SyntheticSpec:
    """Recipe for one synthetic record.

    params sets the sharp_transition protocol: draw, kappa, r, t_t, mu and
    lam (see _sharp_transition_truth). The other kinds take no params.
    """

    kind: str
    duration: float = 1.0
    fs: float = 2000.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        for name in ("duration", "fs"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        allowed = _TRANSITION_PARAMS if self.kind == "sharp_transition" else set()
        unknown = sorted(set(self.params) - allowed)
        if unknown:
            raise ValueError(f"kind {self.kind!r} takes no params {unknown}")


def _b1_law(t):
    return 0.1 * np.sqrt(t + 1.0)


def _phi1_law(t):
    return 40.0 * t + 5.0 / (2 * np.pi) * np.sin(2 * np.pi * t)


# HAF laws for the four denoising wave-shape families. s1 pairs two cosine
# modulations; s2 linear+cosine; s3 tanh+bump; s4 linear+tanh. All four
# share the fundamental laws above and the phase ratios below.
_DENOISE_FAMILIES: dict[str, dict[int, Callable]] = {
    "tv_denoise_s1": {
        2: lambda t: 0.5 + 0.25 * np.cos(2 * np.pi * 3 * t),
        3: lambda t: 0.3 + 0.25 * np.cos(2 * np.pi * 4 * t),
    },
    "tv_denoise_s2": {
        2: lambda t: 0.3 + 0.4 * t,
        3: lambda t: 0.3 + 0.25 * np.cos(2 * np.pi * 4 * t),
    },
    "tv_denoise_s3": {
        2: lambda t: 0.4 + 0.25 * np.tanh(10 * (t - 0.5)),
        3: lambda t: 0.3 + 0.25 * np.exp(-(((t - 0.5) / 0.1) ** 2)),
    },
    "tv_denoise_s4": {
        2: lambda t: 0.3 + 0.4 * t,
        3: lambda t: 0.4 + 0.25 * np.tanh(10 * (t - 0.5)),
    },
}
_DENOISE_E = {2: 2.005, 3: 2.995}


def _sample_component(t, b1_fn, phi1_fn, haf_laws, e, c) -> ComponentTruth:
    b1 = np.asarray(b1_fn(t), dtype=float)
    phi1 = np.asarray(phi1_fn(t), dtype=float)
    alphas = {ell: np.asarray(fn(t), dtype=float) for ell, fn in haf_laws.items()}
    for ell, alpha in alphas.items():
        # sign flips would alias into the phase; amplitude laws may touch
        # zero but must not cross it
        if np.any(alpha < 0):
            raise ValueError(f"HAF law for harmonic {ell} goes negative")
    comp = ComponentTruth(b1=b1, phi1=phi1, alphas=alphas, e=dict(e), c=dict(c), clean=np.zeros(1))
    comp.clean = comp.synthesize()
    return comp


def _monocomponent_truth(spec: SyntheticSpec, haf_laws) -> GroundTruth:
    t = np.arange(round(spec.duration * spec.fs)) / spec.fs
    comp = _sample_component(
        t, _b1_law, _phi1_law, haf_laws, _DENOISE_E, {ell: 0.0 for ell in haf_laws}
    )
    return GroundTruth(components=[comp], mean_offset=0.0, fs=spec.fs)


def _multicomponent_truth(spec: SyntheticSpec) -> GroundTruth:
    t = np.arange(round(spec.duration * spec.fs)) / spec.fs
    comp1 = _sample_component(
        t,
        lambda t: np.sqrt(0.01 * t) + 1.1,
        lambda t: 25.0 * t + 5.0 / (2 * np.pi) * np.cos(2 * np.pi * t),
        {
            2: lambda t: 0.5 + 0.2 * np.cos(2 * np.pi * 3 * t),
            3: lambda t: 0.3 + 0.2 * np.exp(-(((t - 0.25) / 0.1) ** 2)),
        },
        {2: 2.005, 3: 3.003},
        {2: 0.0, 3: 0.0},
    )
    comp2 = _sample_component(
        t,
        lambda t: 2 * np.log(t + 1.1) + 0.5,
        lambda t: 100.0 * t + 7.0 * t**2,
        {
            2: lambda t: 0.6 + 0.3 * t**2,
            3: lambda t: 0.4 + 0.5 * np.tanh(t - 0.5),
            4: lambda t: 0.3 + 0.3 * np.cos(2 * np.pi * 4 * t),
        },
        {2: 2.002, 3: 3.002, 4: 3.998},
        {2: 0.0, 3: 0.0, 4: 0.0},
    )
    return GroundTruth(components=[comp1, comp2], mean_offset=0.0, fs=spec.fs)


def _sharp_transition_truth(spec: SyntheticSpec, rng: np.random.Generator) -> GroundTruth:
    p = dict(spec.params)
    r = int(p.get("r", 4))
    if r < 2:
        raise ValueError("sharp transition requires r >= 2")
    kappa = float(p.get("kappa", 50.0))
    if kappa <= 0:
        raise ValueError("kappa must be positive")

    if p.get("draw", False):
        # randomized protocol: t_t ~ U[0.1, 0.9]*duration, per-harmonic
        # mu ~ U[0.1, 0.5] and lambda ~ U[0.1, 0.35], redrawing lambda
        # until the HAF stays strictly positive (mu - lambda > 0.02)
        t_t = spec.duration * rng.uniform(0.1, 0.9)
        mus, lams = {}, {}
        for ell in range(2, r + 1):
            mu = rng.uniform(0.1, 0.5)
            lam = rng.uniform(0.1, 0.35)
            while lam >= mu - 0.02:
                mu = rng.uniform(0.1, 0.5)
                lam = rng.uniform(0.1, 0.35)
            mus[ell], lams[ell] = mu, lam
    else:
        t_t = float(p.get("t_t", 0.5 * spec.duration))
        mu, lam = float(p.get("mu", 0.3)), float(p.get("lam", 0.15))
        mus = {ell: mu for ell in range(2, r + 1)}
        lams = {ell: lam for ell in range(2, r + 1)}
    if not 0.0 <= t_t <= spec.duration:
        raise ValueError(f"transition time {t_t} outside [0, {spec.duration}]")

    def make_law(mu, lam):
        return lambda t: mu + lam * np.tanh(kappa * (t - t_t))

    haf_laws = {ell: make_law(mus[ell], lams[ell]) for ell in range(2, r + 1)}
    t = np.arange(round(spec.duration * spec.fs)) / spec.fs
    comp = _sample_component(
        t,
        _b1_law,
        _phi1_law,
        haf_laws,
        {ell: float(ell) for ell in range(2, r + 1)},
        {ell: 0.0 for ell in range(2, r + 1)},
    )
    gt = GroundTruth(components=[comp], mean_offset=0.0, fs=spec.fs, t_transition=t_t)
    gt.extras = {
        "kappa": kappa,
        "mu": {str(k): v for k, v in mus.items()},
        "lam": {str(k): v for k, v in lams.items()},
        "r": r,
    }
    return gt


def generate(spec: SyntheticSpec, seed: int | None = None) -> tuple[RealSignal, GroundTruth]:
    """Sample a synthetic record and return it with its ground truth.

    Deterministic given (spec, seed); the seed only matters for kinds with
    randomized parameters (sharp_transition with draw=True).
    """
    rng = np.random.default_rng(seed)
    family = "tv_denoise_s1" if spec.kind == "tv_reconstruction" else spec.kind
    if family in _DENOISE_FAMILIES:
        truth = _monocomponent_truth(spec, _DENOISE_FAMILIES[family])
    elif spec.kind == "multicomponent":
        truth = _multicomponent_truth(spec)
    elif spec.kind == "sharp_transition":
        truth = _sharp_transition_truth(spec, rng)
    else:  # pragma: no cover - guarded by SyntheticSpec validation
        raise ValueError(spec.kind)

    clean = truth.synthesize()
    truth.mean_offset = float(clean.mean())
    return RealSignal(clean - truth.mean_offset, fs=spec.fs), truth
