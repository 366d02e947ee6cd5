"""Time-varying wave-shape model: node-encoded harmonic amplitudes.

A fitted model represents the demodulated signal as

    cos(2*pi*phi1(n)) + sum_{l=2}^{r} P_l(t_n) * Theta_l(n),
    Theta_l(n) = cos(2*pi*e_l*phi1(n)) + c_l*sin(2*pi*e_l*phi1(n)),

where each P_l is the shape-preserving cubic through that harmonic's
nodes. Node times at the record edges are fixed; when the record was
boundary-extended, the nodes at the original record edges are fixed too.

`synthesize` is the one place this formula is written. It also returns the
jacobian in the coefficient order of `WaveShapeModel.flatten`, which the
fitter in `solver` uses; `evaluate_model` resynthesizes a fitted model.
Each harmonic is evaluated once per call (`harmonic_terms`: its carriers
and its HAF curve), and the values, the amplitude band, the knot
differences and the c and e columns all read that evaluation. A caller
that already holds a model's terms on the same grid (the fitter's
accepted trial) passes them in, and no carrier or curve is evaluated twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pchip import Curve, amp_band, knot_differences, pchip_curve
# not called here: the benchmark's per-layer tracer (perfbench/tracer.py,
# --trace 1) wraps this name of this module, so it must stay resolvable
from .pchip import pchip_eval  # noqa: F401
from .signals import RealSignal
from .stft import FundamentalEstimate


@dataclass
class HafNodes:
    """Interpolation nodes of one harmonic amplitude function."""

    times: np.ndarray   # seconds, strictly increasing, endpoints fixed
    amps: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amps = np.asarray(self.amps, dtype=float)
        if self.times.size != self.amps.size or self.times.size < 2:
            raise ValueError("nodes need matching times/amps with at least 2 entries")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("node times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size

    def copy(self) -> "HafNodes":
        return HafNodes(self.times.copy(), self.amps.copy())


@dataclass
class HarmonicModel:
    """One harmonic: phase ratio, quadrature coefficient, HAF nodes."""

    e: float
    c: float
    nodes: HafNodes
    degenerate: bool = False   # warm start found no energy at this harmonic

    def copy(self) -> "HarmonicModel":
        return HarmonicModel(self.e, self.c, self.nodes.copy(), self.degenerate)


class HarmonicSlots(NamedTuple):
    """Where one harmonic's coefficients sit in the coefficient vector."""

    nodes: np.ndarray   # indices of the nodes whose times are free
    times: slice        # vector entries of those times
    amps: slice         # vector entries of all node amplitudes
    c: int              # vector index of c; e sits at c + 1


@dataclass
class WaveShapeModel:
    """Full coefficient set of the fitted time-varying wave-shape."""

    r: int                                   # number of harmonics incl. fundamental
    harmonics: list[HarmonicModel]           # entries for l = 2..r
    fundamental: FundamentalEstimate | None = None
    extension_map: tuple[int, int] = (0, 0)  # (n_pre, n_post) samples

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if len(self.harmonics) != self.r - 1:
            raise ValueError("expected one harmonic entry per l = 2..r")

    def copy(self) -> "WaveShapeModel":
        return WaveShapeModel(
            self.r,
            [h.copy() for h in self.harmonics],
            self.fundamental,
            self.extension_map,
        )

    # -- coefficient vector ------------------------------------------------
    def coefficient_layout(self) -> tuple[list[HarmonicSlots], int]:
        """Per harmonic the slots of [free node times, all amplitudes, c, e] in
        the coefficient vector, and its length. Record-edge node times are fixed,
        and so are the original-record edges of a boundary-extended model."""
        n_fixed = 2 if self.extension_map[0] > 0 or self.extension_map[1] > 0 else 1
        slots, pos = [], 0
        for h in self.harmonics:
            j = len(h.nodes)
            if j < 2 * n_fixed:
                raise ValueError(
                    f"harmonic l={round(h.e)} has {j} nodes; a boundary-extended model "
                    "needs at least 4 (record and original-record edges are fixed)"
                )
            n_t = j - 2 * n_fixed
            amps = slice(pos + n_t, pos + n_t + j)
            slots.append(HarmonicSlots(np.arange(n_fixed, j - n_fixed), slice(pos, pos + n_t), amps, amps.stop))
            pos = amps.stop + 2
        return slots, pos

    def flatten(self) -> np.ndarray:
        """Coefficient vector in the order of `coefficient_layout`."""
        slots, size = self.coefficient_layout()
        gamma = np.empty(size)
        for h, s in zip(self.harmonics, slots):
            gamma[s.times] = h.nodes.times[s.nodes]
            gamma[s.amps] = h.nodes.amps
            gamma[s.c : s.c + 2] = h.c, h.e
        return gamma

    def unflatten(self, gamma: np.ndarray) -> "WaveShapeModel":
        """Rebuild a model with the same structure from a coefficient vector."""
        slots, size = self.coefficient_layout()
        if gamma.size != size:
            raise ValueError(f"coefficient vector has {gamma.size} entries, expected {size}")
        out = self.copy()
        for h, s in zip(out.harmonics, slots):
            h.nodes.times[s.nodes] = gamma[s.times]
            h.nodes.amps[:] = gamma[s.amps]
            h.c, h.e = float(gamma[s.c]), float(gamma[s.c + 1])
        return out

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON layout: each harmonic's nodes as a list of {t, a} pairs."""
        f = self.fundamental
        return {
            "r": self.r,
            "harmonics": [
                {
                    "e": h.e,
                    "c": h.c,
                    "degenerate": h.degenerate,
                    "nodes": [{"t": t, "a": a}
                              for t, a in zip(h.nodes.times.tolist(), h.nodes.amps.tolist())],
                }
                for h in self.harmonics
            ],
            "extension_map": list(self.extension_map),
            "fundamental": None if f is None else {
                "B1": f.B1.tolist(), "phi1": f.phi1.tolist(), "fs": float(f.fs)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "WaveShapeModel":
        """Inverse of to_json; files without the fundamental or the degenerate
        flags (written before they were saved) load with None and False. A
        missing, ill-typed or non-finite entry raises ValueError naming its key."""
        raw = json.loads(text)
        top = "the model file"
        harmonics = []
        for ell, h in enumerate(_entry(raw, "harmonics", list, top), start=2):
            where, at = f"harmonic l={ell}", f"a node of harmonic l={ell}"
            nodes = [(_finite(n, "t", at), _finite(n, "a", at)) for n in _entry(h, "nodes", list, where)]
            harmonics.append(HarmonicModel(
                e=float(_finite(h, "e", where)),
                c=float(_finite(h, "c", where)),
                nodes=HafNodes(np.array([t for t, _ in nodes]), np.array([a for _, a in nodes])),
                degenerate=_entry(h, "degenerate", bool, where, default=False),
            ))
        f = _entry(raw, "fundamental", (dict, type(None)), top, default=None)
        if f is not None:
            where = "the fundamental"
            b1, phi1 = (_finite(f, key, where, list) for key in ("B1", "phi1"))
            fs = _entry(f, "fs", _NUMBER, where)
            try:
                fs = float(fs)
            except OverflowError:   # json reads integers of any size, even past a double's range
                fs = np.inf if fs > 0 else -np.inf
            if b1.shape != phi1.shape:
                raise ValueError(f"{where}'s 'B1' and 'phi1' differ in length ({b1.size} and {phi1.size})")
            if not 0 < fs < np.inf:
                raise ValueError(f"{where}'s 'fs' is not a positive, finite sampling rate ({fs:g})")
            f = FundamentalEstimate(b1, phi1, fs)
        extension_map = _entry(raw, "extension_map", list, top)
        if len(extension_map) != 2 or not all(type(n) is int and n >= 0 for n in extension_map):
            raise ValueError(f"{top}'s 'extension_map' is not two sample counts")
        return cls(
            r=_entry(raw, "r", int, top),
            harmonics=harmonics,
            fundamental=f,
            extension_map=tuple(extension_map),
        )


_NUMBER = (int, float)
_REQUIRED = object()


def _entry(obj, key: str, kinds, where: str, default=_REQUIRED):
    """obj[key], or default where obj lacks the key and a default is given.
    ValueError naming the key and where it sits if obj is not a JSON object,
    lacks a required key, or holds a value of none of the types kinds (a
    boolean is not a number)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{where} lacks {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
        raise ValueError(f"{where}'s {key!r} has the wrong type ({type(value).__name__})")
    return value


def _finite(obj, key: str, where: str, kinds=_NUMBER) -> np.ndarray:
    """obj[key] (see _entry), a number or a list, as a float array; refused
    unless all of it is finite numbers (Python's json reads NaN, Infinity
    and integers too large for a double)."""
    value = _entry(obj, key, kinds, where)
    try:
        value = np.array(value, dtype=float)
    except (ValueError, TypeError, OverflowError):
        value = np.nan
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{where}'s {key!r} holds a non-finite or non-numeric value")
    return value


def demodulate(x: RealSignal, fund: FundamentalEstimate) -> RealSignal:
    """Divide out the fundamental amplitude (guarded against underflow)."""
    if len(x) != fund.B1.size:
        raise ValueError("signal and fundamental estimate lengths differ")
    guard = max(1e-3 * float(fund.B1.max()), np.finfo(float).eps * float(np.linalg.norm(x.samples)))
    return x.with_samples(x.samples / np.maximum(fund.B1, guard))


def remodulate(x_demod_hat: RealSignal, fund: FundamentalEstimate) -> RealSignal:
    """Multiply by the fundamental amplitude; inverse of demodulate away from the guard."""
    if len(x_demod_hat) != fund.B1.size:
        raise ValueError("signal and fundamental estimate lengths differ")
    return x_demod_hat.with_samples(x_demod_hat.samples * fund.B1)


class HarmonicTerms(NamedTuple):
    """One harmonic evaluated along a phase track: its carriers and its HAF."""

    cos_a: np.ndarray       # cos(2 pi e phi1)
    sin_a: np.ndarray       # sin(2 pi e phi1)
    theta: np.ndarray       # cos_a + c * sin_a
    curve: Curve            # the HAF curve at the sample times


def harmonic_terms(model: WaveShapeModel, phi1: np.ndarray, t: np.ndarray) -> list[HarmonicTerms]:
    """Each harmonic's carriers and HAF curve along phi1 at the sample times t."""
    terms = []
    for h in model.harmonics:
        arg = 2 * np.pi * h.e * phi1
        cos_a, sin_a = np.cos(arg), np.sin(arg)
        curve = pchip_curve(h.nodes.times, h.nodes.amps, t)
        terms.append(HarmonicTerms(cos_a, sin_a, cos_a + h.c * sin_a, curve))
    return terms


def synthesize(
    model: WaveShapeModel,
    phi1: np.ndarray,
    t: np.ndarray,
    knot_step: float | None = None,
    terms: list[HarmonicTerms] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Model values along the phase track phi1 at the sample times t.

    With knot_step, also returns J = d values / d model.flatten(): node
    amplitude, quadrature and phase-ratio columns are analytic, free node
    times are central differences with step knot_step, evaluated on the
    four intervals a node moves (see pchip.knot_differences). Otherwise J
    is None. terms, if given, are `harmonic_terms(model, phi1, t)` from an
    earlier call: each harmonic is then not evaluated again, and the
    result is the same bit for bit.
    """
    if terms is None:
        terms = harmonic_terms(model, phi1, t)
    out = np.cos(2 * np.pi * phi1)
    if knot_step is not None:
        slots, size = model.coefficient_layout()
        samples = np.arange(phi1.size)
    # column-major, the layout numpy gives a column subset J[:, mask]: the
    # fitter's normal equations (J^T r, J^T J) then round the same way whether
    # it uses all of J in place or a subset of frozen-node columns
    J = None if knot_step is None else np.zeros((phi1.size, size), order="F")
    for k, (h, (cos_a, sin_a, theta, curve)) in enumerate(zip(model.harmonics, terms)):
        haf = curve.values
        if J is not None:
            s = slots[k]
            rows, cols, dhaf = knot_differences(curve, s.nodes, knot_step)
            J[rows, s.times.start + cols] = dhaf * theta[rows]
            first, band = amp_band(curve)
            for b, col in enumerate(band):
                J[samples, s.amps.start + first + b] = col * theta
            J[:, s.c] = haf * sin_a                                         # d/dc
            J[:, s.c + 1] = haf * 2 * np.pi * phi1 * (-sin_a + h.c * cos_a)  # d/de
        out = out + haf * theta
    return out, J


def evaluate_model(model: WaveShapeModel, phi1: np.ndarray, t0: float | None = None) -> RealSignal:
    """Synthesize the demodulated wave-shape model along a phase track.

    phi1 is sampled at the rate of the model's fundamental reference,
    starting at time t0. None starts at the first node time, the grid the
    node spans cover, and a model without harmonics, which has no nodes,
    at 0.
    """
    if model.fundamental is None:
        raise ValueError("model has no fundamental reference to take its sampling rate from")
    phi1 = np.asarray(phi1, dtype=float)
    fs = model.fundamental.fs
    if t0 is None:
        t0 = model.harmonics[0].nodes.times[0] if model.harmonics else 0.0
    t = t0 + np.arange(phi1.size) / fs
    return RealSignal(synthesize(model, phi1, t)[0], fs=fs, t0=float(t0))
