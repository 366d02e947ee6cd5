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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .pchip import pchip_eval, pchip_eval_with_amp_jacobian, pchip_knot_differences
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

    def evaluate(self, query_times: np.ndarray) -> np.ndarray:
        """Shape-preserving cubic through the nodes at the query times."""
        return pchip_eval(self.times, self.amps, query_times)


@dataclass
class HarmonicModel:
    """One harmonic: phase ratio, quadrature coefficient, HAF nodes."""

    e: float
    c: float
    nodes: HafNodes
    degenerate: bool = False   # warm start found no energy at this harmonic

    def copy(self) -> "HarmonicModel":
        return HarmonicModel(self.e, self.c, self.nodes.copy(), self.degenerate)


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
    def free_time_slice(self, harmonic: HarmonicModel) -> slice:
        """Indices of this harmonic's nodes whose times are free."""
        j = len(harmonic.nodes)
        if self.extension_map[0] > 0 or self.extension_map[1] > 0:
            if j < 4:
                raise ValueError(
                    f"harmonic l={round(harmonic.e)} has {j} nodes; a boundary-extended model "
                    "needs at least 4 (record and original-record edges are fixed)"
                )
            return slice(2, j - 2)
        return slice(1, j - 1)

    def flatten(self) -> np.ndarray:
        """Coefficient vector: per harmonic [inner times, all amps, c, e]."""
        parts = []
        for h in self.harmonics:
            parts.append(h.nodes.times[self.free_time_slice(h)])
            parts.append(h.nodes.amps)
            parts.append([h.c, h.e])
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def unflatten(self, gamma: np.ndarray) -> "WaveShapeModel":
        """Rebuild a model with the same structure from a coefficient vector."""
        out = self.copy()
        pos = 0
        for h in out.harmonics:
            sl = self.free_time_slice(h)
            k = sl.stop - sl.start
            h.nodes.times[sl] = gamma[pos : pos + k]
            pos += k
            j = len(h.nodes)
            h.nodes.amps[:] = gamma[pos : pos + j]
            pos += j
            h.c = float(gamma[pos])
            h.e = float(gamma[pos + 1])
            pos += 2
        if pos != gamma.size:
            raise ValueError(f"coefficient vector has {gamma.size} entries, expected {pos}")
        return out

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        f = self.fundamental
        return json.dumps(
            {
                "r": self.r,
                "harmonics": [
                    {
                        "e": h.e,
                        "c": h.c,
                        "degenerate": h.degenerate,
                        "nodes": [
                            {"t": float(t), "a": float(a)}
                            for t, a in zip(h.nodes.times, h.nodes.amps)
                        ],
                    }
                    for h in self.harmonics
                ],
                "extension_map": list(self.extension_map),
                "fundamental": None if f is None else {
                    "B1": f.B1.tolist(), "phi1": f.phi1.tolist(), "fs": float(f.fs)
                },
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "WaveShapeModel":
        """Inverse of to_json; files without the fundamental or the degenerate
        flags (written before they were saved) load with None and False."""
        raw = json.loads(text)
        harmonics = [
            HarmonicModel(
                e=float(h["e"]),
                c=float(h["c"]),
                nodes=HafNodes(
                    np.array([n["t"] for n in h["nodes"]]),
                    np.array([n["a"] for n in h["nodes"]]),
                ),
                degenerate=bool(h.get("degenerate", False)),
            )
            for h in raw["harmonics"]
        ]
        f = raw.get("fundamental")
        if f is not None:
            f = FundamentalEstimate(
                np.array(f["B1"], dtype=float), np.array(f["phi1"], dtype=float), float(f["fs"])
            )
        return cls(
            r=int(raw["r"]),
            harmonics=harmonics,
            fundamental=f,
            extension_map=tuple(raw["extension_map"]),
        )


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


def synthesize(
    model: WaveShapeModel,
    phi1: np.ndarray,
    t: np.ndarray,
    knot_step: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Model values along the phase track phi1 at the sample times t.

    With knot_step, also returns J = d values / d model.flatten(): node
    amplitude, quadrature and phase-ratio columns are analytic, free node
    times are central differences with step knot_step, evaluated on the
    four intervals a node moves (see pchip_knot_differences). Otherwise J
    is None.
    """
    out = np.cos(2 * np.pi * phi1)
    # column-major, the layout numpy gives a column subset J[:, mask]: the
    # fitter's normal equations (J^T r, J^T J) then round the same way whether
    # it uses all of J in place or a subset of frozen-node columns
    J = None if knot_step is None else np.zeros((phi1.size, model.flatten().size), order="F")
    pos = 0
    for h in model.harmonics:
        arg = 2 * np.pi * h.e * phi1
        cos_a, sin_a = np.cos(arg), np.sin(arg)
        theta = cos_a + h.c * sin_a
        if J is None:
            haf = pchip_eval(h.nodes.times, h.nodes.amps, t)
        else:
            haf, W = pchip_eval_with_amp_jacobian(h.nodes.times, h.nodes.amps, t)
            sl = model.free_time_slice(h)
            rows, cols, dhaf = pchip_knot_differences(
                h.nodes.times, h.nodes.amps, t, np.arange(sl.start, sl.stop), knot_step
            )
            J[rows, pos + cols] = dhaf * theta[rows]
            pos += sl.stop - sl.start
            n_a = len(h.nodes)
            np.multiply(W, theta[:, None], out=J[:, pos : pos + n_a])
            pos += n_a
            J[:, pos] = haf * sin_a                                         # d/dc
            J[:, pos + 1] = haf * 2 * np.pi * phi1 * (-sin_a + h.c * cos_a)  # d/de
            pos += 2
        out = out + haf * theta
    return out, J


def evaluate_model(
    model: WaveShapeModel,
    phi1: np.ndarray,
    fs: float | None = None,
    t0: float | None = None,
) -> RealSignal:
    """Synthesize the demodulated wave-shape model along a phase track.

    phi1 must be sampled on the same grid the node spans cover; fs/t0
    default to the model's fundamental reference and node span start.
    """
    phi1 = np.asarray(phi1, dtype=float)
    if fs is None:
        if model.fundamental is None:
            raise ValueError("model has no fundamental reference; pass fs explicitly")
        fs = model.fundamental.fs
    if t0 is None:
        t0 = model.harmonics[0].nodes.times[0] if model.harmonics else 0.0
    t = t0 + np.arange(phi1.size) / fs
    return RealSignal(synthesize(model, phi1, t)[0], fs=fs, t0=float(t0))
