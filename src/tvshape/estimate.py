"""Model-order, node-count, and warm-start estimation."""

from __future__ import annotations

import warnings

import numpy as np

from .model import HafNodes, HarmonicModel, WaveShapeModel
from .signals import RealSignal
from .stft import FundamentalEstimate, mean_frequency

ENERGY_FRACTION = 0.9   # share of the envelope's spectral energy the node budget resolves


def estimate_node_count(
    harmonic_complex: np.ndarray,
    fs: float,
    max_nodes: int | None = None,
) -> int:
    """Node budget for one harmonic amplitude function.

    The envelope |y_l(t)| is treated as a band-limited signal: its
    one-sided spectral energy is accumulated until it reaches
    ENERGY_FRACTION, giving a bandwidth in cycles over the record, and the
    node count is 2*bandwidth + 1 (sampling-theorem rate), clamped to
    [2, max_nodes].
    """
    env = np.abs(np.asarray(harmonic_complex))
    if env.size < 2 or not np.any(env > 0):
        raise ValueError("harmonic estimate is empty or all-zero")
    spectrum = np.abs(np.fft.rfft(env)) ** 2
    # fold the two-sided spectrum: interior bins carry both +-f
    weights = np.full(spectrum.size, 2.0)
    weights[0] = 1.0
    if env.size % 2 == 0:
        weights[-1] = 1.0
    energy = spectrum * weights
    cse = np.cumsum(energy) / energy.sum()
    k = int(np.searchsorted(cse, ENERGY_FRACTION))
    duration = env.size / fs
    bw_hz = k * (fs / env.size)
    count = int(np.ceil(2.0 * bw_hz * duration)) + 1
    if max_nodes is not None:
        count = min(count, max_nodes)
    return max(count, 2)


def harmonic_design(phi1: np.ndarray, orders) -> np.ndarray:
    """Columns cos(2*pi*l*phi1), sin(2*pi*l*phi1) for each l in orders."""
    cols = []
    for ell in orders:
        arg = 2 * np.pi * ell * phi1
        cols.append(np.cos(arg))
        cols.append(np.sin(arg))
    return np.stack(cols, axis=1)


def rss_order_criterion(n: int, rss: float, r: int, energy: float) -> float:
    """Penalized residual criterion: n*ln(rss/n) + 2r*ln(n).

    rss is floored at a round-off fraction of the signal energy so exact
    fits do not reward extra orders through log-of-zero artifacts.
    """
    rss = max(rss, 1e-20 * energy)
    return n * np.log(rss / n) + 2 * r * np.log(n)


def estimate_order(x_demod: RealSignal, phi1: np.ndarray, r_max: int) -> int:
    """Harmonic count selected by penalized fixed-shape regression.

    For each candidate r the fixed-shape linear model (cos/sin columns at
    integer multiples of phi1) is least-squares fitted and
    rss_order_criterion scored on its residual sum of squares; the arg-min
    r is returned. r_max drops below Nyquist's limit and below the first r
    whose design is rank-deficient, with a warning each.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    phi1 = np.asarray(phi1, dtype=float)
    nyquist_r = int(np.floor(0.5 * x_demod.fs / mean_frequency(phi1, x_demod.fs)))
    if nyquist_r < r_max:
        warnings.warn(
            f"r_max reduced from {r_max} to {nyquist_r}: harmonics would cross Nyquist",
            stacklevel=2,
        )
        r_max = max(1, nyquist_r)

    design = harmonic_design(phi1, range(1, r_max + 1))
    y = x_demod.samples
    n, energy = y.size, float(np.sum(y**2))
    best_r, best_score = 1, np.inf
    for r in range(1, r_max + 1):
        cols = design[:, : 2 * r]
        coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        # ill-conditioned high orders: the prefixes are nested, so every one
        # past the first rank-deficient prefix is rank-deficient too
        if r > 1 and rank < 2 * r:
            warnings.warn(f"design matrix rank-deficient at r={r}; reducing to r_max={r - 1}", stacklevel=2)
            break
        rss = float(np.sum((y - cols @ coef) ** 2))
        score = rss_order_criterion(n, rss, r, energy)
        if score < best_score:
            best_r, best_score = r, score
    return best_r


def warm_start(
    x_demod: RealSignal,
    phi1: np.ndarray,
    r: int,
    node_counts: list[int],
    extension: tuple[int, int],
    fundamental: FundamentalEstimate,
) -> WaveShapeModel:
    """Initial model from the fixed-shape linear regression.

    The harmonic part of the demodulated signal (x_demod minus the unit
    fundamental cosine) is regressed onto cos/sin columns at integer
    multiples of phi1. Every node amplitude of harmonic l starts at the
    cosine coefficient, c_l at the sine/cosine ratio, e_l at l; node times
    are an equidistant grid over the record, plus fixed nodes at the
    original-record edges when a boundary extension is present.

    node_counts lists the inner grid size per harmonic l = 2..r; extension
    is (n_pre, n_post) in samples; the model keeps fundamental as the
    reference it resynthesizes on.
    """
    if len(node_counts) != r - 1:
        raise ValueError("need one node count per harmonic l = 2..r")
    if any(c < 2 for c in node_counts):
        raise ValueError("node counts must be >= 2")
    phi1 = np.asarray(phi1, dtype=float)
    n_pre, n_post = extension
    fs = x_demod.fs
    t_start = x_demod.t0
    t_end = x_demod.t0 + (len(x_demod) - 1) / fs

    resid = x_demod.samples - np.cos(2 * np.pi * phi1)
    harmonics = []
    if r >= 2:
        design = harmonic_design(phi1, range(2, r + 1))
        coef, *_ = np.linalg.lstsq(design, resid, rcond=None)
        for i, ell in enumerate(range(2, r + 1)):
            a_hat, b_hat = float(coef[2 * i]), float(coef[2 * i + 1])
            degenerate = abs(a_hat) < 1e-12
            c_hat = 0.0 if degenerate else b_hat / a_hat
            inner = node_counts[i]
            if n_pre > 0 or n_post > 0:
                grid = np.linspace(t_start + n_pre / fs, t_end - n_post / fs, inner)
                times = np.concatenate([[t_start], grid, [t_end]])
            else:
                times = np.linspace(t_start, t_end, inner)
            nodes = HafNodes(times, np.full(times.size, a_hat))
            harmonics.append(HarmonicModel(e=float(ell), c=c_hat, nodes=nodes, degenerate=degenerate))
    return WaveShapeModel(
        r=r,
        harmonics=harmonics,
        fundamental=fundamental,
        extension_map=(n_pre, n_post),
    )
