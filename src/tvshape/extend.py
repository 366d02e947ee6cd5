"""Forecast-based boundary extension and trimming.

A seasonal autoregression (AR on the lag-`cycle` seasonal difference,
fitted by least squares on the last 3 cycles) continues the record
forward; the time-reversed record gets the same treatment for the
backward direction. Outputs are later trimmed back to the original
support, so the extension only has to keep the oscillatory pattern alive
near the edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import acf
from .signals import RealSignal

MIN_LAG = 4             # shortest period in samples the autocorrelation peak search considers
EXTENSION_FACTOR = 0.1  # forecast samples added per side, as a fraction of the record


@dataclass
class ExtensionResult:
    extended: RealSignal
    n_pre: int
    n_post: int

    @property
    def core(self) -> slice:
        """Samples of the extended record that hold the original one."""
        return slice(self.n_pre, len(self.extended) - self.n_post)


def estimate_cycle_len(x: RealSignal) -> int:
    """Dominant oscillation period in samples from the autocorrelation peak."""
    return int(round(fractional_cycle_len(x)))


def fractional_cycle_len(x: RealSignal) -> float:
    """Autocorrelation-peak period with parabolic sub-sample refinement."""
    n = len(x)
    r = acf(x.samples, max_lag=n // 2)
    if r.size <= MIN_LAG + 1:
        raise ValueError("record too short to locate an oscillation period")
    seg = r[MIN_LAG:]
    # first local maximum that is an actual peak, else the global one
    candidates = np.where((seg[1:-1] > seg[:-2]) & (seg[1:-1] >= seg[2:]))[0]
    if candidates.size:
        best = candidates[np.argmax(seg[candidates + 1])] + 1
    else:
        best = int(np.argmax(seg))
    k = best + MIN_LAG
    if 0 < k < r.size - 1:
        denom = r[k - 1] - 2 * r[k] + r[k + 1]
        if denom < 0:
            k = k + 0.5 * (r[k - 1] - r[k + 1]) / denom
    return float(k)


def _cubic_at(arr: np.ndarray, j: float) -> float:
    """Catmull-Rom interpolation of arr at fractional index j."""
    b = int(np.floor(j))
    return _catmull_rom(arr, b, j - b)


def _catmull_rom(arr, b: int, f: float) -> float:
    """Catmull-Rom interpolation of arr between arr[b] and arr[b + 1], at
    fraction f of the way; b may count from the end."""
    p0, p1, p2, p3 = arr[b - 1], arr[b], arr[b + 1], arr[b + 2]
    return p1 + 0.5 * f * (
        p2 - p0 + f * (2 * p0 - 5 * p1 + 4 * p2 - p3 + f * (3 * (p1 - p2) + p3 - p0))
    )


def _seasonal_ar_forecast(w: np.ndarray, season: float, n_ahead: int, order: int = 4) -> np.ndarray:
    """Forecast n_ahead samples from the tail window w (3 seasons long).

    Seasonal differencing supports a fractional period (the value one
    season back is interpolated); an integer season reduces to the plain
    lagged difference.
    """
    m = w.size
    start = int(np.ceil(season)) + 1
    z = np.array([w[t] - _cubic_at(w, t - season) for t in range(start, m)])
    if z.size <= order:
        order = max(1, z.size - 1)
    rows = np.array([z[i - order : i][::-1] for i in range(order, z.size)])
    targets = z[order:]
    # small ridge keeps the fit tame when the seasonal difference is tiny
    A = rows.T @ rows + 1e-8 * np.eye(order)
    coef = np.linalg.solve(A, rows.T @ targets)
    s = np.sum(np.abs(coef))
    if s > 0.98:  # enforce a stable recursion; forecasts must not blow up
        coef *= 0.98 / s
    hist = list(z[-order:])
    xs = list(w)
    # one season before the next sample, counted from the end of xs: the
    # point and fraction of a tail_len-sample tail, the same at every step.
    # Once appended, the sample's seasonal difference is taken against that
    # same value (same four samples, same fraction), so it is reused.
    tail_len = int(np.ceil(season)) + 3
    j = tail_len - season
    b = int(np.floor(j))
    f = j - b
    bound = 3.0 * np.max(np.abs(w))
    out = np.empty(n_ahead)
    for i in range(n_ahead):
        z_next = float(np.dot(coef, hist[::-1]))
        back = _catmull_rom(xs, b - tail_len, f)
        x_next = float(np.clip(back + z_next, -bound, bound))
        out[i] = x_next
        xs.append(x_next)
        hist.append(x_next - back)
        hist.pop(0)
    return out


def extend_boundaries(x: RealSignal, cycle_len: float, cycle_len_back: float) -> ExtensionResult:
    """Extend the record by ceil(EXTENSION_FACTOR*N) forecast samples on each side.

    The forward forecaster is fitted on the last 3 cycles of length
    cycle_len; the backward extension applies the same procedure to the
    time-reversed record with cycle_len_back, since the local period can
    differ between the two edges. Fractional cycle lengths are honored by
    the forecaster. The central segment of the result equals the input
    exactly.
    """
    n = len(x)
    for c in (cycle_len, cycle_len_back):
        if c < 4:
            raise ValueError("cycle length must be at least 4 samples")
        if 3 * c > n:
            raise ValueError("record holds fewer than 3 cycles; cannot fit the forecaster")
    n_p = int(np.ceil(EXTENSION_FACTOR * n))
    w_fwd = int(np.ceil(3 * cycle_len))
    w_bwd = int(np.ceil(3 * cycle_len_back))
    fwd = _seasonal_ar_forecast(x.samples[-w_fwd:], cycle_len, n_p)
    bwd = _seasonal_ar_forecast(x.samples[:w_bwd][::-1], cycle_len_back, n_p)[::-1]
    samples = np.concatenate([bwd, x.samples, fwd])
    extended = RealSignal(samples, fs=x.fs, t0=x.t0 - n_p / x.fs)
    return ExtensionResult(extended=extended, n_pre=n_p, n_post=n_p)


def trim(y: RealSignal, ext: ExtensionResult) -> RealSignal:
    """Central original-support samples of an extended-length signal."""
    if len(y) != len(ext.extended):
        raise ValueError(
            f"signal length {len(y)} does not match extended length {len(ext.extended)}"
        )
    return RealSignal(y.samples[ext.core], fs=y.fs, t0=y.t0 + ext.n_pre / y.fs)
