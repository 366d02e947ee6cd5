"""Reference computations the tests compare the package against."""

from dataclasses import replace

import numpy as np

from tvshape.pchip import _check_nodes, _slope_rules
from tvshape.stft import noise_sigma_estimate, stft


def fd_jacobian(gamma, ctx):
    """Full central-difference jacobian of the fit residual at gamma, every
    coefficient differenced on its own: node times at a tenth of the node
    gap, the others at 1e-7 of their magnitude (at least 1e-7)."""
    is_time = np.zeros(gamma.size, dtype=bool)
    for s in ctx.template.coefficient_layout()[0]:
        is_time[s.times] = True
    J = np.empty((ctx.target.size, gamma.size))
    for i in range(gamma.size):
        h = ctx.min_node_gap / 10.0 if is_time[i] else 1e-7 * max(1.0, abs(gamma[i]))
        gp, gm = gamma.copy(), gamma.copy()
        gp[i] += h
        gm[i] -= h
        J[:, i] = ((ctx.target - ctx.synthesize(gp)[0]) - (ctx.target - ctx.synthesize(gm)[0])) / (2 * h)
    return J


def gathered_band_sums(values, lo, hi, n_freq):
    """Each row's sum of values over bins [lo, hi) of n_freq, weight 2 but
    1 at DC and Nyquist, with every row of one band width gathered in a
    single (rows, width) copy."""
    out = np.empty(values.shape[0], dtype=complex)
    width = hi - lo
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        bands = np.lib.stride_tricks.sliding_window_view(values, w, axis=1)
        out[rows] = 2.0 * bands[rows, lo[rows]].sum(axis=1)
    dc, nyquist = lo == 0, hi == n_freq
    out[dc] -= values[dc, 0]
    out[nyquist] -= values[nyquist, -1]
    return out


def pelt_costs(z, penalty):
    """F and last of the PELT change-in-mean recurrence, one step per sample:
    F[t] is the least penalized cost of z[:t] (F[0] = -penalty), last[t] the
    first candidate reaching it; a candidate is dropped once its total
    exceeds F[t] + penalty."""
    n = z.size
    s1 = np.concatenate([[0.0], np.cumsum(z)])
    s2 = np.concatenate([[0.0], np.cumsum(z * z)])

    def seg_cost(a, b):
        m = b - a
        return (s2[b] - s2[a]) - (s1[b] - s1[a]) ** 2 / m

    F = np.full(n + 1, np.inf)
    F[0] = -penalty
    last = np.zeros(n + 1, dtype=int)
    cand = np.array([0])
    for t in range(1, n + 1):
        total = F[cand] + seg_cost(cand, t) + penalty
        i = int(np.argmin(total))
        F[t] = total[i]
        last[t] = cand[i]
        keep = total <= F[t] + penalty
        cand = np.append(cand[keep], t)
    return F, last


def _cubic_at(arr, j):
    b = int(np.floor(j))
    f = j - b
    p0, p1, p2, p3 = arr[b - 1], arr[b], arr[b + 1], arr[b + 2]
    return p1 + 0.5 * f * (
        p2 - p0 + f * (2 * p0 - 5 * p1 + 4 * p2 - p3 + f * (3 * (p1 - p2) + p3 - p0))
    )


def seasonal_ar_forecast(w, season, n_ahead, order=4):
    """Seasonal-AR forecast of the tail window w, each step interpolating
    one season back in a fresh copy of the newest ceil(season) + 3 samples."""
    m = w.size
    start = int(np.ceil(season)) + 1
    z = np.array([w[t] - _cubic_at(w, t - season) for t in range(start, m)])
    if z.size <= order:
        order = max(1, z.size - 1)
    rows = np.array([z[i - order : i][::-1] for i in range(order, z.size)])
    A = rows.T @ rows + 1e-8 * np.eye(order)
    coef = np.linalg.solve(A, rows.T @ z[order:])
    s = np.sum(np.abs(coef))
    if s > 0.98:
        coef *= 0.98 / s
    hist = list(z[-order:])
    xs = list(w)
    tail_len = int(np.ceil(season)) + 3
    bound = 3.0 * np.max(np.abs(w))
    out = np.empty(n_ahead)
    for i in range(n_ahead):
        z_next = float(np.dot(coef, hist[::-1]))
        tail = np.asarray(xs[-tail_len:])
        x_next = _cubic_at(tail, tail.size - season) + z_next
        x_next = float(np.clip(x_next, -bound, bound))
        out[i] = x_next
        xs.append(x_next)
        tail = np.asarray(xs[-tail_len:])
        hist.append(xs[-1] - _cubic_at(tail, tail.size - 1 - season))
        hist.pop(0)
    return out


def pchip_slopes(times, amps):
    """Node slopes of the shape-preserving cubic through (times, amps)."""
    times, amps = _check_nodes(times, amps)
    h = np.diff(times)
    return _slope_rules(h, np.diff(amps) / h)[0]


def full_band_resynthesis(spec):
    """Real signal from every one-sided bin of spec, the exact inverse of
    stft: weight 2 on interior bins and 1 at DC and Nyquist, over nfft."""
    values = spec.bins(0, spec.freq_axis.size)
    w = np.full(values.shape[1], 2.0)
    w[0] = w[-1] = 1.0
    return (values @ w).real / spec.nfft


def threshold_denoise_mode(x, sigma, mode):
    """One STFT-thresholding baseline on its own: the spectrogram, the
    threshold eta = 3*sqrt(2)*sigma_hat*||g||_2, the `mode` ("hard" or
    "soft") thresholded copy of the spectrogram and its full-band
    resynthesis."""
    spec = stft(x, sigma)
    eta = 3.0 * np.sqrt(2.0) * noise_sigma_estimate(spec) * np.linalg.norm(spec.window)
    mag = np.abs(spec.values)
    if mode == "hard":
        values = np.where(mag < eta, 0.0, spec.values)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(mag > 0, np.maximum(mag - eta, 0.0) / np.where(mag > 0, mag, 1.0), 0.0)
        values = spec.values * scale
    return x.with_samples(full_band_resynthesis(replace(spec, values=values)))


def unfolded_transform(samples, g, nfft):
    """Every bin of every frame's windowed FFT on an nfft-point grid that
    holds the whole window (nfft >= g.size), built on its own: tap m of a
    frame at index m mod nfft, no two taps on one index, then one rfft."""
    half = g.size // 2
    assert nfft >= g.size
    padded = np.concatenate([np.zeros(half), samples, np.zeros(half)])
    frames = np.lib.stride_tricks.sliding_window_view(padded, g.size) * g
    buf = np.zeros((samples.size, nfft))
    buf[:, np.arange(-half, half + 1) % nfft] = frames
    return np.fft.rfft(buf, axis=1)
