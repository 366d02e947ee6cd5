"""Shape-preserving cubic Hermite interpolation on free nodes.

Node slopes follow the classic monotone rules: interior slopes are zero
whenever the adjacent secants disagree in sign (or vanish), otherwise a
spacing-weighted harmonic mean of the secants; edge slopes use the
one-sided three-point estimate with shape-preserving clipping. The curve
is exact at the nodes, C1 everywhere, monotone wherever the node
amplitudes are monotone, and keeps local extrema at the nodes.

A curve is evaluated once (`pchip_curve`: node check, slopes, interval
search, Hermite weights), and three things read that evaluation: the
values; `amp_band`, the exact derivative of the curve with respect to the
node amplitudes (the slope rules are differentiable inside each branch,
and run again there for their derivative), which is nonzero only on the
four amplitudes a sample's interval reads; and `knot_differences`,
central differences in the node times. Moving one node changes at most
three slopes, so such a difference is nonzero only on the four intervals
around the node: the differences for all nodes of a curve are evaluated
there, in one batch over the perturbed node sets, and on the two outer
intervals the curve's own Hermite weights serve; they are bit for bit
those of two fresh evaluations of the moved curves.
`model.synthesize` builds the wave-shape model and its jacobian from these
three; `pchip_eval`, `pchip_eval_with_amp_jacobian` (a dense amplitude
jacobian) and `pchip_knot_differences` evaluate from the nodes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# (column, sample) pairs of knot differences evaluated at once: keeps each
# temporary at 64 kB whatever the record length (fresh large temporaries
# cost page faults on every call)
_PAIR_BLOCK = 8192

# first and last node: index of the outermost interval and of its neighbour
_EDGE_OUTER, _EDGE_INNER = np.array([0, -1]), np.array([1, -2])


def _check_nodes(times: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amps, dtype=float)
    if times.ndim != 1 or times.shape != amps.shape:
        raise ValueError("node times and amplitudes must be 1-d arrays of equal length")
    if times.size < 2:
        raise ValueError("need at least 2 nodes")
    if np.any(np.diff(times) <= 0):
        raise ValueError("node times must be strictly increasing (no duplicates)")
    return times, amps


def pchip_slopes(times: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Node slopes of the shape-preserving cubic through (times, amps)."""
    d, _ = _slopes_and_jacobian(*_check_nodes(times, amps), want_jac=False)
    return d


def _slope_rules(h, m, want_jac=False):
    """Node slopes from interval widths h and secants m along the last axis.

    Leading axes are independent node sets. With want_jac (1-d input
    only) also returns d slopes / d secants, shape (n, n - 1).
    """
    n = h.shape[-1] + 1
    d = np.zeros(h.shape[:-1] + (n,))
    if n == 2:
        d[...] = m
        return d, np.ones((2, 1)) if want_jac else None

    # interior: zero where the adjacent secants vanish or disagree in sign,
    # otherwise the spacing-weighted harmonic mean
    h0, h1, m0, m1 = h[..., :-1], h[..., 1:], m[..., :-1], m[..., 1:]
    w1 = 2 * h1 + h0
    w2 = h1 + 2 * h0
    live = np.sign(m0) * np.sign(m1) > 0
    denom = w1 * m1 + w2 * m0
    np.divide((w1 + w2) * m0 * m1, denom, out=d[..., 1:-1], where=live)

    # edges: one-sided three-point estimate from the two nearest intervals
    eh0, eh1 = h[..., _EDGE_OUTER], h[..., _EDGE_INNER]
    em0, em1 = m[..., _EDGE_OUTER], m[..., _EDGE_INNER]
    est = ((2 * eh0 + eh1) * em0 - eh0 * em1) / (eh0 + eh1)
    # em0 == 0 is the tie point of the clipping rules: directional
    # derivatives disagree, so stay on the flat branch (matches the
    # interior zero-slope rule)
    s0 = np.sign(em0)
    flat = (em0 == 0.0) | (np.sign(est) != s0)
    clip = (s0 != np.sign(em1)) & (np.abs(est) > 3.0 * np.abs(em0))    # unless flat
    d[..., :: n - 1] = np.where(flat, 0.0, np.where(clip, 3.0 * em0, est))
    if not want_jac:
        return d, None

    # float_power squares through the C library's pow one element at a
    # time, as the scalar rules do, so fits stay bit-reproducible; x * x and
    # np.power's SIMD kernels round differently in the last bit for some x
    dd_dm = np.zeros((n, n - 1))
    k = np.arange(1, n - 1)
    den2 = np.float_power(denom, 2)
    dd_dm[k, k - 1] = np.divide((w1 + w2) * w1 * np.float_power(m1, 2), den2, out=np.zeros(n - 2), where=live)
    dd_dm[k, k] = np.divide((w1 + w2) * w2 * np.float_power(m0, 2), den2, out=np.zeros(n - 2), where=live)
    de_dm0 = np.where(flat, 0.0, np.where(clip, 3.0, (2 * eh0 + eh1) / (eh0 + eh1)))
    de_dm1 = np.where(flat | clip, 0.0, -eh0 / (eh0 + eh1))
    dd_dm[0, 0], dd_dm[0, 1] = de_dm0[0], de_dm1[0]
    dd_dm[-1, -1], dd_dm[-1, -2] = de_dm0[1], de_dm1[1]
    return d, dd_dm


def _slopes_and_jacobian(times, amps, want_jac=True):
    """Slopes and d slopes / d amps of nodes that passed _check_nodes."""
    n = times.size
    h = np.diff(times)
    d, dd_dm = _slope_rules(h, np.diff(amps) / h, want_jac)
    if not want_jac:
        return d, None
    # chain secants back to amplitudes: m_j = (y_{j+1} - y_j)/h_j
    dm_dy = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    dm_dy[idx, idx] = -1.0 / h
    dm_dy[idx, idx + 1] = 1.0 / h
    return d, dd_dm @ dm_dy


def _locate(times: np.ndarray, query: np.ndarray) -> np.ndarray:
    span = times[-1] - times[0]
    tol = 1e-9 * max(span, 1.0)
    if np.any(query < times[0] - tol) or np.any(query > times[-1] + tol):
        raise ValueError("query times outside the node span")
    j = np.searchsorted(times, query, side="right") - 1
    return np.clip(j, 0, times.size - 2)


def _hermite(t0, t1, y0, y1, d0, d1, query):
    """Cubic Hermite values on intervals [t0, t1] at the query times.

    Returns (values, weights), the weights being those of (y0, d0, y1, d1).
    """
    h = t1 - t0
    s = (query - t0) / h
    s2 = s * s
    s3 = s2 * s
    w = (
        2 * s3 - 3 * s2 + 1,       # left amplitude
        h * (s3 - 2 * s2 + s),     # left slope
        -2 * s3 + 3 * s2,          # right amplitude
        h * (s3 - s2),             # right slope
    )
    return w[0] * y0 + w[1] * d0 + w[2] * y1 + w[3] * d1, w


class Curve(NamedTuple):
    """The curve through one node set, evaluated once at the query times.

    Holds what the values, the amplitude band (`amp_band`) and the knot
    differences (`knot_differences`) all read, so that each is computed
    once: the checked nodes, each query time's interval and its Hermite
    weights.
    """

    times: np.ndarray
    amps: np.ndarray
    query: np.ndarray
    j: np.ndarray           # interval of each query time
    w: tuple                # Hermite weights of (y0, d0, y1, d1) at each query time
    values: np.ndarray


def pchip_curve(times: np.ndarray, amps: np.ndarray, query: np.ndarray) -> Curve:
    """Check the nodes, then evaluate the curve at the query times."""
    times, amps = _check_nodes(times, amps)
    query = np.asarray(query, dtype=float)
    d, _ = _slopes_and_jacobian(times, amps, want_jac=False)
    j = _locate(times, query)
    vals, w = _hermite(times[j], times[j + 1], amps[j], amps[j + 1], d[j], d[j + 1], query)
    return Curve(times, amps, query, j, w, vals)


def pchip_eval(times: np.ndarray, amps: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Evaluate the shape-preserving cubic at the query times."""
    return pchip_curve(times, amps, query).values


def amp_band(curve: Curve) -> tuple[np.ndarray, list[np.ndarray]]:
    """d(curve)/d(amplitudes) on the amplitudes each query time reads.

    A slope reads the amplitudes of its node and its neighbours (an edge
    slope those of the three outermost nodes), so a query time on interval
    j reads only the amplitudes j-1 .. j+2, shifted inside the node range.
    Returns (first, band): band[b] is the derivative in amplitude first + b
    at every query time; every other amplitude's derivative is zero. It is
    exact wherever the slope rules are differentiable (everywhere except
    the measure-zero branch switches of the monotonicity limiter).
    """
    times, j, w = curve.times, curve.j, curve.w
    # the slope rules run again here, for their jacobian: most curves come
    # from the fit's trial evaluations, which never need it
    _, dd_dy = _slopes_and_jacobian(times, curve.amps)
    n = times.size
    width = min(n, 4)
    k = np.arange(n - 1)
    start = np.clip(k - 1, 0, n - width)    # first band amplitude of each interval
    first = start[j]
    left = (k - start)[j]                   # band position of the interval's left amplitude
    band = []
    for b in range(width):
        # per-interval tables of d slopes / d amps, gathered per query time
        col = w[1] * dd_dy[k, start + b][j] + w[3] * dd_dy[k + 1, start + b][j]
        col += np.where(left == b, w[0], np.where(left == b - 1, w[2], 0.0))
        band.append(col)
    return first, band


def pchip_eval_with_amp_jacobian(times, amps, query):
    """Curve values plus d(curve)/d(amplitudes).

    Returns (values, W) with W of shape (len(query), len(times)), the band
    of `amp_band` with zeros elsewhere.
    """
    curve = pchip_curve(times, amps, query)
    first, band = amp_band(curve)
    W = np.zeros((curve.j.size, curve.times.size))
    rows = np.arange(curve.j.size)
    for b, col in enumerate(band):
        W[rows, first + b] = col
    return curve.values, W


def _runs(label, start, stop):
    """Positions start[k] .. stop[k] - 1 of every run k, run after run, and
    the label of the run each position belongs to."""
    count = stop - start
    at = np.repeat(label, count)
    return at, np.arange(at.size) + np.repeat(start - np.cumsum(count) + count, count)


def knot_differences(curve: Curve, nodes, dt):
    """`pchip_knot_differences` of an evaluated curve.

    On the outer intervals i-2 and i+1 of node i, the moved node is no
    interval end: the interval and the Hermite weights of a sample are the
    curve's own, and only the 4-term sums of the two moved slope sets are
    formed, in the same order as a full evaluation forms them. The inner
    intervals i-1 and i are evaluated afresh on each moved node set.
    """
    times, amps, query, j0, w = curve.times, curve.amps, curve.query, curve.j, curve.w
    nodes = np.asarray(nodes, dtype=int)
    if np.any((nodes < 1) | (nodes > times.size - 2)):
        raise ValueError("only interior node times can be differenced")
    n, n_col = times.size, nodes.size

    # plus and minus node sets of every column, in one batch of shape (2, n_col, n)
    t_i = times[nodes]
    moved = t_i + np.array([[dt], [-dt]])
    T = np.tile(times, (2, n_col, 1))
    T[:, np.arange(n_col), nodes] = moved
    H = np.diff(T, axis=-1)
    if np.any(H <= 0):
        raise ValueError("node times must be strictly increasing (no duplicates)")
    D = _slope_rules(H, np.diff(amps) / H)[0].ravel()
    T = T.ravel()
    minus = n_col * n                       # offset of the minus sets in the flat tables

    # the samples of interval k are order[first[k]] .. order[first[k + 1] - 1]
    order = np.argsort(j0, kind="stable")
    first = np.searchsorted(j0[order], np.arange(n))
    col = np.arange(n_col)
    left, right = nodes >= 2, nodes <= n - 3
    out_iv = np.concatenate([nodes[left] - 2, nodes[right] + 1])
    out_col, out_pos = _runs(np.concatenate([col[left], col[right]]), first[out_iv], first[out_iv + 1])
    in_col, in_pos = _runs(col, first[nodes - 1], first[nodes + 1])
    cols = np.concatenate([out_col, in_col])
    rows = order[np.concatenate([out_pos, in_pos])]

    vals = np.empty(cols.size)
    for a in range(0, out_col.size, _PAIR_BLOCK):
        s = slice(a, min(a + _PAIR_BLOCK, out_col.size))
        r = rows[s]
        jj = j0[r]
        f = cols[s] * n + jj                # flat index into the node-set tables
        w0, w1, w2, w3 = (x[r] for x in w)
        y0, y1 = w0 * amps[jj], w2 * amps[jj + 1]
        plus = y0 + w1 * D[f] + y1 + w3 * D[f + 1]
        f += minus
        vals[s] = (plus - (y0 + w1 * D[f] + y1 + w3 * D[f + 1])) / (2 * dt)

    def inner(side, c, jj, q):
        # the interval index changes only where node i crossed the sample
        jp = jj + (q >= moved[side, c]) - (q >= t_i[c])
        f = side * minus + c * n + jp
        return _hermite(T[f], T[f + 1], amps[jp], amps[jp + 1], D[f], D[f + 1], q)[0]

    for a in range(out_col.size, cols.size, _PAIR_BLOCK):
        s = slice(a, a + _PAIR_BLOCK)
        r = rows[s]
        pair = cols[s], j0[r], query[r]
        vals[s] = (inner(0, *pair) - inner(1, *pair)) / (2 * dt)
    return rows, cols, vals


def pchip_knot_differences(times, amps, query, nodes, dt):
    """Central differences of the curve in the times of interior nodes.

    Column k of the (len(query), len(nodes)) difference matrix D is
    (pchip_eval(tp, amps, query) - pchip_eval(tm, amps, query)) / (2 dt),
    where tp and tm are times with node i = nodes[k] moved by +dt and -dt.
    Moving node i changes the slopes of nodes i-1..i+1 and an edge slope
    that reads node i, so the two curves differ only on the intervals
    between nodes i-2 and i+2. Only the samples there are evaluated:
    returns (rows, cols, values), the entries of D on those supports, each
    bit for bit as above; D is exactly zero everywhere else.
    """
    return knot_differences(pchip_curve(times, amps, query), nodes, dt)
