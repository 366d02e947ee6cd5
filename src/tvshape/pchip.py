"""Shape-preserving cubic Hermite interpolation on free nodes.

Node slopes follow the classic monotone rules: interior slopes are zero
whenever the adjacent secants disagree in sign (or vanish), otherwise a
spacing-weighted harmonic mean of the secants; edge slopes use the
one-sided three-point estimate with shape-preserving clipping. The curve
is exact at the nodes, C1 everywhere, monotone wherever the node
amplitudes are monotone, and keeps local extrema at the nodes.

Besides evaluation, this module exposes the exact derivative of the curve
with respect to the node amplitudes (the slope rules are differentiable
inside each branch), which the model fitter uses for analytic jacobian
columns, and central differences in the node times. Moving one node
changes at most three slopes, so such a difference is nonzero only on the
four intervals around the node: the differences for all nodes of a curve
are evaluated there, in one batch over the perturbed node sets.
"""

from __future__ import annotations

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


def pchip_eval(times: np.ndarray, amps: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Evaluate the shape-preserving cubic at the query times."""
    times, amps = _check_nodes(times, amps)
    query = np.asarray(query, dtype=float)
    d, _ = _slopes_and_jacobian(times, amps, want_jac=False)
    j = _locate(times, query)
    return _hermite(times[j], times[j + 1], amps[j], amps[j + 1], d[j], d[j + 1], query)[0]


def pchip_eval_with_amp_jacobian(times, amps, query):
    """Curve values plus d(curve)/d(amplitudes).

    Returns (values, W) with W of shape (len(query), len(times)); W is the
    exact jacobian wherever the slope rules are differentiable (everywhere
    except the measure-zero branch switches of the monotonicity limiter).
    """
    times, amps = _check_nodes(times, amps)
    query = np.asarray(query, dtype=float)
    d, dd_dy = _slopes_and_jacobian(times, amps)
    j = _locate(times, query)
    vals, w = _hermite(times[j], times[j + 1], amps[j], amps[j + 1], d[j], d[j + 1], query)
    # a slope reads the amplitudes of its node and its neighbours (an edge
    # slope those of the three outermost nodes), so the row of a sample on
    # interval j is nonzero only on the band of nodes j-1 .. j+2
    n = times.size
    width = min(n, 4)
    jc = j[:, None]
    cols = np.clip(jc - 1, 0, n - width) + np.arange(width)
    band = w[1][:, None] * dd_dy[jc, cols] + w[3][:, None] * dd_dy[jc + 1, cols]
    band += np.where(cols == jc, w[0][:, None], np.where(cols == jc + 1, w[2][:, None], 0.0))
    W = np.zeros((query.size, n))
    W[np.arange(query.size)[:, None], cols] = band
    return vals, W


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
    times, amps = _check_nodes(times, amps)
    query = np.asarray(query, dtype=float)
    nodes = np.asarray(nodes, dtype=int)
    if np.any((nodes < 1) | (nodes > times.size - 2)):
        raise ValueError("only interior node times can be differenced")
    j0 = _locate(times, query)
    n, n_col = times.size, nodes.size
    # (column, sample) pairs on the intervals i-2 .. i+1 of each node i,
    # taken as runs of the samples sorted by interval
    order = np.argsort(j0, kind="stable")
    j_sorted = j0[order]
    start = np.searchsorted(j_sorted, nodes - 2)
    count = np.searchsorted(j_sorted, nodes + 2) - start
    col = np.repeat(np.arange(n_col), count)
    # position in the sorted samples: column k takes start[k] .. start[k] + count[k]
    run = np.arange(col.size) + np.repeat(start - np.cumsum(count) + count, count)
    row, j = order[run], j_sorted[run]
    t_i = times[nodes]
    dy = np.diff(amps)

    def node_sets(moved):
        """Times and slopes of the node sets with node i moved, one row per column."""
        T = np.tile(times, (n_col, 1))
        T[np.arange(n_col), nodes] = moved
        H = np.diff(T, axis=1)
        if np.any(H <= 0):
            raise ValueError("node times must be strictly increasing (no duplicates)")
        return moved, T.ravel(), _slope_rules(H, dy / H)[0].ravel()

    def curve(moved, T, d, c, jj, q):
        # the interval index changes only where node i crossed the sample
        jp = jj + (q >= moved[c]) - (q >= t_i[c])
        f = c * n + jp                  # flat index into the node-set tables
        return _hermite(T[f], T[f + 1], amps[jp], amps[jp + 1], d[f], d[f + 1], q)[0]

    plus, minus = node_sets(t_i + dt), node_sets(t_i - dt)
    vals = np.empty(col.size)
    for a in range(0, col.size, _PAIR_BLOCK):
        s = slice(a, a + _PAIR_BLOCK)
        pair = col[s], j[s], query[row[s]]
        vals[s] = (curve(*plus, *pair) - curve(*minus, *pair)) / (2 * dt)
    return row, col, vals
