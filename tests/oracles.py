"""Reference computations the tests compare the package against."""

import numpy as np

from tvshape.pchip import _check_nodes, _slopes_and_jacobian


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
    d, _ = _slopes_and_jacobian(*_check_nodes(times, amps), want_jac=False)
    return d
