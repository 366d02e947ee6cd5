import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from tvshape.pchip import (
    _slopes_and_jacobian,
    knot_differences,
    pchip_curve,
    pchip_eval,
    pchip_eval_with_amp_jacobian,
)


def _random_nodes(rng, n, min_gap=5e-2):
    while True:
        t = np.sort(rng.uniform(0, 1, n))
        if n < 2 or np.all(np.diff(t) >= min_gap):
            return t


def test_node_exactness():
    t = np.array([0.0, 0.5, 1.0])
    y = np.array([0.0, 1.0, 0.0])
    assert pchip_eval(t, y, np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(pchip_eval(t, y, t), y)


def test_linear_data_reproduced():
    t = np.array([0.0, 0.3, 0.55, 1.0])
    y = 2.0 * t - 0.7
    q = np.linspace(0, 1, 500)
    assert np.allclose(pchip_eval(t, y, q), 2.0 * q - 0.7, atol=1e-14)


def test_matches_reference_interpolator(rng):
    # independent oracle: scipy's PCHIP implements the same slope rules
    for _ in range(100):
        n = int(rng.integers(2, 12))
        t = _random_nodes(rng, n, min_gap=1e-3)
        y = rng.standard_normal(n)
        q = rng.uniform(t[0], t[-1], 200)
        assert np.allclose(pchip_eval(t, y, q), PchipInterpolator(t, y)(q), atol=1e-12)


def test_monotone_preservation(rng):
    q = np.linspace(0, 1, 10_000)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        t = _random_nodes(rng, n)
        y = np.sort(rng.standard_normal(n))
        v = pchip_eval(t, y, q * (t[-1] - t[0]) + t[0])
        assert np.all(np.diff(v) >= -1e-12)


def test_extrema_preserved(rng):
    # local node extrema remain global bounds of the curve (no overshoot)
    q = np.linspace(0, 1, 10_000)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        t = _random_nodes(rng, n)
        y = rng.standard_normal(n)
        v = pchip_eval(t, y, q * (t[-1] - t[0]) + t[0])
        assert v.min() >= y.min() - 1e-12 and v.max() <= y.max() + 1e-12


def test_c1_continuity():
    t = np.array([0.0, 0.2, 0.45, 0.8, 1.0])
    y = np.array([0.0, 1.0, 0.3, 0.9, 0.2])
    eps = 1e-7
    for tk in t[1:-1]:
        left = (pchip_eval(t, y, [tk]) - pchip_eval(t, y, [tk - eps])) / eps
        right = (pchip_eval(t, y, [tk + eps]) - pchip_eval(t, y, [tk])) / eps
        assert left[0] == pytest.approx(right[0], abs=1e-5)


def test_query_outside_span_rejected():
    t = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        pchip_eval(t, y, np.array([1.5]))
    with pytest.raises(ValueError):
        pchip_eval(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]), np.array([0.5]))


def test_amp_jacobian_matches_finite_differences(rng):
    for _ in range(50):
        n = int(rng.integers(3, 9))
        t = _random_nodes(rng, n)
        y = np.cumsum(rng.uniform(0.1, 1.0, n)) * rng.choice([-1.0, 1.0])
        q = rng.uniform(t[0], t[-1], 64)
        _, W = pchip_eval_with_amp_jacobian(t, y, q)
        h = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (pchip_eval(t, y + e, q) - pchip_eval(t, y - e, q)) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1e-9)
            assert np.max(np.abs(W[:, i] - fd)) / scale < 1e-5


def test_two_node_case_is_linear():
    t = np.array([0.0, 2.0])
    y = np.array([1.0, 3.0])
    q = np.linspace(0, 2, 20)
    assert np.allclose(pchip_eval(t, y, q), 1.0 + q, atol=1e-14)


def _scalar_slopes_and_jacobian(times, amps):
    """Reference slope rules, one node at a time, with d slopes / d amps."""
    n = times.size
    h = np.diff(times)
    m = np.diff(amps) / h
    d = np.zeros(n)
    dd_dm = np.zeros((n, n - 1))

    def edge(h0, h1, m0, m1):
        if m0 == 0.0:
            return 0.0, (0.0, 0.0)
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0, (0.0, 0.0)
        if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            return 3.0 * m0, (3.0, 0.0)
        return e, ((2 * h0 + h1) / (h0 + h1), -h0 / (h0 + h1))

    if n == 2:
        d[:] = m[0]
        dd_dm[:, 0] = 1.0
    else:
        for k in range(1, n - 1):
            m0, m1 = m[k - 1], m[k]
            if m0 == 0.0 or m1 == 0.0 or np.sign(m0) != np.sign(m1):
                continue
            w1 = 2 * h[k] + h[k - 1]
            w2 = h[k] + 2 * h[k - 1]
            denom = w1 * m1 + w2 * m0
            d[k] = (w1 + w2) * m0 * m1 / denom
            dd_dm[k, k - 1] = (w1 + w2) * w1 * m1**2 / denom**2
            dd_dm[k, k] = (w1 + w2) * w2 * m0**2 / denom**2
        d[0], (dd_dm[0, 0], dd_dm[0, 1]) = edge(h[0], h[1], m[0], m[1])
        d[-1], (dd_dm[-1, -1], dd_dm[-1, -2]) = edge(h[-1], h[-2], m[-1], m[-2])
    dm_dy = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    dm_dy[idx, idx] = -1.0 / h
    dm_dy[idx, idx + 1] = 1.0 / h
    return d, dd_dm @ dm_dy


def _dense_amp_jacobian(times, query, dd_dy):
    """d(curve)/d(amps) assembled over all nodes for every sample."""
    j = np.clip(np.searchsorted(times, query, side="right") - 1, 0, times.size - 2)
    h = times[j + 1] - times[j]
    s = (query - times[j]) / h
    s2, s3 = s * s, s * s * s
    W = np.zeros((query.size, times.size))
    rows = np.arange(query.size)
    W[rows, j] = 2 * s3 - 3 * s2 + 1
    W[rows, j + 1] = -2 * s3 + 3 * s2
    W += (h * (s3 - 2 * s2 + s))[:, None] * dd_dy[j, :] + (h * (s3 - s2))[:, None] * dd_dy[j + 1, :]
    return W


@pytest.mark.parametrize(
    "times, amps",
    [
        ([0.0, 1.0], [0.3, -0.2]),                          # two nodes
        ([0.0, 0.4, 1.0], [0.1, 0.5, 0.7]),                 # three nodes, monotone
        ([0.0, 0.3, 0.5, 0.9, 1.0], [0.2, 0.2, 0.6, 0.6, 0.1]),  # zero secants
        ([0.0, 0.2, 0.45, 0.8, 1.0], [0.0, 1.0, 0.3, 0.9, 0.2]),  # sign changes
        ([0.0, 1.0, 1.1, 2.1], [0.0, 1.0, 0.0, 1.0]),       # 3*m0 clip at both edges
        ([0.0, 0.5, 0.6, 1.0], [0.0, 0.1, 2.0, 2.05]),      # edge estimate against m0: flat
        ([0.0, 0.5, 0.6, 1.0], [1.0, 1.0, 2.0, 3.0]),       # first secant zero
    ],
)
def test_slopes_and_amp_jacobian_match_scalar_rules_bitwise(times, amps):
    times, amps = np.array(times), np.array(amps)
    d, dd_dy = _slopes_and_jacobian(times, amps)
    d_ref, dd_dy_ref = _scalar_slopes_and_jacobian(times, amps)
    assert np.array_equal(d, d_ref)
    assert np.array_equal(dd_dy, dd_dy_ref)
    q = np.concatenate([np.linspace(times[0], times[-1], 101), times])
    _, W = pchip_eval_with_amp_jacobian(times, amps, q)
    assert np.array_equal(W, _dense_amp_jacobian(times, q, dd_dy_ref))


def test_slopes_and_amp_jacobian_match_scalar_rules_bitwise_random(rng):
    for _ in range(300):
        n = int(rng.integers(2, 15))
        t = _random_nodes(rng, n, min_gap=1e-3)
        y = rng.standard_normal(n)
        y[rng.random(n) < 0.2] = 0.5            # repeated amplitudes: zero secants
        d, dd_dy = _slopes_and_jacobian(t, y)
        d_ref, dd_dy_ref = _scalar_slopes_and_jacobian(t, y)
        assert np.array_equal(d, d_ref)
        assert np.array_equal(dd_dy, dd_dy_ref)
        q = rng.uniform(t[0], t[-1], 50)
        _, W = pchip_eval_with_amp_jacobian(t, y, q)
        assert np.array_equal(W, _dense_amp_jacobian(t, q, dd_dy_ref))


def test_knot_differences_match_full_evaluations_bitwise(rng):
    dt = 1e-3
    for _ in range(40):
        n = int(rng.integers(3, 12))
        t = _random_nodes(rng, n)
        y = rng.standard_normal(n)
        # unsorted queries, with every node time and both span ends among them
        q = np.concatenate([rng.uniform(t[0], t[-1], 300), t, t[1:-1] + dt, t[1:-1] - dt])
        rng.shuffle(q)
        nodes = np.arange(1, n - 1)
        rows, cols, vals = knot_differences(pchip_curve(t, y, q), nodes, dt)
        D = np.zeros((q.size, nodes.size))
        D[rows, cols] = vals
        for k, i in enumerate(nodes):
            tp, tm = t.copy(), t.copy()
            tp[i] += dt
            tm[i] -= dt
            ref = (pchip_eval(tp, y, q) - pchip_eval(tm, y, q)) / (2 * dt)
            assert np.array_equal(D[:, k], ref), f"node {i} of {n}"


def test_knot_differences_of_a_sorted_query_match_full_evaluations_bitwise(rng):
    # a sorted query, as the fit's sample grid is, with samples on and next
    # to the moved nodes; the outer intervals reuse the curve's Hermite weights
    dt = 1e-3
    for _ in range(40):
        n = int(rng.integers(3, 12))
        t = _random_nodes(rng, n)
        y = rng.standard_normal(n)
        y[rng.random(n) < 0.2] = 0.5            # repeated amplitudes: flat slopes
        q = np.sort(np.concatenate([rng.uniform(t[0], t[-1], 300), t, t[1:-1] + dt, t[1:-1] - dt]))
        nodes = np.arange(1, n - 1)
        rows, cols, vals = knot_differences(pchip_curve(t, y, q), nodes, dt)
        assert np.unique(rows * nodes.size + cols).size == rows.size     # each entry once
        D = np.zeros((q.size, nodes.size))
        D[rows, cols] = vals
        for k, i in enumerate(nodes):
            tp, tm = t.copy(), t.copy()
            tp[i] += dt
            tm[i] -= dt
            ref = (pchip_eval(tp, y, q) - pchip_eval(tm, y, q)) / (2 * dt)
            assert np.array_equal(D[:, k], ref), f"node {i} of {n}"


def test_knot_differences_reject_edge_nodes():
    t = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        knot_differences(pchip_curve(t, t, t), [0], 1e-3)
