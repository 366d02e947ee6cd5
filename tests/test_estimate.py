import numpy as np
import pytest

from tvshape import (
    RealSignal,
    estimate_node_count,
    estimate_order,
    evaluate_model,
    warm_start,
)
from tvshape import estimate as estimate_module
from tvshape.stft import FundamentalEstimate

FS = 2000.0


def _fund(phi1):
    return FundamentalEstimate(B1=np.ones(len(phi1)), phi1=np.asarray(phi1, dtype=float), fs=FS)


def test_node_count_worked_example():
    # |y| = 0.5 + 0.25 cos(2 pi 3 t) over 1 s: the DC bin holds 88.9% of the
    # folded spectral energy, so the 90% crossing sits at 3 cycles -> 7 nodes
    t = np.arange(int(FS)) / FS
    env = 0.5 + 0.25 * np.cos(2 * np.pi * 3 * t)
    assert estimate_node_count(env.astype(complex), FS) == 7
    # and the DC fraction really is just below the threshold
    spec = np.abs(np.fft.rfft(env)) ** 2
    w = np.full(spec.size, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    assert spec[0] * w[0] / (spec * w).sum() == pytest.approx(8 / 9, abs=1e-6)


def test_node_count_constant_envelope_clamps_to_two():
    env = np.full(1000, 0.7, dtype=complex)
    assert estimate_node_count(env, FS) == 2


def test_node_count_monotone_in_transition_steepness(monkeypatch):
    # FFT oracle: at the 90% ENERGY_FRACTION a step envelope's 1/f^2
    # spectrum keeps the crossing low for every steepness (counts saturate);
    # raising the fraction exposes the kappa dependence
    t = np.arange(int(FS)) / FS
    assert estimate_module.ENERGY_FRACTION == 0.9
    for frac, expect_growth in ((0.9, False), (0.95, True)):
        monkeypatch.setattr(estimate_module, "ENERGY_FRACTION", frac)
        counts = [
            estimate_node_count((0.4 + 0.5 * np.tanh(k * (t - 0.5))).astype(complex), FS)
            for k in (10.0, 50.0, 200.0)
        ]
        assert counts[0] <= counts[1] <= counts[2]
        if expect_growth:
            assert counts[2] > counts[0]


def test_node_count_scale_invariant():
    t = np.arange(int(FS)) / FS
    env = (0.5 + 0.25 * np.cos(2 * np.pi * 3 * t)).astype(complex)
    assert estimate_node_count(env, FS) == estimate_node_count(17.3 * env, FS)


def test_node_count_respects_cap_and_rejects_empty():
    t = np.arange(int(FS)) / FS
    env = (0.5 + 0.25 * np.cos(2 * np.pi * 3 * t)).astype(complex)  # uncapped: 7
    assert estimate_node_count(env, FS, max_nodes=5) == 5
    with pytest.raises(ValueError):
        estimate_node_count(np.zeros(100, dtype=complex), FS)


def _demod_signal(alphas, e=None, n=2000, phi=None):
    t = np.arange(n) / FS
    phi1 = 40 * t if phi is None else phi
    x = np.cos(2 * np.pi * phi1)
    e = e or {}
    for ell, a in alphas.items():
        x = x + a * np.cos(2 * np.pi * e.get(ell, ell) * phi1)
    return RealSignal(x, FS), phi1


def test_order_selection_three_harmonics(recon_signal):
    x, gt = recon_signal
    xd = RealSignal(x.samples / gt.fundamental.b1, FS)
    assert estimate_order(xd, gt.fundamental.phi1, r_max=8) == 3


def test_order_selection_pure_cosine():
    xd, phi1 = _demod_signal({})
    assert estimate_order(xd, phi1, r_max=6) == 1


def test_order_selection_six_harmonics():
    amps = {2: 0.7, 3: 0.55, 4: 0.4, 5: 0.3, 6: 0.22}
    e = {ell: ell + 0.003 for ell in amps}
    xd, phi1 = _demod_signal(amps, e)
    assert estimate_order(xd, phi1, r_max=9) == 6


def test_order_selection_scale_invariant():
    amps = {2: 0.6, 3: 0.35}
    xd, phi1 = _demod_signal(amps)
    r1 = estimate_order(xd, phi1, r_max=7)
    r2 = estimate_order(xd.with_samples(123.4 * xd.samples), phi1, r_max=7)
    assert r1 == r2


def test_order_selection_clamps_r_max_at_nyquist():
    xd, phi1 = _demod_signal({2: 0.5})
    with pytest.warns(UserWarning):
        r = estimate_order(xd, 300.0 * np.arange(2000) / FS + xd.samples * 0, r_max=8)
    assert r <= 3  # 4*300 Hz would cross Nyquist


def test_warm_start_recovers_linear_coefficients():
    # x = cos + 0.5 cos(2.) + 0.2 sin(2.): a2=0.5, b2=0.2, c2=0.4
    n = 2000
    t = np.arange(n) / FS
    phi1 = 40 * t
    x = RealSignal(
        np.cos(2 * np.pi * phi1)
        + 0.5 * np.cos(2 * np.pi * 2 * phi1)
        + 0.2 * np.sin(2 * np.pi * 2 * phi1),
        FS,
    )
    m = warm_start(x, phi1, r=2, node_counts=[5], extension=(0, 0), fundamental=_fund(phi1))
    h = m.harmonics[0]
    assert np.allclose(h.nodes.amps, 0.5, atol=1e-3)
    assert h.c == pytest.approx(0.4, abs=1e-2)
    assert h.e == 2.0
    assert not h.degenerate


def test_warm_start_flags_empty_harmonics():
    n = 2000
    t = np.arange(n) / FS
    phi1 = 40 * t
    x = RealSignal(np.cos(2 * np.pi * phi1), FS)
    m = warm_start(x, phi1, r=3, node_counts=[4, 4], extension=(0, 0), fundamental=_fund(phi1))
    for h in m.harmonics:
        assert abs(h.nodes.amps[0]) < 1e-10
        assert h.degenerate and h.c == 0.0


def test_warm_start_equals_linear_projection():
    # constant node amplitudes interpolate to constants, so the evaluated
    # warm-start model IS the linear projection
    rng = np.random.default_rng(0)
    n = 1500
    t = np.arange(n) / FS
    phi1 = 40 * t + 0.5 / (2 * np.pi) * np.sin(2 * np.pi * t)
    x = RealSignal(
        np.cos(2 * np.pi * phi1)
        + 0.45 * np.cos(2 * np.pi * 2 * phi1)
        + 0.1 * np.sin(2 * np.pi * 2 * phi1)
        + 0.3 * np.cos(2 * np.pi * 3 * phi1)
        + 0.05 * rng.standard_normal(n),
        FS,
    )
    m = warm_start(x, phi1, r=3, node_counts=[6, 4], extension=(0, 0), fundamental=_fund(phi1))
    synth = evaluate_model(m, phi1)
    # oracle: explicit least squares on the harmonic design
    cols = []
    for ell in (2, 3):
        cols += [np.cos(2 * np.pi * ell * phi1), np.sin(2 * np.pi * ell * phi1)]
    D = np.stack(cols, axis=1)
    resid = x.samples - np.cos(2 * np.pi * phi1)
    coef, *_ = np.linalg.lstsq(D, resid, rcond=None)
    proj = np.cos(2 * np.pi * phi1) + D @ coef
    assert np.allclose(synth.samples, proj, atol=1e-10)


def test_warm_start_extension_layout():
    n = 1200
    t0 = -0.1
    t = t0 + np.arange(n) / FS
    phi1 = 40 * (t - t0)
    x = RealSignal(np.cos(2 * np.pi * phi1) + 0.4 * np.cos(2 * np.pi * 2 * phi1), FS, t0=t0)
    m = warm_start(x, phi1, r=2, node_counts=[5], extension=(200, 200), fundamental=_fund(phi1))
    nodes = m.harmonics[0].nodes
    assert len(nodes) == 7  # 5 grid nodes + 2 extension edge nodes
    assert nodes.times[0] == pytest.approx(t0)
    assert nodes.times[1] == pytest.approx(t0 + 0.1)
    assert nodes.times[-2] == pytest.approx(t0 + (n - 1 - 200) / FS)
    assert nodes.times[-1] == pytest.approx(t0 + (n - 1) / FS)
    assert m.flatten().size == 2 * 5 + 2


def test_warm_start_validates_node_counts():
    x = RealSignal(np.zeros(100) + np.cos(np.arange(100.0)), FS)
    with pytest.raises(ValueError):
        warm_start(x, np.arange(100.0), r=3, node_counts=[4], extension=(0, 0), fundamental=_fund(np.arange(100.0)))
    with pytest.raises(ValueError):
        warm_start(x, np.arange(100.0), r=2, node_counts=[1], extension=(0, 0), fundamental=_fund(np.arange(100.0)))
