import json

import numpy as np
import pytest

from tvshape import (
    FundamentalEstimate,
    HafNodes,
    HarmonicModel,
    RealSignal,
    WaveShapeModel,
    demodulate,
    evaluate_model,
    remodulate,
)
from tvshape.pchip import pchip_eval

FS = 2000.0


def _fund(n=2000, b1=None, phi1=None):
    b1 = np.ones(n) if b1 is None else b1
    phi1 = 40 * np.arange(n) / FS if phi1 is None else phi1
    return FundamentalEstimate(B1=b1, phi1=phi1, fs=FS)


def _model(r=3, n_nodes=5, span=(0.0, 1.0), e=None, c=None, amps=None, ext=(0, 0)):
    harmonics = []
    for i, ell in enumerate(range(2, r + 1)):
        times = np.linspace(span[0], span[1], n_nodes)
        a = np.full(n_nodes, 0.5 if amps is None else amps[i])
        harmonics.append(
            HarmonicModel(
                e=float(ell) if e is None else e[i],
                c=0.0 if c is None else c[i],
                nodes=HafNodes(times, a),
            )
        )
    return WaveShapeModel(r=r, harmonics=harmonics, fundamental=_fund(), extension_map=ext)


def test_nodes_validation():
    with pytest.raises(ValueError):
        HafNodes(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        HafNodes(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_nodes_evaluate_delegates_to_interpolator():
    nodes = HafNodes(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    q = np.linspace(0, 1, 21)
    assert np.allclose(nodes.evaluate(q), pchip_eval(nodes.times, nodes.amps, q))
    with pytest.raises(ValueError):
        nodes.evaluate(np.array([1.5]))


def test_flatten_roundtrip_bit_exact(rng):
    m = _model(r=4, n_nodes=6)
    for h in m.harmonics:
        h.nodes.amps[:] = rng.standard_normal(len(h.nodes))
        inner = rng.uniform(0.1, 0.9, len(h.nodes) - 2)
        h.nodes.times[1:-1] = np.sort(inner)
        h.c = rng.standard_normal()
        h.e = h.e + rng.uniform(-0.05, 0.05)
    gamma = m.flatten()
    back = m.unflatten(gamma)
    assert np.array_equal(back.flatten(), gamma)
    for h0, h1 in zip(m.harmonics, back.harmonics):
        assert np.array_equal(h0.nodes.times, h1.nodes.times)
        assert np.array_equal(h0.nodes.amps, h1.nodes.amps)
        assert h0.c == h1.c and h0.e == h1.e


def test_coefficient_count():
    # per harmonic: (I-2) inner times + I amps + c + e = 2I
    m = _model(r=3, n_nodes=7)
    assert m.flatten().size == 2 * (2 * 7)
    # extension adds two fixed-time nodes whose amplitudes are still free
    m_ext = _model(r=3, n_nodes=9, ext=(200, 200))
    assert m_ext.flatten().size == 2 * (2 * 7) + 2 * 2
    # ... so an extended harmonic needs 4 nodes: 3 leave a negative count of free times
    m_short = _model(r=3, n_nodes=6, ext=(100, 100))
    m_short.harmonics[0].nodes = HafNodes(np.array([0.0, 0.5, 1.0]), np.full(3, 0.5))
    with pytest.raises(ValueError, match=r"l=2 has 3 nodes.*at least 4"):
        m_short.flatten()


def test_r1_model_is_pure_cosine():
    m = WaveShapeModel(r=1, harmonics=[], fundamental=_fund())
    out = evaluate_model(m, m.fundamental.phi1)
    assert np.allclose(out.samples, np.cos(2 * np.pi * m.fundamental.phi1))


def test_constant_hafs_reduce_to_fixed_shape():
    # constant HAFs, integer ratios, zero quadrature = classical fixed shape
    m = _model(r=3, amps=[0.5, 0.3])
    phi1 = m.fundamental.phi1
    out = evaluate_model(m, phi1)
    expected = (
        np.cos(2 * np.pi * phi1)
        + 0.5 * np.cos(2 * np.pi * 2 * phi1)
        + 0.3 * np.cos(2 * np.pi * 3 * phi1)
    )
    assert np.allclose(out.samples, expected, atol=1e-12)


def test_ground_truth_model_synthesis(recon_signal):
    # a model parameterized by the generator laws reproduces x/B1
    x, gt = recon_signal
    t = x.times()
    harmonics = []
    for ell in (2, 3):
        times = np.linspace(0.0, t[-1], 81)
        amps = np.interp(times, t, gt.fundamental.alphas[ell])
        harmonics.append(HarmonicModel(e=gt.fundamental.e[ell], c=0.0, nodes=HafNodes(times, amps)))
    m = WaveShapeModel(r=3, harmonics=harmonics, fundamental=_fund(len(x)))
    out = evaluate_model(m, gt.fundamental.phi1)
    target = x.samples / gt.fundamental.b1 + gt.mean_offset / gt.fundamental.b1
    rel = np.linalg.norm(out.samples - target) / np.linalg.norm(target)
    assert rel < 1e-3


def test_demodulate_remodulate_inverse(recon_signal):
    x, gt = recon_signal
    fund = FundamentalEstimate(B1=gt.fundamental.b1, phi1=gt.fundamental.phi1, fs=FS)
    xd = demodulate(x, fund)
    back = remodulate(xd, fund)
    assert np.allclose(back.samples, x.samples, atol=1e-12)


def test_demodulate_identity_and_guard():
    x = RealSignal(np.ones(100), FS)
    fund = _fund(100)
    assert np.allclose(demodulate(x, fund).samples, x.samples)
    tiny = FundamentalEstimate(B1=np.full(100, 1e-30), phi1=np.arange(100.0), fs=FS)
    out = demodulate(x, tiny)
    assert np.all(np.isfinite(out.samples))  # guard prevents blow-up


def test_remodulate_scales():
    x = RealSignal(np.ones(100), FS)
    fund = FundamentalEstimate(B1=np.full(100, 2.0), phi1=np.arange(100.0), fs=FS)
    assert np.allclose(remodulate(x, fund).samples, 2.0)


def test_model_json_roundtrip(rng):
    m = _model(r=3, n_nodes=5, e=[2.004, 3.001], c=[0.12, -0.3])
    m.fundamental = _fund(b1=rng.uniform(0.5, 2.0, 2000), phi1=np.cumsum(rng.uniform(0.01, 0.03, 2000)))
    m.harmonics[1].degenerate = True
    text = m.to_json()
    back = WaveShapeModel.from_json(text)
    assert back.r == m.r
    assert back.extension_map == m.extension_map
    for h0, h1 in zip(m.harmonics, back.harmonics):
        assert h1.e == h0.e and h1.c == h0.c and h1.degenerate == h0.degenerate
        assert np.allclose(h1.nodes.times, h0.nodes.times)
        assert np.allclose(h1.nodes.amps, h0.nodes.amps)
    assert np.array_equal(back.fundamental.B1, m.fundamental.B1)
    assert np.array_equal(back.fundamental.phi1, m.fundamental.phi1)
    assert back.fundamental.fs == m.fundamental.fs
    # stable field order for diffing
    assert text == back.to_json()


def test_model_json_without_fundamental_loads():
    # the layout of files saved before the fundamental and the degenerate
    # flags were part of it
    text = json.dumps(
        {
            "r": 2,
            "harmonics": [{"e": 2.0, "c": 0.1, "nodes": [{"t": 0.0, "a": 0.5}, {"t": 1.0, "a": 0.4}]}],
            "extension_map": [0, 0],
        }
    )
    back = WaveShapeModel.from_json(text)
    assert back.fundamental is None
    assert back.harmonics[0].degenerate is False
    with pytest.raises(ValueError, match="no fundamental reference"):
        evaluate_model(back, np.zeros(10))


def test_evaluate_uses_haf_interpolation(rng):
    m = _model(r=2, n_nodes=6)
    h = m.harmonics[0]
    h.nodes.amps[:] = rng.uniform(0.2, 0.8, 6)
    phi1 = m.fundamental.phi1
    out = evaluate_model(m, phi1)
    t = np.arange(phi1.size) / FS
    haf = pchip_eval(h.nodes.times, h.nodes.amps, t)
    expected = np.cos(2 * np.pi * phi1) + haf * np.cos(2 * np.pi * 2 * phi1)
    assert np.allclose(out.samples, expected, atol=1e-12)
