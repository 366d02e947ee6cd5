import json
import re

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


@pytest.mark.parametrize("ext, n_fixed", [((0, 0), 1), ((200, 200), 2), ((0, 150), 2)])
def test_flatten_follows_coefficient_layout(rng, ext, n_fixed):
    m = _model(r=4, n_nodes=6, ext=ext)
    m.harmonics[1].nodes = HafNodes(np.linspace(0.0, 1.0, 9), np.zeros(9))
    for h in m.harmonics:
        h.nodes.amps[:] = rng.standard_normal(len(h.nodes))
        h.nodes.times[1:-1] = np.sort(rng.uniform(0.1, 0.9, len(h.nodes) - 2))
        h.c, h.e = rng.standard_normal(), h.e + rng.uniform(-0.05, 0.05)
    gamma = m.flatten()
    slots, size = m.coefficient_layout()
    assert gamma.size == size
    pos = 0
    for h, s in zip(m.harmonics, slots):
        # per harmonic, contiguous: [free node times, all amplitudes, c, e]
        assert np.array_equal(s.nodes, np.arange(n_fixed, len(h.nodes) - n_fixed))
        assert (s.times.start, s.amps.start, s.c) == (pos, s.times.stop, s.amps.stop)
        assert np.array_equal(gamma[s.times], h.nodes.times[s.nodes])
        assert np.array_equal(gamma[s.amps], h.nodes.amps)
        assert (gamma[s.c], gamma[s.c + 1]) == (h.c, h.e)
        pos = s.c + 2
    assert pos == size


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


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


MALFORMED = {
    "the model file lacks 'extension_map'": lambda raw: _without(raw, "extension_map"),
    "the model file lacks 'r'": lambda raw: _without(raw, "r"),
    "the model file lacks 'harmonics'": lambda raw: _without(raw, "harmonics"),
    "harmonic l=2 lacks 'nodes'": lambda raw: {**raw, "harmonics": [_without(raw["harmonics"][0], "nodes")]},
    "the model file is not a JSON object": lambda raw: [raw],
    "harmonic l=3 is not a JSON object": lambda raw: {**raw, "harmonics": [raw["harmonics"][0], 3.0]},
    "the model file's 'r' has the wrong type (str)": lambda raw: {**raw, "r": "3"},
    "the model file's 'r' has the wrong type (bool)": lambda raw: {**raw, "r": True},
    "'extension_map' is not two sample counts": lambda raw: {**raw, "extension_map": [0]},
    "the model file's 'extension_map' is not two sample counts": lambda raw: {**raw, "extension_map": [-5, 3]},
    "harmonic l=2's 'e' has the wrong type (NoneType)": lambda raw: {
        **raw, "harmonics": [{**raw["harmonics"][0], "e": None}, raw["harmonics"][1]]},
    "a node of harmonic l=2's 't' has the wrong type (str)": lambda raw: {
        **raw, "harmonics": [{**raw["harmonics"][0], "nodes": [{"t": "0", "a": 0.5}]}, raw["harmonics"][1]]},
    "the fundamental lacks 'phi1'": lambda raw: {**raw, "fundamental": _without(raw["fundamental"], "phi1")},
    "the model file's 'fundamental' has the wrong type (list)": lambda raw: {**raw, "fundamental": []},
    "the fundamental's 'fs' is not a positive, finite sampling rate (0)": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "fs": 0}},
    "the fundamental's 'fs' is not a positive, finite sampling rate (-2000)": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "fs": -2000.0}},
    "the fundamental's 'fs' is not a positive, finite sampling rate (nan)": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "fs": float("nan")}},
    "the fundamental's 'fs' is not a positive, finite sampling rate (inf)": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "fs": float("inf")}},
    # integers past a double's range, which Python's json reads, are infinite
    "the fundamental's 'fs' is not a positive, finite sampling rate (-inf)": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "fs": -(10**400)}},
    "'fs' is not a positive, finite sampling rate (inf)": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "fs": 10**400}},
    "the fundamental's 'B1' and 'phi1' differ in length": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "B1": raw["fundamental"]["B1"][:-5]}},
    # Python's json reads the literals NaN and Infinity, and integers of any size
    "a node of harmonic l=2's 't' holds a non-finite or non-numeric value": lambda raw: {
        **raw, "harmonics": [{**raw["harmonics"][0], "nodes": [{"t": float("nan"), "a": 0.5}]}, raw["harmonics"][1]]},
    "a node of harmonic l=3's 'a' holds a non-finite or non-numeric value": lambda raw: {
        **raw, "harmonics": [raw["harmonics"][0], {**raw["harmonics"][1], "nodes": [{"t": 0.0, "a": -float("inf")}]}]},
    "harmonic l=2's 'e' holds a non-finite or non-numeric value": lambda raw: {
        **raw, "harmonics": [{**raw["harmonics"][0], "e": float("inf")}, raw["harmonics"][1]]},
    "harmonic l=3's 'c' holds a non-finite or non-numeric value": lambda raw: {
        **raw, "harmonics": [raw["harmonics"][0], {**raw["harmonics"][1], "c": float("nan")}]},
    "harmonic l=3's 'e' holds a non-finite or non-numeric value": lambda raw: {
        **raw, "harmonics": [raw["harmonics"][0], {**raw["harmonics"][1], "e": 10**400}]},
    "the fundamental's 'B1' holds a non-finite or non-numeric value": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "B1": ["x"] + raw["fundamental"]["B1"][1:]}},
    "the fundamental's 'phi1' holds a non-finite or non-numeric value": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "phi1": raw["fundamental"]["phi1"][:-1] + [float("inf")]}},
}


@pytest.mark.parametrize("message", MALFORMED)
def test_model_json_with_a_missing_or_ill_typed_key_raises(message):
    raw = json.loads(_model(r=3).to_json())
    with pytest.raises(ValueError, match=re.escape(message)):
        WaveShapeModel.from_json(json.dumps(MALFORMED[message](raw)))


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
