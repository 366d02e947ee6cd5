"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte-Carlo sweeps
use 20 realizations per cell and run one cell per usable CPU; every cell is
seeded on its own and the results are collected in cell order, so the
printed numbers are those of a one-cell-at-a-time run.
"""

import os

import numpy as np
import pytest

from tvshape import (
    RealSignal,
    SyntheticSpec,
    add_noise,
    decompose,
    denoise,
    estimate_node_count,
    extend_boundaries,
    generate,
    preset,
    segment,
    snr_out,
    spectral_entropy,
    trim,
    warm_start,
)
from tvshape import solver
from tvshape.bench import BenchSpec, _run_cells, run_denoise_bench
from tvshape.pchip import pchip_eval
from tvshape.solver import FitContext, fit, residual_and_jacobian
from tvshape.model import HafNodes, HarmonicModel, WaveShapeModel, evaluate_model
from tvshape.stft import FundamentalEstimate

from oracles import fd_jacobian

CFG = preset("synthetic")
N_JOBS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: denoising SNR curve -----------------------------------------

@pytest.fixture(scope="module")
def denoise_table():
    spec = BenchSpec(
        experiment="tv_denoise_s1",
        snr_levels=[0.0, 5.0, 10.0, 15.0, 20.0],
        n_realizations=20,
        seed=1234,
        config=CFG,
        n_jobs=N_JOBS,
    )
    result = run_denoise_bench(spec)
    return {row["snr_in"]: row for row in result["rows"]}


def test_criterion_1a_mean_snr_at_20db(denoise_table):
    mean20 = denoise_table[20.0]["ours_mean"]
    ok = mean20 is not None and 27.0 <= mean20 <= 33.0
    _report("1a denoising at 20 dB", ok, f"mean SNR_out = {mean20:.2f} dB, required 30 +- 3")


def test_criterion_1b_beats_linear_baseline(denoise_table):
    pairs = {lvl: (denoise_table[lvl]["ours_mean"], denoise_table[lvl]["lr_mean"]) for lvl in (5.0, 10.0, 15.0)}
    ok = all(ours >= lr for ours, lr in pairs.values())
    detail = ", ".join(f"{lvl:g} dB: {o:.1f} vs {l:.1f}" for lvl, (o, l) in pairs.items())
    _report("1b ours >= fixed-shape baseline", ok, detail)


def test_criterion_1c_soft_below_hard_at_0db(denoise_table):
    soft = denoise_table[0.0]["stft_soft_mean"]
    hard = denoise_table[0.0]["stft_hard_mean"]
    ok = soft < hard
    _report("1c soft < hard threshold at 0 dB", ok, f"soft {soft:.2f} dB vs hard {hard:.2f} dB")


# -- criterion 2: noiseless model recovery ------------------------------------

def test_criterion_2_noiseless_recovery():
    x, gt = generate(SyntheticSpec("tv_reconstruction"))
    res = denoise(x, CFG)
    e2, e3 = res.model.harmonics[0].e, res.model.harmonics[1].e
    ok_e = abs(e2 - 2.005) <= 0.005 and abs(e3 - 2.995) <= 0.005

    t = x.times()
    n = len(x)
    interior = slice(n // 10, n - n // 10)
    rms = {}
    for ell, h in zip((2, 3), res.model.harmonics):
        alpha_hat = pchip_eval(h.nodes.times, h.nodes.amps, t) * np.sqrt(1 + h.c**2)
        err = alpha_hat[interior] - gt.fundamental.alphas[ell][interior]
        rms[ell] = float(np.sqrt(np.mean(err**2)))
    ok_haf = all(v < 0.05 for v in rms.values())
    _report(
        "2 noiseless model recovery",
        ok_e and ok_haf,
        f"e2={e2:.4f}, e3={e3:.4f}; HAF rms: l2={rms[2]:.4f}, l3={rms[3]:.4f} (< 0.05)",
    )


# -- criterion 3: multicomponent decomposition --------------------------------

def _decomposition_cell(k):
    """Realization k at 10 dB: (component, SNR_out, fixed-shape SNR_out) per
    stage, and the SNR_out of the summed components."""
    x, gt = generate(SyntheticSpec("multicomponent"))
    comps = [RealSignal(c.clean, x.fs) for c in gt.components]
    if_means = [
        (c.phi1[-1] - c.phi1[0]) / (len(c.phi1) - 1) * x.fs for c in gt.components
    ]
    noisy = add_noise(x, 10.0, 5000 + k)
    parts = decompose(noisy, [CFG], K=2)
    total = np.zeros(len(x))
    stages = []
    for res in parts:
        fm = float(np.mean(res.ridge.freq))
        ci = int(np.argmin([abs(fm - f) for f in if_means]))
        stages.append((ci, snr_out(comps[ci], res.reconstruction), snr_out(comps[ci], res.lr_reconstruction)))
        total += res.reconstruction.samples
    return stages, snr_out(x, x.with_samples(total))


def test_criterion_3_multicomponent():
    ours = {1: [], 2: []}
    lr = {1: [], 2: []}
    sums = []
    for stages, total in _run_cells(_decomposition_cell, range(20), N_JOBS):
        for ci, snr_ours, snr_lr in stages:
            ours[ci + 1].append(snr_ours)
            lr[ci + 1].append(snr_lr)
        sums.append(total)
    m_ours = {k: float(np.mean(v)) for k, v in ours.items()}
    m_lr = {k: float(np.mean(v)) for k, v in lr.items()}
    mean_sum = float(np.mean(sums))
    ok = m_ours[1] > m_lr[1] and m_ours[2] > m_lr[2] and mean_sum >= 10.0
    _report(
        "3 multicomponent decomposition at 10 dB",
        ok,
        f"comp1 {m_ours[1]:.1f} vs LR {m_lr[1]:.1f}; comp2 {m_ours[2]:.1f} vs LR {m_lr[2]:.1f}; "
        f"sum {mean_sum:.1f} dB (>= 10)",
    )


# -- criterion 4: segmentation accuracy ----------------------------------------

def _segmentation_cell(args):
    """Absolute transition-time error of one trial, None if none was found."""
    snr, trial, r = args
    spec = SyntheticSpec("sharp_transition", params={"draw": True, "kappa": 50.0, "r": r})
    x, gt = generate(spec, seed=100 + trial)
    noisy = add_noise(x, snr, 10_000 * (int(snr) + 1) + trial)
    res = segment(noisy, CFG)
    return None if res.t_hat is None else abs(res.t_hat - gt.t_transition)


@pytest.fixture(scope="module")
def segmentation_medians():
    levels = (0.0, 10.0, 20.0)
    cells = []
    for snr in levels:
        rng = np.random.default_rng(7)
        cells += [(snr, trial, int(rng.integers(3, 7))) for trial in range(20)]
    errors = _run_cells(_segmentation_cell, cells, N_JOBS)
    medians = {}
    for i, snr in enumerate(levels):
        errs = [e for e in errors[20 * i : 20 * (i + 1)] if e is not None]
        medians[snr] = float(np.median(errs) * 1000)
    return medians


def test_criterion_4a_median_error_at_10db(segmentation_medians):
    med = segmentation_medians[10.0]
    _report("4a segmentation median AE at 10 dB", med <= 20.0, f"median AE = {med:.1f} ms (<= 20 ms)")


def test_criterion_4b_error_decreases_with_snr(segmentation_medians):
    m = segmentation_medians
    ok = m[0.0] >= m[10.0] >= m[20.0]
    _report(
        "4b segmentation error monotone in SNR",
        ok,
        f"medians {m[0.0]:.1f} / {m[10.0]:.1f} / {m[20.0]:.1f} ms at 0/10/20 dB",
    )


# -- criterion 5: property suite ------------------------------------------------

def test_criterion_5_properties(monkeypatch):
    rng = np.random.default_rng(99)
    fs = 2000.0

    # pchip monotonicity / extremum preservation on 1000 random node sets
    q = np.linspace(0, 1, 2000)
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        t = np.sort(rng.uniform(0, 1, n))
        while np.any(np.diff(t) < 1e-2):
            t = np.sort(rng.uniform(0, 1, n))
        y = rng.standard_normal(n)
        if rng.random() < 0.5:
            y = np.sort(y)  # monotone set
        v = pchip_eval(t, y, t[0] + q * (t[-1] - t[0]))
        if np.all(np.diff(y) >= 0):
            assert np.all(np.diff(v) >= -1e-12)
        assert v.min() >= y.min() - 1e-12 and v.max() <= y.max() + 1e-12

    # 100 random small fits: accepted-step RSS monotone non-increasing
    def random_model(rg, n_nodes=4):
        times = np.linspace(0.0, 0.3, n_nodes)
        return WaveShapeModel(
            r=2,
            harmonics=[
                HarmonicModel(
                    e=2 + rg.uniform(-0.05, 0.05),
                    c=rg.uniform(-0.4, 0.4),
                    nodes=HafNodes(times, rg.uniform(0.2, 0.8, n_nodes)),
                )
            ],
            fundamental=FundamentalEstimate(B1=np.ones(600), phi1=40 * np.arange(600) / fs, fs=fs),
        )

    phi1 = 40 * np.arange(600) / fs + 0.3 / (2 * np.pi) * np.sin(2 * np.pi * np.arange(600) / fs / 0.3)
    monkeypatch.setattr(solver, "MAX_ITERS", 25)
    for k in range(100):
        rg = np.random.default_rng(k)
        truth = random_model(rg)
        ctx = FitContext(
            target=np.zeros(600), phi1=phi1, t=np.arange(600) / fs,
            template=truth.copy(), min_node_gap=2 / fs,
        )
        target = ctx.synthesize(truth.flatten())[0] + 0.05 * rg.standard_normal(600)
        init = random_model(np.random.default_rng(k + 1000))
        _, diag = fit(RealSignal(target, fs), phi1, init)
        assert np.all(np.diff(diag.rss_trace) <= 0), f"fit {k}: RSS increased"

    # analytic vs finite-difference jacobian to 1e-5 relative
    for k in range(10):
        rg = np.random.default_rng(k)
        m = random_model(rg, n_nodes=5)
        ctx = FitContext(
            target=np.zeros(600), phi1=phi1, t=np.arange(600) / fs,
            template=m.copy(), min_node_gap=2 / fs,
        )
        gamma = m.flatten()
        _, J = residual_and_jacobian(gamma, ctx)
        J_fd = fd_jacobian(gamma, ctx)
        for i in range(gamma.size):
            scale = max(np.max(np.abs(J_fd[:, i])), 1e-9)
            assert np.max(np.abs(J[:, i] - J_fd[:, i])) / scale < 1e-5

    # warm start reproduces the linear projection exactly
    n = 1200
    phi = 40 * np.arange(n) / fs
    sig = RealSignal(
        np.cos(2 * np.pi * phi)
        + 0.5 * np.cos(2 * np.pi * 2 * phi)
        + 0.2 * np.sin(2 * np.pi * 2 * phi)
        + 0.01 * np.random.default_rng(0).standard_normal(n),
        fs,
    )
    ws = warm_start(sig, phi, r=2, node_counts=[5], extension=(0, 0), fundamental=FundamentalEstimate(np.ones(n), phi, fs))
    cols = np.stack([np.cos(2 * np.pi * 2 * phi), np.sin(2 * np.pi * 2 * phi)], axis=1)
    coef, *_ = np.linalg.lstsq(cols, sig.samples - np.cos(2 * np.pi * phi), rcond=None)
    proj = np.cos(2 * np.pi * phi) + cols @ coef
    assert np.allclose(evaluate_model(ws, phi).samples, proj, atol=1e-10)

    # extend/trim central-segment bit equality
    sig2 = RealSignal(np.sin(2 * np.pi * 40 * np.arange(2000) / fs), fs)
    ext = extend_boundaries(sig2, 50, 50)
    assert np.array_equal(trim(ext.extended, ext).samples, sig2.samples)

    # add_noise / snr_out consistency to 1e-9 dB
    for s in (0.0, 5.0, 10.0, 15.0, 20.0):
        assert abs(snr_out(sig2, add_noise(sig2, s, seed=3)) - s) < 1e-9

    # node-count worked example: 0.5 + 0.25 cos(2 pi 3 t) -> 7 nodes
    t1 = np.arange(int(fs)) / fs
    env = (0.5 + 0.25 * np.cos(2 * np.pi * 3 * t1)).astype(complex)
    assert estimate_node_count(env, fs) == 7

    _report("5 property suite", True, "pchip x1000, LM RSS x100, jacobian, warm start, extend, noise, nodes")


# -- criterion 6: real-data path smoke -------------------------------------------

def test_criterion_6_presets_and_spectral_entropy_calibration():
    # EEG-class record
    fs = 256.0
    t = np.arange(int(20 * fs)) / fs
    phi = 3.0 * t + 0.3 / (2 * np.pi) * np.sin(2 * np.pi * 0.15 * t)
    a2 = 0.5 + 0.2 * np.tanh(3 * (t - 10))
    eeg = 30 * (1 + 0.25 * np.sin(2 * np.pi * 0.1 * t)) * (
        np.cos(2 * np.pi * phi) + a2 * np.cos(2 * np.pi * 2 * phi)
    )
    eeg_sig = RealSignal(eeg - eeg.mean(), fs)
    res = denoise(add_noise(eeg_sig, 5.0, 0), preset("eeg"))
    assert len(res.reconstruction) == len(eeg_sig)

    # ECG-class record
    fs = 250.0
    t = np.arange(int(24 * fs)) / fs
    phi = 1.8 * t + 0.05 / (2 * np.pi) * np.sin(2 * np.pi * 0.2 * t)
    wave = (
        np.cos(2 * np.pi * phi)
        + 0.8 * np.cos(2 * np.pi * 2 * phi)
        + 0.55 * np.cos(2 * np.pi * 3 * phi)
        + 0.3 * np.cos(2 * np.pi * 4 * phi)
    )
    ecg = (1 + 0.1 * np.sin(2 * np.pi * 0.05 * t)) * wave
    ecg_sig = RealSignal(ecg - ecg.mean(), fs)
    res = denoise(add_noise(ecg_sig, 10.0, 1), preset("ecg", r_max=6))
    assert res.model.r >= 3

    # IP-class record, decomposed into respiratory + cardiac
    fs = 32.0
    t = np.arange(int(60 * fs)) / fs
    ip = (1 + 0.2 * np.sin(2 * np.pi * 0.02 * t)) * (
        np.cos(2 * np.pi * 0.25 * t) + 0.4 * np.cos(2 * np.pi * 0.5 * t)
    ) + 0.25 * (np.cos(2 * np.pi * 1.4 * t) + 0.5 * np.cos(2 * np.pi * 2.8 * t))
    ip_sig = RealSignal(ip - ip.mean(), fs)
    parts = decompose(ip_sig, [preset("ip", r_max=4)], K=2)
    ridge_means = sorted(float(np.mean(p.ridge.freq)) for p in parts)
    assert abs(ridge_means[0] - 0.25) < 0.05 and abs(ridge_means[1] - 1.4) < 0.1

    # spectral-entropy calibration: white noise over 5120 samples scores
    # 7.34 +- 0.05 (mean over 50 seeds)
    vals = [spectral_entropy(np.random.default_rng(s).standard_normal(5120)) for s in range(50)]
    se = float(np.mean(vals))
    ok = abs(se - 7.34) <= 0.05
    _report(
        "6 real-data presets + SE calibration",
        ok,
        f"eeg/ecg/ip presets ran end-to-end; white-noise SE = {se:.3f} (7.34 +- 0.05)",
    )
