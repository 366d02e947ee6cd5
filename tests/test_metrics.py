import math

import numpy as np
import pytest

from tvshape import RealSignal, acf, add_noise, residual_metrics, snr_out, spectral_entropy


def _tone(n=2000, fs=2000.0, f=40.0, a=1.0):
    return RealSignal(a * np.cos(2 * np.pi * f * np.arange(n) / fs), fs)


def test_add_noise_exact_snr():
    x = _tone()
    for snr in (0.0, 5.0, 10.0, 20.0, 37.5):
        noisy = add_noise(x, snr, seed=3)
        n = noisy.samples - x.samples
        achieved = 20 * np.log10(np.linalg.norm(x.samples) / np.linalg.norm(n))
        assert abs(achieved - snr) < 1e-9


def test_add_noise_norm_ratios():
    x = _tone()
    n0 = add_noise(x, 0.0, seed=1).samples - x.samples
    assert np.linalg.norm(n0) == pytest.approx(np.linalg.norm(x.samples), rel=1e-12)
    n20 = add_noise(x, 20.0, seed=1).samples - x.samples
    assert np.linalg.norm(n20) == pytest.approx(np.linalg.norm(x.samples) / 10, rel=1e-12)


def test_add_noise_deterministic():
    x = _tone()
    a = add_noise(x, 10.0, seed=42)
    b = add_noise(x, 10.0, seed=42)
    assert np.array_equal(a.samples, b.samples)


def test_add_noise_zero_signal_rejected():
    with pytest.raises(ValueError):
        add_noise(RealSignal(np.zeros(8), 1.0), 10.0, 0)


def test_snr_out_trivia():
    x = _tone()
    zero = x.with_samples(np.zeros(len(x)))
    assert snr_out(x, zero) == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(snr_out(x, x))
    with pytest.raises(ValueError):
        snr_out(x, RealSignal(np.zeros(10), x.fs))


def test_snr_roundtrip_consistency():
    # snr_out(x, add_noise(x, s)) == s, tying the two formulas together
    x = _tone()
    for s in (0.0, 7.0, 20.0):
        assert abs(snr_out(x, add_noise(x, s, seed=9)) - s) < 1e-9


def test_acf_lag0_is_one():
    rng = np.random.default_rng(0)
    r = acf(rng.standard_normal(500), max_lag=50)
    assert r[0] == pytest.approx(1.0, abs=1e-12)


def test_acf_white_noise_confidence_band():
    # Monte-Carlo coverage of white-noise ACF values at lags 1..100: the
    # reported +-1/sqrt(N) band is a one-sigma band (~68% coverage); the
    # 95%-level band is 1.96x wider
    n = 5120
    band = 1 / np.sqrt(n)
    inside_1s, inside_95 = [], []
    for seed in range(100):
        r = acf(np.random.default_rng(seed).standard_normal(n), max_lag=100)
        inside_1s.append(np.mean(np.abs(r[1:]) <= band))
        inside_95.append(np.mean(np.abs(r[1:]) <= 1.96 * band))
    assert 0.62 <= np.mean(inside_1s) <= 0.75
    assert np.mean(inside_95) >= 0.90


def test_spectral_entropy_tone_vs_noise():
    # a single-tone residual concentrates in one dominant bin per frame
    n, fs = 5120, 2000.0
    tone = np.cos(2 * np.pi * 40 * np.arange(n) / fs)
    noise = np.random.default_rng(0).standard_normal(n)
    assert spectral_entropy(tone) < 2.0
    assert spectral_entropy(noise) > 7.0


def test_residual_metrics_report():
    rng = np.random.default_rng(1)
    est = _tone()
    resid = RealSignal(rng.standard_normal(2000), 2000.0)
    rep = residual_metrics(resid, est)
    assert rep.residual_acf[0] == pytest.approx(1.0)
    assert rep.acf_conf_band == pytest.approx(1 / np.sqrt(2000))
    assert abs(rep.pcc) < 0.1
    # estimate == residual -> pcc exactly 1
    rep2 = residual_metrics(resid, resid)
    assert rep2.pcc == pytest.approx(1.0, abs=1e-12)


def test_residual_metrics_zero_variance_rejected():
    est = _tone()
    const = RealSignal(np.ones(2000), 2000.0)
    with pytest.raises(ValueError):
        residual_metrics(const, est)


def test_metrics_report_json():
    est = _tone()
    resid = RealSignal(np.random.default_rng(2).standard_normal(2000), 2000.0)
    rep = residual_metrics(resid, est)
    text = rep.to_json()
    assert '"pcc"' in text and '"spectral_entropy_bits"' in text
