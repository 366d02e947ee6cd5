import importlib

import numpy as np
import pytest

from tvshape import (
    RealSignal,
    SyntheticSpec,
    add_noise,
    default_band_halfwidth,
    estimate_fundamental,
    extract_ridge,
    generate,
    snr_out,
    stft,
    threshold_denoise,
    vertical_reconstruct,
)
from tvshape.stft import (
    Spectrogram,
    full_band_resynthesis,
    gaussian_window,
    noise_sigma_estimate,
    threshold_coefficients,
)

stft_module = importlib.import_module("tvshape.stft")   # the package exports a function `stft`

FS = 2000.0
SIGMA = 1e-4


def _tone(f=40.0, a=1.0, phase=0.0, n=2000):
    t = np.arange(n) / FS
    return RealSignal(a * np.cos(2 * np.pi * f * t + phase), FS)


def _interior(spec):
    return slice(spec.window_halfwidth, spec.n_times - spec.window_halfwidth)


def test_window_truncation_level():
    g, half = gaussian_window(SIGMA)
    assert g[0] < 1e-7 and g[half] == 1.0
    assert np.exp(-SIGMA * (half + 1) ** 2) < 1e-8


def test_sigma_too_large_rejected():
    with pytest.raises(ValueError):
        stft(_tone(), sigma=10.0)


def test_zero_signal_zero_spectrogram():
    s = stft(RealSignal(np.zeros(256), FS), SIGMA)
    assert not np.any(s.values)


def test_tone_peak_bin():
    spec = stft(_tone(40.0), SIGMA)
    mag = spec.magnitude()
    k40 = np.argmin(np.abs(spec.freq_axis - 40.0))
    peaks = np.argmax(mag[_interior(spec)], axis=1)
    assert np.all(np.abs(spec.freq_axis[peaks] - spec.freq_axis[k40]) <= spec.bin_width)


def test_full_band_inversion():
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    spec = stft(x, SIGMA)
    rec = full_band_resynthesis(spec)
    # exact (machine precision) everywhere, comfortably below the 1% bound
    assert np.linalg.norm(rec - x.samples) / np.linalg.norm(x.samples) < 1e-12


def test_ridge_pure_tone_constant():
    spec = stft(_tone(40.0), SIGMA)
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    k40 = spec.freq_axis[np.argmin(np.abs(spec.freq_axis - 40.0))]
    assert np.all(ridge.freq == k40)


def test_ridge_linear_chirp_tracks_if():
    n = 2000
    t = np.arange(n) / FS
    # phi' = 40 + 10 t
    x = RealSignal(np.cos(2 * np.pi * (40 * t + 5 * t**2)), FS)
    spec = stft(x, SIGMA)
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    true_if = 40 + 10 * t
    sl = _interior(spec)
    assert np.max(np.abs(ridge.freq[sl] - true_if[sl])) <= 2 * spec.bin_width


def test_ridge_fm_signal(recon_signal):
    x, _ = recon_signal
    spec = stft(x, SIGMA)
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    t = x.times()
    true_if = 40 + 5 * np.cos(2 * np.pi * t)
    sl = _interior(spec)
    assert np.max(np.abs(ridge.freq[sl] - true_if[sl])) <= 2 * spec.bin_width


def test_ridge_jump_bound_holds():
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    spec = stft(add_noise(x, 0.0, 1), SIGMA)
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    assert np.max(np.abs(np.diff(ridge.freq))) <= 2.0 + 1e-9


def test_ridge_band_and_errors():
    spec = stft(_tone(40.0), SIGMA)
    with pytest.raises(ValueError):
        extract_ridge(spec, max_jump_hz=2.0, band=(500.0, 400.0))
    with pytest.raises(ValueError):
        extract_ridge(spec, max_jump_hz=spec.bin_width / 4)
    ridge = extract_ridge(spec, max_jump_hz=2.0, band=(30.0, 50.0))
    assert 30.0 <= ridge.freq[0] <= 50.0


def _reference_ridge(spec, max_jump_hz, band=None):
    """Greedy ridge over a full magnitude copy of the spectrogram."""
    mag = spec.magnitude()
    lo, hi = 0, mag.shape[1]
    if band is not None:
        lo = int(np.searchsorted(spec.freq_axis, band[0], side="left"))
        hi = int(np.searchsorted(spec.freq_axis, band[1], side="right"))
    sub = mag[:, lo:hi]
    anchor_t, anchor_f = np.unravel_index(np.argmax(sub), sub.shape)
    anchor_f += lo
    jump = max(1, int(np.floor(max_jump_hz / spec.bin_width)))
    idx = np.empty(mag.shape[0], dtype=int)
    idx[anchor_t] = anchor_f
    for n in range(anchor_t + 1, mag.shape[0]):
        a, b = max(lo, idx[n - 1] - jump), min(hi, idx[n - 1] + jump + 1)
        idx[n] = a + int(np.argmax(mag[n, a:b]))
    for n in range(anchor_t - 1, -1, -1):
        a, b = max(lo, idx[n + 1] - jump), min(hi, idx[n + 1] + jump + 1)
        idx[n] = a + int(np.argmax(mag[n, a:b]))
    return spec.freq_axis[idx]


@pytest.mark.parametrize("block", [1, 7, 5000, stft_module.BLOCK_ELEMENTS])
def test_ridge_matches_full_magnitude_search(monkeypatch, block):
    monkeypatch.setattr(stft_module, "BLOCK_ELEMENTS", block)
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    spec = stft(add_noise(x, 0.0, 1), SIGMA)
    for band in (None, (30.0, 90.0)):
        ridge = extract_ridge(spec, 2.0, band)
        assert np.array_equal(ridge.freq, _reference_ridge(spec, 2.0, band))
    # equal maxima in two frames, far apart in frequency: the earlier frame
    # anchors the ridge, as a single argmax over the whole band would pick
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, (6, 20)) + 0j
    values[1, 3] = values[4, 15] = 5.0
    tied = Spectrogram(values, np.arange(20.0), fs=38.0, t0=0.0, window_sigma=SIGMA,
                       window_norm=1.0, window_halfwidth=1, nfft=38)
    ridge = extract_ridge(tied, 2.0)
    assert ridge.freq[1] == 3.0
    assert np.array_equal(ridge.freq, _reference_ridge(tied, 2.0))


def test_vertical_reconstruct_amplitude_and_phase():
    a, phase = 0.7, 1.234
    x = _tone(40.0, a, phase)
    spec = stft(x, SIGMA)
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    y = vertical_reconstruct(spec, ridge, delta=3 * default_band_halfwidth(SIGMA, FS))
    sl = _interior(spec)
    assert np.max(np.abs(np.abs(y[sl]) - a)) / a < 0.01
    ph = np.unwrap(np.angle(y)) / (2 * np.pi)
    truth = 40.0 * x.times() + phase / (2 * np.pi)
    drift = ph[sl] - truth[sl]
    assert np.ptp(drift) < 0.01  # constant offset allowed, drift is not


def test_vertical_reconstruct_narrow_band_underestimates():
    x = _tone(40.0, 1.0)
    spec = stft(x, SIGMA)
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    y = vertical_reconstruct(spec, ridge, delta=spec.bin_width / 2)  # single bin
    sl = _interior(spec)
    assert np.mean(np.abs(y[sl])) < 0.9  # band truncation loses energy


def test_phase_shift_invariance():
    spec0 = stft(_tone(40.0, 1.0, 0.0), SIGMA)
    spec1 = stft(_tone(40.0, 1.0, 0.9), SIGMA)
    r0 = extract_ridge(spec0, 2.0)
    r1 = extract_ridge(spec1, 2.0)
    y0 = vertical_reconstruct(spec0, r0, 16.7)
    y1 = vertical_reconstruct(spec1, r1, 16.7)
    sl = _interior(spec0)
    assert np.allclose(np.abs(y0[sl]), np.abs(y1[sl]), rtol=1e-6)
    dphi = np.angle(y1[sl] * np.conj(y0[sl]))
    assert np.allclose(dphi, 0.9, atol=1e-6)


def test_estimate_fundamental_on_fm_signal(recon_signal):
    x, gt = recon_signal
    spec = stft(x, SIGMA)
    fund, _ = estimate_fundamental(spec, 2.0, default_band_halfwidth(SIGMA, FS))
    sl = _interior(spec)
    # instantaneous frequency within 2% of the mean IF
    if_est = np.diff(fund.phi1) * FS
    true_if = 40 + 5 * np.cos(2 * np.pi * x.times())
    mean_if = 40.0
    assert np.max(np.abs(if_est[sl] - true_if[:-1][sl])) < 0.02 * mean_if
    # B1 within 10% of truth on the interior
    rel = fund.B1[sl] / gt.fundamental.b1[sl] - 1
    assert np.sqrt(np.mean(rel**2)) < 0.10
    # invariants by construction
    assert np.all(np.diff(fund.phi1) >= 0)
    assert np.all(fund.B1 > 0)


def test_estimate_fundamental_noise_stability(recon_signal):
    x, _ = recon_signal
    spec0 = stft(x, SIGMA)
    f0, _ = estimate_fundamental(spec0, 2.0, 16.7)
    spec1 = stft(add_noise(x, 20.0, 0), SIGMA)
    f1, _ = estimate_fundamental(spec1, 2.0, 16.7)
    sl = _interior(spec0)
    rel = (f1.B1[sl] - f0.B1[sl]) / f0.B1[sl]
    assert np.sqrt(np.mean(rel**2)) < 0.10


def test_noise_sigma_estimate_tracks_half_variance():
    # Re(F) of a generic bin carries half the coefficient variance, so the
    # median-based estimate concentrates near v/2 (verified Monte-Carlo)
    v = 2.5
    ratios = []
    for seed in range(50):
        x = RealSignal(np.random.default_rng(seed).standard_normal(1000) * np.sqrt(v), FS)
        ratios.append(noise_sigma_estimate(stft(x, SIGMA)) ** 2 / v)
    med = np.median(ratios)
    assert abs(med - 0.5) < 0.1  # within 20% of v/2


def test_threshold_self_reconstruction():
    x = _tone(40.0, 5.0)
    out = threshold_denoise(x, SIGMA, "hard")
    assert len(out) == len(x)
    assert snr_out(x, out) >= 30.0


def test_threshold_coefficients_idempotent_and_soft_shrinks():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((50, 33)) + 1j * rng.standard_normal((50, 33))
    eta = 1.0
    hard1 = threshold_coefficients(F, eta, "hard")
    hard2 = threshold_coefficients(hard1, eta, "hard")
    assert np.array_equal(hard1, hard2)
    soft1 = threshold_coefficients(F, eta, "soft")
    soft2 = threshold_coefficients(soft1, eta, "soft")
    assert np.all(np.abs(soft2) <= np.abs(soft1) + 1e-15)
    keep = np.abs(soft1) > 0
    assert np.allclose(np.angle(soft1[keep]), np.angle(F[keep]))
    with pytest.raises(ValueError):
        threshold_coefficients(F, eta, "medium")


def test_spectrogram_export(tmp_path):
    spec = stft(_tone(n=256), SIGMA)
    mpath = tmp_path / "mag.npy"
    jpath = tmp_path / "axes.json"
    spec.export(mpath, jpath)
    mag = np.load(mpath)
    assert mag.shape == spec.values.shape
    import json

    meta = json.loads(jpath.read_text())
    assert meta["fs"] == FS and meta["nfft"] == spec.nfft
