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
    preset,
    snr_out,
    stft,
    threshold_denoise,
    vertical_reconstruct,
)
from tvshape.stft import (
    Ridge,
    Spectrogram,
    fft_length,
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
    mag = np.abs(spec.values)
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


def test_ridge_jump_below_bin_width_rejected():
    spec = stft(_tone(40.0), SIGMA)
    with pytest.raises(ValueError):
        extract_ridge(spec, max_jump_hz=spec.bin_width / 4)


def _reference_ridge(spec, max_jump_hz):
    """Greedy ridge over a full magnitude copy of the spectrogram."""
    mag = np.abs(spec.values)
    hi = mag.shape[1]
    anchor_t, anchor_f = np.unravel_index(np.argmax(mag), mag.shape)
    jump = max(1, int(np.floor(max_jump_hz / spec.bin_width)))
    idx = np.empty(mag.shape[0], dtype=int)
    idx[anchor_t] = anchor_f
    for n in range(anchor_t + 1, mag.shape[0]):
        a, b = max(0, idx[n - 1] - jump), min(hi, idx[n - 1] + jump + 1)
        idx[n] = a + int(np.argmax(mag[n, a:b]))
    for n in range(anchor_t - 1, -1, -1):
        a, b = max(0, idx[n + 1] - jump), min(hi, idx[n + 1] + jump + 1)
        idx[n] = a + int(np.argmax(mag[n, a:b]))
    return spec.freq_axis[idx]


@pytest.mark.parametrize("block", [1, 7, 5000, stft_module.BLOCK_ELEMENTS])
def test_ridge_matches_full_magnitude_search(monkeypatch, block):
    monkeypatch.setattr(stft_module, "BLOCK_ELEMENTS", block)
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    spec = stft(add_noise(x, 0.0, 1), SIGMA)
    ridge = extract_ridge(spec, 2.0)
    assert np.array_equal(ridge.freq, _reference_ridge(spec, 2.0))
    # equal maxima in two frames, far apart in frequency: the earlier frame
    # anchors the ridge, as a single argmax over the whole band would pick
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, (6, 20)) + 0j
    values[1, 3] = values[4, 15] = 5.0
    tied = Spectrogram(values, np.arange(20.0), fs=38.0, window_norm=1.0, window_halfwidth=1,
                       nfft=38, window_coverage=np.ones(6))
    ridge = extract_ridge(tied, 2.0)
    assert ridge.freq[1] == 3.0
    assert np.array_equal(ridge.freq, _reference_ridge(tied, 2.0))


def _uncapped_fft_length(n, window_length):
    """The FFT length before the grid cap: the power of two covering record and window."""
    return 1 << int(np.ceil(np.log2(max(n, window_length))))


SMALL_SPEC_BYTES = 64 * 2**20   # build real spectrograms only up to this size


@pytest.mark.parametrize("name", ["synthetic", "eeg", "ip", "ecg"])
def test_fft_length_follows_record_up_to_grid_cap(name):
    sigma = preset(name).sigma
    _, half = gaussian_window(sigma)
    L = 2 * half + 1
    cap = stft_module.GRID_WINDOWS * L
    capped = fft_length(cap + 1, L)
    assert capped >= L
    for n in (L // 3, L - 1, L, L + 1, 2 * L, cap - 1, cap, cap + 1, 6 * L, 10 * L):
        nfft = fft_length(n, L)
        assert nfft == (_uncapped_fft_length(n, L) if n <= cap else capped)
        # the preset windows make ten-window spectrograms gigabytes, so the
        # stft itself is built only where it stays small
        if n * (nfft // 2 + 1) * 16 <= SMALL_SPEC_BYTES:
            assert stft(RealSignal(np.zeros(n), FS), sigma).nfft == nfft


def test_spectrogram_bytes_linear_in_record_above_grid_cap():
    sigma = 1e-2    # an 85-sample window keeps ten-window records cheap
    _, half = gaussian_window(sigma)
    L = 2 * half + 1
    cap = stft_module.GRID_WINDOWS * L
    rng = np.random.default_rng(0)
    sizes = [cap + 1, 5 * L, 8 * L, 10 * L]
    specs = [stft(RealSignal(rng.standard_normal(n), FS), sigma) for n in sizes]
    assert {spec.nfft for spec in specs} == {fft_length(cap, L)}
    per_sample = specs[0].values.nbytes // sizes[0]
    assert [spec.values.nbytes for spec in specs] == [per_sample * n for n in sizes]


@pytest.fixture(scope="module")
def long_chirp():
    """A 4 s linear chirp, 40 -> 80 Hz: more than four synthetic-preset windows long."""
    t = np.arange(int(4 * FS)) / FS
    x = RealSignal(np.cos(2 * np.pi * (40 * t + 5 * t**2)), FS)
    return x, stft(x, SIGMA)


def test_long_record_full_band_inversion(long_chirp):
    x, spec = long_chirp
    assert spec.nfft < len(x)      # the grid cap applies
    rec = full_band_resynthesis(spec)
    assert np.linalg.norm(rec - x.samples) / np.linalg.norm(x.samples) < 1e-12


def test_long_record_ridge_tracks_chirp(long_chirp):
    x, spec = long_chirp
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    true_if = 40 + 10 * x.times()
    sl = _interior(spec)
    assert np.max(np.abs(ridge.freq[sl] - true_if[sl])) <= 2 * spec.bin_width


def test_long_record_keeps_extended_one_second_bin_width(long_chirp):
    _, spec = long_chirp
    # a 1 s record extended by 10% per side (2400 samples) has the same grid
    assert spec.bin_width == FS / fft_length(2400, 2 * spec.window_halfwidth + 1) == FS / 4096


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


def _reference_vertical_reconstruct(spec, ridge, delta):
    """The band sum taken one frame at a time."""
    n_freq = spec.freq_axis.size
    lo = np.clip(np.searchsorted(spec.freq_axis, ridge.freq - delta, side="left"), 0, n_freq)
    hi = np.clip(np.searchsorted(spec.freq_axis, ridge.freq + delta, side="right"), lo, n_freq)
    out = np.empty(spec.n_times, dtype=complex)
    for n in range(spec.n_times):
        s = 2.0 * spec.values[n, lo[n] : hi[n]].sum()
        if lo[n] == 0:
            s -= spec.values[n, 0]
        if hi[n] == n_freq:
            s -= spec.values[n, -1]
        out[n] = s
    return out / spec.nfft / spec.window_coverage


@pytest.mark.filterwarnings("ignore:reconstruction band clipped")
def test_vertical_reconstruct_equals_per_frame_sum_bitwise():
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    spec = stft(add_noise(x, 0.0, 1), SIGMA)
    ridge = extract_ridge(spec, max_jump_hz=2.0)
    delta = default_band_halfwidth(SIGMA, FS)
    # harmonic bands, bands clipped at DC and at Nyquist, and a band
    # between two bins that holds none
    cases = [(ell * ridge.freq, delta) for ell in range(1, 6)]
    cases += [(ridge.freq - 30.0, delta), (ridge.freq + FS / 2 - 50.0, delta),
              (ridge.freq + 0.5 * spec.bin_width, spec.bin_width / 4)]
    widths = set()
    for freq, d in cases:
        r = Ridge(freq=freq)
        y = vertical_reconstruct(spec, r, d)
        assert y.tobytes() == _reference_vertical_reconstruct(spec, r, d).tobytes()
        lo = np.searchsorted(spec.freq_axis, freq - d, side="left")
        hi = np.searchsorted(spec.freq_axis, freq + d, side="right")
        widths.update(np.clip(hi, lo, spec.freq_axis.size) - np.clip(lo, 0, None))
    assert 0 in widths and len(widths) > 3


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

