import importlib
import os
import threading

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

from oracles import gathered_band_sums, threshold_denoise_mode

stft_module = importlib.import_module("tvshape.stft")   # the package exports a function `stft`

FS = 2000.0
SIGMA = 1e-4


def _tone(f=40.0, a=1.0, phase=0.0, n=2000):
    t = np.arange(n) / FS
    return RealSignal(a * np.cos(2 * np.pi * f * t + phase), FS)


def _interior(spec):
    half = spec.window.size // 2
    return slice(half, spec.n_times - half)


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


def _first_max(values):
    """The anchor `stft` finds for values: the (frame, bin) of the first |F|
    maximum in time-major order."""
    mag = np.abs(values)
    return tuple(int(i) for i in np.unravel_index(np.argmax(mag), mag.shape))


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


# block sizes from one frame per block, through the default, to one
# block larger than any record here
BLOCKS = sorted({1, 7, 5000, stft_module.BLOCK_ELEMENTS, 1_000_000})


@pytest.mark.parametrize("block", BLOCKS)
def test_ridge_matches_full_magnitude_search(monkeypatch, block):
    monkeypatch.setattr(stft_module, "BLOCK_ELEMENTS", block)
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    spec = stft(add_noise(x, 0.0, 1), SIGMA)
    ridge = extract_ridge(spec, 2.0)
    assert np.array_equal(ridge.freq, _reference_ridge(spec, 2.0))
    # equal maxima in two frames, far apart in frequency: the walk from the
    # earlier frame, which a single argmax over the whole band picks
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, (6, 20)) + 0j
    values[1, 3] = values[4, 15] = 5.0
    # every bin is stored, so the record is never read
    tied = Spectrogram(values, fs=38.0, nfft=38, window=np.ones(1), anchor=_first_max(values),
                       record=np.zeros(values.shape[0]))
    ridge = extract_ridge(tied, 2.0)
    assert ridge.freq[1] == 3.0
    assert np.array_equal(ridge.freq, _reference_ridge(tied, 2.0))


def _unit_bin_spectrogram(values):
    """Spectrogram of the given bins, 1 Hz apart from DC, so that a max jump
    of J Hz is a corridor of +-J bins. Every bin is stored, so its record,
    zeros, is never read."""
    n_freq = values.shape[1]
    nfft = max(2 * (n_freq - 1), 1)
    return Spectrogram(values.astype(complex), fs=float(nfft), nfft=nfft, window=np.ones(1),
                       anchor=_first_max(values), record=np.zeros(values.shape[0]))


def _edge_hugging(n_time, n_freq):
    # energy at DC for the first half and at Nyquist for the second: the
    # corridor is clipped at both ends of the band, by any jump
    values = np.random.default_rng(7).uniform(0.0, 1.0, (n_time, n_freq))
    values[: n_time // 2, 0] += 2.0
    values[n_time // 2 :, -1] += 2.0
    values[n_time // 2, -1] = 9.0
    return values


def _anchored_at(frame, n_time=300, n_freq=24):
    values = np.random.default_rng(frame).uniform(0.0, 1.0, (n_time, n_freq))
    values[frame, 5] = 4.0
    return values


RIDGE_CASES = {
    # noise: the sweeps' guesses keep missing, so a block takes many sweeps
    "noise": (np.random.default_rng(4).standard_normal((700, 40))
              + 1j * np.random.default_rng(5).standard_normal((700, 40)), 3),
    "all_equal": (np.ones((300, 16)), 2),
    "integer_ties": (np.random.default_rng(6).integers(0, 3, (500, 30)) + 0.0, 2),
    "clipped_at_dc_and_nyquist": (_edge_hugging(600, 20), 4),
    "jump_covers_band": (np.random.default_rng(8).uniform(0.0, 1.0, (300, 12)), 12),
    "jump_beyond_band": (np.random.default_rng(9).uniform(0.0, 1.0, (300, 12)), 40),
    "single_frame": (np.random.default_rng(10).uniform(0.0, 1.0, (1, 12)), 2),
    "anchor_in_first_frame": (_anchored_at(0), 2),
    "anchor_in_last_frame": (_anchored_at(299), 2),
}


@pytest.mark.parametrize("block", [1, 3, 256])
@pytest.mark.parametrize("case", sorted(RIDGE_CASES))
def test_block_ridge_walk_equals_per_frame_loop(monkeypatch, block, case):
    monkeypatch.setattr(stft_module, "_RIDGE_BLOCK", block)
    values, jump = RIDGE_CASES[case]
    spec = _unit_bin_spectrogram(values)
    ridge = extract_ridge(spec, float(jump))
    assert np.array_equal(ridge.freq, _reference_ridge(spec, float(jump)))


TWIN_GAP = 2000     # samples between the twin bursts, more than a SIGMA window


def _twin_bursts(n=3000, first=400):
    """Two identical 300 Hz bursts TWIN_GAP samples apart in silence: the
    frames at the same offset from either burst window the same numbers, so
    their |F| ties exactly. Split among two or three workers, or into
    blocks, the two bursts fall in different spans and blocks."""
    burst = np.hanning(40) * np.cos(2 * np.pi * 300.0 * np.arange(40) / FS)
    x = np.zeros(n)
    x[first : first + 40] = x[first + TWIN_GAP : first + TWIN_GAP + 40] = burst
    return RealSignal(x, FS)


@pytest.mark.parametrize("block", BLOCKS)
def test_spectrogram_and_ridge_byte_equal_for_any_worker_count(monkeypatch, block):
    monkeypatch.setattr(stft_module, "BLOCK_ELEMENTS", block)
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    noisy = add_noise(x, 0.0, 1)
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(stft_module, "worker_count", lambda n_rows, w=workers: min(w, n_rows))
        spec = stft(noisy, SIGMA)
        twins = stft(_twin_bursts(), SIGMA)
        outputs[workers] = [spec.values.tobytes(), spec.anchor, extract_ridge(spec, 2.0).freq.tobytes(),
                            twins.values.tobytes(), twins.anchor]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]
    mag = np.abs(spec.values)
    assert spec.anchor == np.unravel_index(np.argmax(mag), mag.shape)
    # the twin bursts tie at the global maximum: the earlier frame anchors
    t, f = twins.anchor
    mag = np.abs(twins.values)
    assert mag[t, f] == mag[t + TWIN_GAP, f] == mag.max()
    assert (t, f) == np.unravel_index(np.argmax(mag), mag.shape)


def test_worker_count_follows_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert stft_module.worker_count(1000) == 8
    assert stft_module.worker_count(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert stft_module.worker_count(1000) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert stft_module.worker_count(1000) == 1


def test_pool_has_at_most_one_thread_per_row_and_ends_with_the_call(monkeypatch):
    opened = []
    pool = stft_module.ThreadPoolExecutor

    def spy(max_workers):
        opened.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(stft_module, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    threads = threading.active_count()
    spec = stft(_tone(n=3), SIGMA)
    assert opened == [3]        # one pass: the anchor is found by the transform
    assert threading.active_count() == threads
    # one CPU: a one-thread pool, the same output
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    single = stft(_tone(n=3), SIGMA)
    assert single.anchor == spec.anchor
    assert single.values.tobytes() == spec.values.tobytes()
    assert opened == [3, 1]
    assert threading.active_count() == threads


def _resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(stft_module._MALLOC_TRIM is None or not os.path.exists("/proc/self/statm"),
                    reason="glibc on Linux only")
def test_band_store_returns_the_free_heap_pages_first():
    np.ones(2**21)          # a freed 16 MB block: glibc's mmap threshold rises past 1 MB
    blocks = [np.ones(2**17) for _ in range(64)]    # 1 MB blocks, side by side on the heap
    del blocks[::2]         # 32 MB of freed blocks, each held by the live ones around it
    held = _resident_mb()
    stft_module._band_store(1, 1)
    assert _resident_mb() < held - 16


@pytest.mark.parametrize("max_freq", [0.0, 45.0, 300.0, FS / 2, 5 * FS])
def test_stored_band_is_the_leading_columns_of_the_full_band(max_freq):
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    noisy = add_noise(x, 0.0, 1)
    full = stft(noisy, SIGMA)
    band = stft(noisy, SIGMA, max_freq)
    keep = max(1, np.count_nonzero(full.freq_axis <= max_freq))     # DC alone at 0 Hz
    assert band.values.shape == (full.n_times, keep)
    assert band.values.tobytes() == full.values[:, :keep].tobytes()
    assert band.freq_axis.tobytes() == full.freq_axis.tobytes()
    # the anchor is found over every bin, stored or not
    assert band.anchor == full.anchor


@pytest.mark.parametrize("min_freq, max_freq", [(45.0, 300.0), (-5.0, 45.0), (0.0, 0.0), (300.0, 300.0),
                                                (44.9, 45.0), (FS / 2, 5 * FS), (5 * FS, 5 * FS)])
def test_stored_band_between_two_edges_is_those_columns_of_the_full_band(min_freq, max_freq):
    noisy = add_noise(generate(SyntheticSpec("tv_reconstruction"))[0], 0.0, 1)
    full = stft(noisy, SIGMA)
    band = stft(noisy, SIGMA, max_freq, min_freq)
    # the bins from min_freq to max_freq, at least the first bin at or above
    # min_freq (the last of all past Nyquist)
    first = min(np.count_nonzero(full.freq_axis < min_freq), full.freq_axis.size - 1)
    stop = max(first + 1, np.count_nonzero(full.freq_axis <= max_freq))
    assert band.first == first
    assert band.values.tobytes() == full.values[:, first:stop].tobytes()
    assert band.anchor == full.anchor


@pytest.mark.parametrize("max_freq", [-1.0, np.nan])
def test_negative_or_nan_max_freq_rejected(max_freq):
    with pytest.raises(ValueError, match="max_freq"):
        stft(_tone(), SIGMA, max_freq)


@pytest.mark.parametrize("min_freq, max_freq", [(50.0, 45.0), (np.nan, 45.0), (np.nan, None)])
def test_min_freq_above_max_freq_or_nan_rejected(min_freq, max_freq):
    with pytest.raises(ValueError, match="min_freq"):
        stft(_tone(), SIGMA, max_freq, min_freq)


@pytest.mark.filterwarnings("ignore:reconstruction band clipped")
def test_reads_past_the_stored_band_equal_the_full_band():
    t = np.arange(4000) / FS
    # a 40 -> 120 Hz chirp, loudest at its start: the ridge anchors inside
    # a 60 Hz band and climbs out of it
    x = RealSignal(np.exp(-t) * np.cos(2 * np.pi * (40 * t + 20 * t**2)), FS)
    full = stft(x, SIGMA)
    ridge = extract_ridge(full, 2.0)
    band = stft(x, SIGMA, 60.0)
    keep = band.values.shape[1]
    assert full.freq_axis[band.anchor[1]] < 60.0 < ridge.freq.max()
    assert extract_ridge(band, 2.0).freq.tobytes() == ridge.freq.tobytes()
    # the band grew past the walk's reads, which end a ridge jump above its
    # top bin, by doubling at most: not to the full width
    grown = band.values.shape[1]
    top = int(np.searchsorted(full.freq_axis, ridge.freq.max())) + 1
    read = top + int(2.0 / full.bin_width)
    assert top <= grown < 2 * read < full.freq_axis.size
    assert band.values.tobytes() == full.values[:, :grown].tobytes()
    # a read inside the band keeps it
    covering = stft(x, SIGMA, 150.0)
    keep = covering.values.shape[1]
    assert extract_ridge(covering, 2.0).freq.tobytes() == ridge.freq.tobytes()
    assert covering.values.shape[1] == keep
    # band sums past the stored band come from the record and leave its
    # width alone: harmonic bands l = 2..5, a band clipped at DC, one
    # reaching Nyquist, and a band between two bins that holds none
    band = stft(x, SIGMA, 60.0)
    keep = band.values.shape[1]
    delta = default_band_halfwidth(SIGMA, FS)
    cases = [(ell * ridge.freq, delta) for ell in range(2, 6)]
    cases += [(ridge.freq - 30.0, 3 * delta), (np.full(ridge.freq.size, FS / 2 - delta / 2), delta),
              (3 * ridge.freq + 0.5 * full.bin_width, full.bin_width / 4)]
    widths, edges = set(), set()
    for freq, d in cases:
        lo = np.searchsorted(full.freq_axis, freq - d, side="left")
        hi = np.searchsorted(full.freq_axis, freq + d, side="right")
        assert hi.max() > keep
        widths.update(np.clip(hi, lo, full.freq_axis.size) - lo)
        edges.update({lo.min(), hi.max()})
        y = vertical_reconstruct(band, Ridge(freq=freq), d)
        assert band.values.shape[1] == keep
        reference = vertical_reconstruct(full, Ridge(freq=freq), d)
        assert np.max(np.abs(y - reference)) <= 1e-12 * np.max(np.abs(x.samples))
    assert 0 in widths and {0, full.freq_axis.size} <= edges
    with pytest.warns(UserWarning, match="reconstruction band clipped"):
        vertical_reconstruct(band, Ridge(freq=np.full(ridge.freq.size, FS / 2 - delta / 2)), delta)
    assert band.values.shape[1] == keep

    # a 120 -> 80 Hz chirp, loudest at its start: the ridge anchors inside a
    # 100-150 Hz band and leaves it through its bottom
    x = RealSignal(np.exp(-t) * np.cos(2 * np.pi * (120 * t - 10 * t**2)), FS)
    full = stft(x, SIGMA)
    ridge = extract_ridge(full, 2.0)
    band = stft(x, SIGMA, 150.0, 100.0)
    first, stop = band.first, band.first + band.values.shape[1]
    assert full.freq_axis[first - 1] < 100.0 <= full.freq_axis[first]
    assert ridge.freq.min() < 100.0 <= full.freq_axis[band.anchor[1]] <= 150.0
    assert extract_ridge(band, 2.0).freq.tobytes() == ridge.freq.tobytes()
    # the band grew downward past the walk's reads, which end a ridge jump
    # below its bottom bin, by doubling at most: not to DC, and its top stayed
    read = int(np.searchsorted(full.freq_axis, ridge.freq.min())) - int(2.0 / full.bin_width)
    grown = band.values.shape[1]
    assert 0 < band.first <= read < first
    assert band.first + grown == stop and grown <= max(stop - read, 2 * (stop - first))
    assert band.values.tobytes() == full.values[:, band.first : stop].tobytes()
    # the fundamental's band reaches lower still: a band whose bottom the
    # walk stays above grows for it alone, and its sums equal the full
    # band's bit for bit
    band = stft(x, SIGMA, 150.0, ridge.freq.min() - 3.0)
    first = band.first
    fund, _ = estimate_fundamental(band, 2.0, delta)
    reference, _ = estimate_fundamental(full, 2.0, delta)
    assert band.first <= np.searchsorted(full.freq_axis, ridge.freq.min() - delta) < first <= read
    assert fund.B1.tobytes() == reference.B1.tobytes()
    assert fund.phi1.tobytes() == reference.phi1.tobytes()
    assert band.values.tobytes() == full.values[:, band.first : band.first + band.values.shape[1]].tobytes()


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


@pytest.mark.parametrize("n", [300, 60])       # records longer and shorter than the 85-tap window
def test_window_coverage_is_the_in_record_window_mass(n):
    # each frame's share of the window, its taps inside the record summed
    # directly: the first and last half + 1 frames, and one in between
    spec = stft(_tone(n=n), 1e-2)
    g = spec.window
    half = g.size // 2
    assert g.size == 85 and spec.n_times == n
    for frame in [*range(half + 1), *range(n - half - 1, n), n // 2]:
        taps = np.arange(frame - half, frame + half + 1)
        inside = g[(taps >= 0) & (taps < n)].sum()
        assert spec.window_coverage[frame] == pytest.approx(inside / g.sum(), rel=1e-12)


def test_long_record_keeps_extended_one_second_bin_width(long_chirp):
    _, spec = long_chirp
    # a 1 s record extended by 10% per side (2400 samples) has the same grid
    assert spec.bin_width == FS / fft_length(2400, spec.window.size) == FS / 4096


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


def test_row_blocked_band_sums_equal_the_one_shot_gather():
    # every row is reduced on its own, so summing the rows a block at a time
    # is bitwise the gather of all rows of a width at once: over 2 full
    # blocks and a one-row block, widths either side of numpy's pairwise
    # summation steps, bands from DC and to Nyquist, and mixed widths
    n_rows = 2 * stft_module._SUM_ROWS + 1
    x = RealSignal(np.random.default_rng(4).standard_normal(n_rows), FS)
    spec = stft(x, 1e-2)
    n_freq = spec.freq_axis.size
    assert spec.values.shape == (n_rows, n_freq)
    rng = np.random.default_rng(5)
    cases = []
    for w in (0, 1, 2, 7, 8, 9, 33, 129, n_freq):
        lo = rng.integers(0, n_freq - w + 1, n_rows)
        cases.append((lo, lo + w))
    cases.append((np.zeros(n_rows, dtype=int), np.full(n_rows, n_freq)))
    cases.append((np.zeros(n_rows, dtype=int), rng.integers(0, n_freq + 1, n_rows)))
    cases.append((rng.integers(0, n_freq + 1, n_rows), np.full(n_rows, n_freq)))
    lo = rng.integers(0, n_freq + 1, n_rows)
    cases.append((lo, rng.integers(lo, n_freq + 1)))
    for lo, hi in cases:
        got = stft_module._stored_band_sums(spec.values, 0, lo, hi, n_freq)
        assert got.tobytes() == gathered_band_sums(spec.values, lo, hi, n_freq).tobytes()
        # the same rows read from a band that starts at bin 3: none reaches DC
        lo = np.maximum(lo, 3)
        hi = np.maximum(hi, lo)
        got = stft_module._stored_band_sums(spec.values[:, 3:], 3, lo, hi, n_freq)
        assert got.tobytes() == gathered_band_sums(spec.values, lo, hi, n_freq).tobytes()


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
    out, _ = threshold_denoise(x, SIGMA)
    assert len(out) == len(x)
    assert snr_out(x, out) >= 30.0


def test_threshold_modes_from_one_spectrogram_equal_each_mode_alone(monkeypatch):
    x = add_noise(_tone(40.0, 5.0), 10.0, 2)
    alone = [threshold_denoise_mode(x, SIGMA, mode) for mode in ("hard", "soft")]
    made = []
    real_stft = stft_module.stft

    def counting_stft(*args):
        made.append(args)
        return real_stft(*args)

    monkeypatch.setattr(stft_module, "stft", counting_stft)
    both = threshold_denoise(x, SIGMA)
    assert len(made) == 1
    for y, ref in zip(both, alone, strict=True):
        assert y.samples.tobytes() == ref.samples.tobytes()


def test_threshold_coefficients_idempotent_and_soft_shrinks():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((50, 33)) + 1j * rng.standard_normal((50, 33))
    eta = 1.0
    hard1, soft1 = threshold_coefficients(F, eta)
    hard2, _ = threshold_coefficients(hard1, eta)
    assert np.array_equal(hard1, hard2)
    _, soft2 = threshold_coefficients(soft1, eta)
    assert np.all(np.abs(soft2) <= np.abs(soft1) + 1e-15)
    keep = np.abs(soft1) > 0
    assert np.allclose(np.angle(soft1[keep]), np.angle(F[keep]))

