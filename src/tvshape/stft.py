"""Gaussian-window short-time Fourier analysis with per-sample hop.

The window is g(n) = exp(-sigma*n^2) with n in samples, truncated where it
falls below 1e-8, and the transform uses a window-centered phase
convention so the phase at a ridge tracks the component's own phase. The
discrete vertical-reconstruction sum is normalized so that summing every
bin inverts the transform exactly: x(n) = Re[(1/nfft) * sum_k w_k F(n,k)]
with w = 2 on interior bins and 1 at DC/Nyquist (the window peak g(0) is 1).

The frequency grid is capped: nfft covers the record only up to
GRID_WINDOWS truncated windows, so beyond that length the spectrogram's
memory and FFT time grow linearly in the number of samples.

`stft` makes one pass over the frames: it splits the frame rows into one
contiguous span per CPU the process may run on and runs the spans on
threads (numpy's FFT and ufunc loops release the GIL). Each block of
frames is transformed over every bin into its worker's buffers; |F| of
the block gives its first maximum, and the blocks' maxima combine into
the ridge's anchor, the first global |F| maximum. Only the bins up to the
caller's max_freq are then copied out and stored, in an anonymous memory
map whose pages go back to the OS when the spectrogram is dropped. The
ridge walk and the band sums read through `Spectrogram.bins`: a read past
the stored band recomputes the full-width transform once, by the same
pass, and serves every later read from it.

The calling thread allocates every block buffer before the threads start,
one set per worker, with BLOCK_ELEMENTS shared among them: a buffer a
worker thread allocated itself would stay resident in that thread's
malloc arena. Each call opens its own pool and joins it before returning,
so no pool is left for a forked child (the bench's process pool) to
inherit without its threads. Every span computes the rows it owns exactly
as the single-threaded loop does, so the output does not depend on the
CPU count.
"""

from __future__ import annotations

import mmap
import os
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .signals import RealSignal

WINDOW_TRUNCATION = 1e-8
GRID_WINDOWS = 4               # nfft stops growing with N past this many windows
BLOCK_ELEMENTS = 262_144       # frame samples transformed per block of frames, all workers (5 MB of buffers)
_RIDGE_BLOCK = 256             # ridge frames stepped at once


class ResolutionError(ValueError):
    """A parameter the record's STFT cannot honour: the window is too short
    or the ridge's frequency step falls below one bin. The bin width is
    fs/nfft, so the message names the parameter, its value, the record's
    sampling rate and which way to move the parameter."""


@dataclass
class Spectrogram:
    """Complex STFT matrix indexed [time sample][frequency bin], hop 1.

    values may hold only the low bins 0..K-1 of the nfft/2+1 on freq_axis;
    read bins through `bins`, which recomputes the rest when asked for
    them. anchor is the (frame, bin) of the first |F| maximum over all
    bins in time-major order, None when every entry is zero; `stft` finds
    it in its FFT pass.
    """

    values: np.ndarray            # (N, K) complex, bins 0..K-1
    freq_axis: np.ndarray         # Hz, all nfft/2+1 bins, strictly increasing, max fs/2
    fs: float
    window_norm: float            # ||g||_2
    window_halfwidth: int         # samples, truncation at 1e-8
    nfft: int
    window_coverage: np.ndarray   # in-record window mass per frame
    anchor: tuple[int, int] | None
    full_width: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    def bins(self, stop: int) -> np.ndarray:
        """Values holding at least bins 0..stop-1: the stored band when it
        reaches that far, else the full-width transform, recomputed once by
        `full_width`, which replaces the band for every later read."""
        if stop > self.values.shape[1]:
            if self.full_width is None:
                raise ValueError(f"bin {stop - 1} lies past the {self.values.shape[1]} stored bins")
            self.values = self.full_width()
            self.full_width = None
        return self.values

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def bin_width(self) -> float:
        return self.fs / self.nfft


@dataclass
class Ridge:
    """Per-sample frequency track of one component."""

    freq: np.ndarray              # Hz, one entry per time index


def gaussian_window(sigma: float) -> tuple[np.ndarray, int]:
    """Sampled window and its half-width at the 1e-8 truncation level."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    half = int(np.floor(np.sqrt(np.log(1.0 / WINDOW_TRUNCATION) / sigma)))
    n = np.arange(-half, half + 1)
    return np.exp(-sigma * n * n), half


def default_band_halfwidth(sigma: float, fs: float) -> float:
    """Half-support of the window's Fourier transform at the 1e-3 level, Hz."""
    return float(np.sqrt(np.log(1e3) * sigma) / np.pi * fs)


def fft_length(n_samples: int, window_length: int) -> int:
    """FFT length of the STFT of an n_samples record with a window_length window.

    The next power of two covering max(L, min(N, GRID_WINDOWS * L)): the
    grid refines with the record up to GRID_WINDOWS windows and is fixed by
    the window beyond, so the (N, nfft/2+1) spectrogram grows linearly in N.
    nfft >= L lets each windowed frame wrap into the FFT buffer without
    overlapping itself.
    """
    need = max(window_length, min(n_samples, GRID_WINDOWS * window_length))
    return 1 << int(np.ceil(np.log2(need)))


def worker_count(n_rows: int) -> int:
    """Threads for a pass over n_rows frame rows: one per CPU this process
    may run on, as many as os.cpu_count() where the affinity mask cannot be
    read, never more than there are rows."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_rows))


def _map_blocks(fn, n_rows: int, width: int, alloc) -> list:
    """[fn(bufs, start, stop) for every block of rows start:stop], in row order.

    The rows split into one contiguous span per worker (`worker_count`), and
    each span is walked in blocks of at most BLOCK_ELEMENTS / workers
    entries of `width` columns. bufs are the first stop - start rows of the
    arrays of its worker's alloc(rows) tuple, holding whatever fn wrote to
    them in the worker's previous blocks. The calling thread allocates every
    worker's arrays before the pool starts and the pool is joined before
    returning.
    """
    workers = worker_count(n_rows)
    bounds = [n_rows * w // workers for w in range(workers + 1)]
    chunk = max(1, min(-(-n_rows // workers), BLOCK_ELEMENTS // (workers * width)))
    bufs = [alloc(chunk) for _ in range(workers)]

    def walk_span(w: int) -> list:
        out = []
        for start in range(bounds[w], bounds[w + 1], chunk):
            stop = min(start + chunk, bounds[w + 1])
            out.append(fn(tuple(b[: stop - start] for b in bufs[w]), start, stop))
        return out

    if workers == 1:
        return walk_span(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [r for span in pool.map(walk_span, range(workers)) for r in span]


def _band_store(rows: int, cols: int) -> np.ndarray:
    """An uninitialised (rows, cols) complex array in an anonymous memory
    map, whose pages go back to the OS as soon as the array is dropped:
    glibc keeps a freed block under its 32 MB mmap threshold on the heap."""
    count = rows * cols
    buf = mmap.mmap(-1, max(1, count * np.dtype(complex).itemsize))
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=complex, count=count).reshape(rows, cols)


def _transform(samples: np.ndarray, g: np.ndarray, half: int, nfft: int,
               keep: int) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Bins 0..keep-1 of every frame's windowed FFT, and the (frame, bin) of
    the first |F| maximum over all bins in time-major order (None if all
    are zero).

    Each block's |F| is taken as it leaves the FFT; the blocks' maxima are
    combined in row order with a strict >, so a tie anchors at the earliest
    frame whatever the block and span boundaries.
    """
    n_rows, n_bins = samples.size, nfft // 2 + 1
    padded = np.concatenate([np.zeros(half), samples, np.zeros(half)])
    frames = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    values = _band_store(n_rows, keep)

    def alloc(rows: int) -> tuple:
        return np.zeros((rows, nfft)), np.empty((rows, n_bins), complex), np.empty((rows, n_bins))

    def transform(bufs: tuple, start: int, stop: int) -> tuple[float, int]:
        b, spectrum, mag = bufs
        # window-centered phase: g's center goes to FFT index 0 and its left
        # half wraps to the end; the middle of b is never written, so stays 0
        np.multiply(frames[start:stop, half:], g[half:], out=b[:, : half + 1])
        np.multiply(frames[start:stop, :half], g[:half], out=b[:, nfft - half :])
        np.fft.rfft(b, axis=1, out=spectrum)
        values[start:stop] = spectrum[:, :keep]
        np.abs(spectrum, out=mag)
        k = int(np.argmax(mag))
        return mag.flat[k], start * n_bins + k

    best, flat = 0.0, 0
    for block_best, k in _map_blocks(transform, n_rows, nfft, alloc):
        if block_best > best:
            best, flat = block_best, k
    return values, (divmod(flat, n_bins) if best > 0 else None)


def stft(x: RealSignal, sigma: float, max_freq: float | None = None) -> Spectrogram:
    """Per-sample-hop Gaussian-window STFT with one-sided frequency axis.

    The FFT length is `fft_length(N, 2*half + 1)`: it follows the record up
    to GRID_WINDOWS truncated windows and is fixed by the window beyond, so
    memory and FFT time are linear in N. Only the bins at or below max_freq
    Hz (at least DC) are stored; None stores every bin. The anchor is
    found over every bin either way.
    """
    g, half = gaussian_window(sigma)
    if 2 * half + 1 < 8:
        raise ResolutionError(
            f"sigma={sigma:g} leaves a window of {2 * half + 1} samples, under 8; lower sigma"
        )
    if max_freq is not None and not max_freq >= 0:
        raise ValueError(f"max_freq must be non-negative, got {max_freq}")
    N = len(x)
    nfft = fft_length(N, 2 * half + 1)
    freq_axis = np.arange(nfft // 2 + 1) * (x.fs / nfft)
    n_bins = freq_axis.size
    keep = n_bins if max_freq is None else max(1, int(np.searchsorted(freq_axis, max_freq, side="right")))
    values, anchor = _transform(x.samples, g, half, nfft, keep)
    # fraction of the window mass falling inside the record, per frame
    cg = np.concatenate([[0.0], np.cumsum(g)])
    n_idx = np.arange(N)
    lo = np.maximum(0, half - n_idx)
    hi = np.minimum(2 * half, half + (N - 1 - n_idx))
    coverage = (cg[hi + 1] - cg[lo]) / cg[-1]
    return Spectrogram(
        values=values,
        freq_axis=freq_axis,
        fs=x.fs,
        window_norm=float(np.linalg.norm(g)),
        window_halfwidth=half,
        nfft=nfft,
        window_coverage=coverage,
        anchor=anchor,
        full_width=None if keep == n_bins else lambda: _transform(x.samples, g, half, nfft, n_bins)[0],
    )


def extract_ridge(spec: Spectrogram, max_jump_hz: float) -> Ridge:
    """Greedy maximum-energy ridge.

    Anchors at the global spectrogram maximum and extends forward and
    backward: each frame takes the first |F| maximum within +-max_jump_hz
    of its predecessor's bin. The walk goes a block of frames at a time
    (`_walk`) and returns the per-frame loop's bins exactly.
    """
    if max_jump_hz <= 0:
        raise ValueError("max frequency jump must be positive")
    if max_jump_hz < spec.bin_width:
        raise ResolutionError(
            f"max jump I_f={max_jump_hz:g} Hz is below one bin width {spec.bin_width:.4g} Hz"
            f" at fs={spec.fs:g} Hz (nfft={spec.nfft}); raise I_f or lower sigma"
        )
    if spec.anchor is None:
        raise ValueError("all-zero spectrogram")
    n_time = spec.n_times
    anchor_t, anchor_f = spec.anchor

    jump_bins = max(1, int(np.floor(max_jump_hz / spec.bin_width)))
    idx = np.empty(n_time, dtype=int)
    idx[anchor_t] = anchor_f
    forward = np.arange(anchor_t + 1, n_time)
    backward = np.arange(anchor_t - 1, -1, -1)
    idx[forward] = _walk(spec, anchor_f, forward, jump_bins)
    idx[backward] = _walk(spec, anchor_f, backward, jump_bins)
    return Ridge(freq=spec.freq_axis[idx])


def _walk(spec: Spectrogram, start: int, frames: np.ndarray, jump: int) -> np.ndarray:
    """Bins of frames[0], frames[1], ... in turn, each the first maximum of
    |F| in its frame over [p - jump, p + jump] (clipped to the band),
    p the previous frame's bin and start the bin before frames[0].

    A block of up to _RIDGE_BLOCK frames starts from a guess, every frame
    at the last fixed bin, and a sweep steps every frame at once from its
    predecessor's guess. Where the sweep first differs from the guess its
    bins are exact up to that frame, whose predecessor's guess was right;
    they become the next guess, and the frames after it are swept again,
    until a sweep reproduces its guess: then every frame follows from an
    exact predecessor. A sweep reads each frame's corridor at the fixed
    width min(2 * jump + 1, n_freq) and sets the entries outside the
    clipped corridor below zero, so argmax finds the per-frame first
    maximum. Each sweep reads its corridors through `Spectrogram.bins`.
    """
    n_freq = spec.freq_axis.size
    width = min(2 * jump + 1, n_freq)
    offsets = np.arange(width)
    out = np.empty(frames.size, dtype=int)
    for b0 in range(0, frames.size, _RIDGE_BLOCK):
        rows = frames[b0 : b0 + _RIDGE_BLOCK]
        prev = start if b0 == 0 else out[b0 - 1]
        guess = np.full(rows.size, prev)
        fixed = 0               # leading frames of the block known exact
        while fixed < rows.size:
            pred = np.concatenate([[prev], guess[:-1]])[fixed:]
            a = np.maximum(pred - jump, 0)
            b = np.minimum(pred + jump + 1, n_freq)
            lo = np.minimum(a, n_freq - width)          # [a, b) lies in [lo, lo + width)
            values = spec.bins(int(lo.max()) + width)
            bands = np.lib.stride_tricks.sliding_window_view(values, width, axis=1)
            mag = np.abs(bands[rows[fixed:], lo])
            mag[(offsets < (a - lo)[:, None]) | (offsets >= (b - lo)[:, None])] = -1.0
            step = lo + np.argmax(mag, axis=1)
            moved = np.flatnonzero(step != guess[fixed:])
            guess[fixed:] = step
            fixed = rows.size if moved.size == 0 else fixed + moved[0] + 1
        out[b0 : b0 + rows.size] = guess
    return out


def vertical_reconstruct(spec: Spectrogram, ridge: Ridge, delta: float) -> np.ndarray:
    """Complex component recovered by summing bins within delta of the ridge.

    Normalized so that a full-band sum inverts the transform on frames whose
    window lies inside the record; with a band restricted around one
    component, the result approximates its analytic signal (magnitude =
    instantaneous amplitude, phase = 2*pi*phase). The per-frame in-record
    window mass is divided out, undoing the amplitude shrinkage of frames
    whose window overhangs the record edges.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if ridge.freq.shape[0] != spec.n_times:
        raise ValueError("ridge length does not match the spectrogram")
    if np.any(ridge.freq - delta < -spec.bin_width) or np.any(
        ridge.freq + delta > spec.fs / 2 + spec.bin_width
    ):
        warnings.warn("reconstruction band clipped to [0, fs/2]", stacklevel=2)
    n_freq = spec.freq_axis.size
    lo = np.searchsorted(spec.freq_axis, ridge.freq - delta, side="left")
    hi = np.searchsorted(spec.freq_axis, ridge.freq + delta, side="right")
    lo = np.clip(lo, 0, n_freq)
    hi = np.clip(hi, lo, n_freq)
    # one-sided doubling: weight 2 everywhere except DC and Nyquist. The
    # frames whose band holds w bins are summed together: indexing a
    # width-w sliding view by (frame, lo) copies out only their bands. A
    # band that reaches Nyquist reads the full width, whose last bin it is.
    values = spec.bins(int(hi.max(initial=0)))
    out = np.empty(spec.n_times, dtype=complex)
    width = hi - lo
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        bands = np.lib.stride_tricks.sliding_window_view(values, w, axis=1)
        out[rows] = 2.0 * bands[rows, lo[rows]].sum(axis=1)
    dc, nyquist = lo == 0, hi == n_freq
    out[dc] -= values[dc, 0]
    out[nyquist] -= values[nyquist, -1]
    out /= spec.nfft
    out /= spec.window_coverage
    return out


def full_band_resynthesis(spec: Spectrogram) -> np.ndarray:
    """Real signal recovered from all bins (exact inverse of stft)."""
    w = np.full(spec.freq_axis.size, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return (spec.bins(w.size) @ w).real / spec.nfft


@dataclass
class FundamentalEstimate:
    """Instantaneous amplitude and phase of the fundamental component."""

    B1: np.ndarray      # > 0, signal units
    phi1: np.ndarray    # cycles, unwrapped, non-decreasing
    fs: float

    def mean_if(self) -> float:
        """Average instantaneous frequency in Hz."""
        return float((self.phi1[-1] - self.phi1[0]) / (len(self.phi1) - 1) * self.fs)


def estimate_fundamental(
    spec: Spectrogram, max_jump_hz: float, delta: float
) -> tuple[FundamentalEstimate, Ridge]:
    """Amplitude/phase of the most energetic ridge.

    B1 is floored at a small positivity guard (the wave-shape pipeline
    divides by it); phi1 is the unwrapped ridge phase in cycles with any
    negative increments clipped to zero.
    """
    ridge = extract_ridge(spec, max_jump_hz)
    y = vertical_reconstruct(spec, ridge, delta)
    b1 = np.abs(y)
    scale = max(float(b1.max()), 0.0)
    guard = max(1e-3 * scale, np.finfo(float).eps)
    b1 = np.maximum(b1, guard)
    phi = np.unwrap(np.angle(y)) / (2 * np.pi)
    inc = np.diff(phi)
    phi1 = phi[0] + np.concatenate([[0.0], np.cumsum(np.maximum(inc, 0.0))])
    return FundamentalEstimate(B1=b1, phi1=phi1, fs=spec.fs), ridge


def threshold_coefficients(values: np.ndarray, eta: float, mode: str) -> np.ndarray:
    """Hard/soft thresholding of complex STFT coefficients at level eta."""
    mag = np.abs(values)
    if mode == "hard":
        return np.where(mag < eta, 0.0, values)
    if mode == "soft":
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(mag > 0, np.maximum(mag - eta, 0.0) / np.where(mag > 0, mag, 1.0), 0.0)
        return values * scale
    raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")


def noise_sigma_estimate(spec: Spectrogram) -> float:
    """Median-absolute-deviation noise scale from the real part of the STFT.

    sigma_hat = median(|Re F|) / (0.6745 * ||g||_2). Against white noise of
    variance v this statistic concentrates near sqrt(v/2) (the real part of
    a generic bin carries half the coefficient variance); the matching
    sqrt(2) reappears in the denoising threshold.
    """
    med = float(np.median(np.abs(spec.bins(spec.freq_axis.size).real)))
    return med / (0.6745 * spec.window_norm)


def threshold_denoise(x: RealSignal, sigma: float, mode: str = "hard") -> RealSignal:
    """STFT-thresholding denoiser (baseline).

    Threshold eta = 3*sqrt(2)*sigma_hat*||g||_2 applied to coefficient
    magnitudes, then full-band resynthesis trimmed to the input support.
    """
    spec = stft(x, sigma)
    sigma_hat = noise_sigma_estimate(spec)
    eta = 3.0 * np.sqrt(2.0) * sigma_hat * spec.window_norm
    spec.values = threshold_coefficients(spec.values, eta, mode)
    return x.with_samples(full_band_resynthesis(spec))
