"""Gaussian-window short-time Fourier analysis with per-sample hop.

The window is g(n) = exp(-sigma*n^2) with n in samples, truncated where it
falls below 1e-8, and the transform uses a window-centered phase
convention so the phase at a ridge tracks the component's own phase. The
discrete vertical-reconstruction sum is normalized so that summing every
bin inverts the transform exactly: x(n) = Re[(1/nfft) * sum_k w_k F(n,k)]
with w = 2 on interior bins and 1 at DC/Nyquist (the window peak g(0) is 1).

The frequency grid is capped: nfft covers the record only up to
GRID_WINDOWS truncated windows, so beyond that length the spectrogram's
memory and FFT time grow linearly in the number of samples. Below it,
nfft is at least the frame's in-record support, min(N, window length),
and a caller that states the finest frequency step it reads lets a
window longer than the record go no finer than that step: a DFT longer
than a frame's nonzero support adds no resolution, it only interpolates
the spectrum. A window longer than nfft is folded, tap m added into FFT
index m mod nfft; at most one in-record tap lands on each index, so the
fold is exact.

`stft` makes one pass over the frames: it splits the frame rows into one
contiguous span per CPU the process may run on and runs the spans on a
thread pool (numpy's FFT and ufunc loops release the GIL), a one-thread
pool on one CPU. Each span is walked a block of frames at a time, and
each block is transformed over every bin into its worker's buffers; |F|
of the block gives its first maximum, and the blocks' maxima combine
into the ridge's anchor, the first global |F| maximum, unless the caller
walks no ridge (`anchor=False`). Only the bins between the caller's
min_freq and max_freq are then copied out and stored, in an anonymous
memory map whose pages go back to the OS when the spectrogram is
dropped. The spectrogram keeps the record and window it was computed
from, the band's first bin, and derives its frequency grid and window
coverage. A band sum that reaches outside the stored bins is computed
from the record (`vertical_reconstruct`): the record correlated with the
window times the band's closed-form Dirichlet kernel. Only a read
through `Spectrogram.bins` (the ridge walk, and the fundamental's band)
recomputes: a read above or below the stored band transforms, by the
same pass but with no anchor search (the anchor is known), a band that
spans the stored band and the read, at least twice the stored width,
grown toward the read and never past bin 0 or the last bin, and that
band serves every later read within it.

The pipeline chooses the band from a coarse ridge (`_coarse_ridge`): the
same pass over every H-th frame only, H the window's standard deviation
1/sqrt(2 sigma) in samples, over every bin, walked by `extract_ridge` from
those frames' own anchor. Its span, widened by the reads' reach, brackets
the per-sample ridge's reads, so a band regrows only where the per-sample
ridge strays from the coarse one.

The calling thread allocates every block buffer before the threads start, one set per worker, with BLOCK_ELEMENTS
shared among them: a buffer a worker thread allocated itself would stay
resident in that thread's malloc arena. Each call opens its own pool and
joins it before returning, so no pool is left for a forked child to
inherit without its threads. A row is computed the same way whatever
span and block hold it, so the output does not depend on the CPU count.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .signals import RealSignal

WINDOW_TRUNCATION = 1e-8
GRID_WINDOWS = 4               # nfft stops growing with N past this many windows
BLOCK_ELEMENTS = 262_144       # frame samples transformed per block of frames, all workers (5 MB of buffers)
_RIDGE_BLOCK = 256             # ridge frames stepped at once
_SUM_ROWS = 1024               # rows whose stored bands are gathered at once
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None  # glibc's


class ResolutionError(ValueError):
    """A parameter the record's STFT cannot honour: the window is too short
    or the ridge's frequency step falls below one bin. The bin width is
    fs/nfft, so the message names the parameter, its value, the record's
    sampling rate and which way to move the parameter."""


@dataclass
class Spectrogram:
    """Complex STFT matrix indexed [time sample][frequency bin], hop 1.

    values may hold only a band of the nfft/2+1 bins on freq_axis, bins
    first..first+K-1, bracketed below and above by `stft`'s min_freq and
    max_freq; read bins through `bins`, which recomputes a wider band from
    record and window when a read falls outside it, and index what it
    returns from `first`. The record is always held, so any bin can be
    recomputed or summed from it.
    anchor is the (frame, bin) of the first |F| maximum over all bins in
    time-major order, None when every entry is zero or when `stft` was
    asked for no anchor; `stft` finds it in its FFT pass. freq_axis and
    window_coverage are derived.
    """

    values: np.ndarray            # (N, K) complex, bins first..first+K-1
    fs: float
    nfft: int
    window: np.ndarray = field(repr=False)   # g, 2 * half + 1 taps, g(0) = 1 in the middle
    anchor: tuple[int, int] | None
    record: np.ndarray = field(repr=False)   # samples the values came from
    first: int = 0                # the band's first bin

    def bins(self, start: int, stop: int) -> np.ndarray:
        """Values holding at least bins start..stop-1, column j holding bin
        `first` + j (read `first` after the call): the stored band when it
        covers them, else a wider band recomputed from the record, which
        replaces the stored one for every later read. The wider band spans
        the stored band and the read, and holds at least twice the stored
        bins, grown toward the read and never past bin 0 or the last bin,
        so a walk that leaves the band bin by bin recomputes about
        log2(nfft / stored) times, not once per bin. The band sums of
        `vertical_reconstruct` read outside the band without it."""
        stored, n_freq = self.values.shape[1], self.freq_axis.size
        lo, hi = min(start, self.first), max(stop, self.first + stored)
        if hi - lo > stored:
            width = min(n_freq, max(hi - lo, 2 * stored))
            lo = max(0, hi - width) if start < self.first else min(lo, n_freq - width)
            self.values = None      # the old band's pages go back before the wider one is made
            self.values = _transform(self.record, self.window, self.nfft, lo, lo + width, anchor=False)[0]
            self.first = lo
        return self.values

    @functools.cached_property
    def freq_axis(self) -> np.ndarray:
        """Hz, all nfft/2+1 bins, strictly increasing, max fs/2."""
        return _frequency_grid(self.fs, self.nfft)

    @functools.cached_property
    def window_coverage(self) -> np.ndarray:
        """Fraction of the window mass falling inside the record, per frame."""
        half, n = self.window.size // 2, self.n_times
        cg = np.concatenate([[0.0], np.cumsum(self.window)])
        n_idx = np.arange(n)
        lo = np.maximum(0, half - n_idx)
        hi = np.minimum(2 * half, half + (n - 1 - n_idx))
        return (cg[hi + 1] - cg[lo]) / cg[-1]

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


def _frequency_grid(fs: float, nfft: int) -> np.ndarray:
    """The nfft/2+1 one-sided bin frequencies, Hz."""
    return np.arange(nfft // 2 + 1) * (fs / nfft)


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


def fft_length(n_samples: int, window_length: int, resolution: float | None = None) -> int:
    """FFT length of the STFT of an n_samples record with a window_length window.

    The next power of two covering max(L, min(N, GRID_WINDOWS * L)): the
    grid refines with the record up to GRID_WINDOWS windows and is fixed by
    the window beyond, so the (N, nfft/2+1) spectrogram grows linearly in N.
    A resolution, the finest frequency step the caller reads in cycles per
    sample (Hz / fs), lowers the window floor L to min(L, 1 / resolution):
    a window longer than the record then sizes no finer grid than the record
    and that step need, and the bin width stays at most the resolution.
    Either way nfft is at least min(N, L), the frame's in-record support,
    so a windowed frame folded into the FFT buffer (tap m at index m mod
    nfft) puts at most one in-record tap on each index.
    """
    floor = window_length if resolution is None else min(window_length, 1.0 / resolution)
    need = max(floor, min(n_samples, GRID_WINDOWS * window_length))
    return 1 << int(np.ceil(np.log2(need)))


def worker_count(n_items: int) -> int:
    """Workers for n_items independent items: one per CPU this process may
    run on, as many as os.cpu_count() where the affinity mask cannot be
    read, never more than there are items. The STFT runs that many threads
    over its frame rows, and the bench that many processes over its
    Monte-Carlo cells."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_items))


def _band_store(rows: int, cols: int) -> np.ndarray:
    """An uninitialised (rows, cols) complex array in an anonymous memory
    map, whose pages go back to the OS as soon as the array is dropped:
    glibc keeps a freed block under its 32 MB mmap threshold on the heap,
    where a live block above it can keep it resident. Free heap pages go
    back first (malloc_trim, the package's one heap trim): without that, the
    band stacked on 5-28 MB of a fit's freed arrays in some runs, as the
    pool threads' timing fell out."""
    if _MALLOC_TRIM:
        _MALLOC_TRIM(0)
    count = rows * cols
    buf = mmap.mmap(-1, max(1, count * np.dtype(complex).itemsize))
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=complex, count=count).reshape(rows, cols)


def _fold_runs(half: int, nfft: int) -> list[tuple[int, int, int]]:
    """(first column, end column, FFT index) of each run of a frame's
    2 * half + 1 taps that lands on consecutive FFT indices: column j holds
    tap m = j - half, which goes to index m mod nfft (window-centered phase).
    Runs end where the index wraps to 0 and at every multiple of nfft
    columns, so the runs that start in the first nfft columns fill every
    index once and each later run adds onto them. A window that fits in nfft
    has two runs: its right half from index 0, its left half at the end."""
    taps = 2 * half + 1
    cuts = sorted({0, taps, *range(nfft, taps, nfft), *range(half % nfft, taps, nfft)})
    return [(a, b, (a - half) % nfft) for a, b in zip(cuts, cuts[1:])]


def _transform(samples: np.ndarray, g: np.ndarray, nfft: int, lo: int, hi: int,
               anchor: bool = True, hop: int = 1) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Bins lo..hi-1 of the windowed FFT of every hop-th frame (frames 0,
    hop, 2 hop, ..., one row each), and with anchor the (row, bin) of the
    first |F| maximum over all bins in time-major order (None if all are
    zero, or without anchor).

    The rows split into one contiguous span per worker (`worker_count`),
    and each span is walked in blocks of at most BLOCK_ELEMENTS / workers
    frame samples. A window longer than nfft is folded (`_fold_runs`).
    Each block's |F| is taken as it leaves the FFT; the blocks' first
    maxima are combined in row order with a strict >, so a tie anchors at
    the earliest frame whatever the block and span boundaries.
    """
    n_bins, half = nfft // 2 + 1, g.size // 2
    padded = np.concatenate([np.zeros(half), samples, np.zeros(half)])
    frames = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)[::hop]
    n_rows = frames.shape[0]
    runs = _fold_runs(half, nfft)
    values = _band_store(n_rows, hi - lo)
    workers = worker_count(n_rows)
    bounds = [n_rows * w // workers for w in range(workers + 1)]
    chunk = max(1, min(-(-n_rows // workers), BLOCK_ELEMENTS // (workers * nfft)))
    # allocated here, before the pool starts: see the module docstring
    bufs = [(np.zeros((chunk, nfft)), np.empty((chunk, n_bins), complex),
             np.empty((chunk, n_bins if anchor else 0)))
            for _ in range(workers)]

    def walk_span(w: int) -> tuple[float, int]:
        best = (0.0, 0)
        for start in range(bounds[w], bounds[w + 1], chunk):
            stop = min(start + chunk, bounds[w + 1])
            b, spectrum, mag = (buf[: stop - start] for buf in bufs[w])
            # a window inside nfft leaves the middle of b unwritten, so 0; a
            # longer one's later runs add on through the spectrum's buffer,
            # free until the rfft fills it (a row holds 2 * n_bins > nfft doubles)
            for j0, j1, i in runs:
                if j0 < nfft:
                    np.multiply(frames[start:stop, j0:j1], g[j0:j1], out=b[:, i : i + j1 - j0])
                else:
                    added = spectrum.view(float)[:, : j1 - j0]
                    np.multiply(frames[start:stop, j0:j1], g[j0:j1], out=added)
                    b[:, i : i + j1 - j0] += added
            np.fft.rfft(b, axis=1, out=spectrum)
            values[start:stop] = spectrum[:, lo:hi]
            if anchor:
                np.abs(spectrum, out=mag)
                k = int(np.argmax(mag))
                if mag.flat[k] > best[0]:
                    best = (mag.flat[k], start * n_bins + k)
        return best

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # max keeps the first of equal maxima, so the earliest span's wins
        best, flat = max(pool.map(walk_span, range(workers)), key=lambda m: m[0])
    return values, (divmod(flat, n_bins) if best > 0 else None)


def stft(x: RealSignal, sigma: float, max_freq: float | None = None,
         min_freq: float | None = None, resolution: float | None = None,
         *, anchor: bool = True) -> Spectrogram:
    """Per-sample-hop Gaussian-window STFT with one-sided frequency axis.

    The FFT length is `fft_length(N, 2*half + 1, resolution / fs)`: it
    follows the record up to GRID_WINDOWS truncated windows and is fixed by
    the window beyond, so memory and FFT time are linear in N. resolution,
    the finest frequency step in Hz the caller reads, lets a window longer
    than the record size its grid by the record and that step; None keeps
    the window's grid. Only the bins from min_freq to max_freq Hz (at least
    the first bin at or above min_freq) are stored; None leaves that side
    open, and a min_freq at or below 0 keeps DC. The anchor is found over
    every bin either way, unless anchor is False (a caller that walks no
    ridge), which leaves it None.
    """
    if max_freq is not None and not max_freq >= 0:
        raise ValueError(f"max_freq must be non-negative, got {max_freq}")
    if min_freq is not None and not min_freq <= (np.inf if max_freq is None else max_freq):
        raise ValueError(f"min_freq must not exceed max_freq, got {min_freq} and {max_freq}")
    g, nfft = _grid(x, sigma, resolution)
    freq_axis = _frequency_grid(x.fs, nfft)
    first = 0 if min_freq is None else min(int(np.searchsorted(freq_axis, min_freq)), freq_axis.size - 1)
    stop = freq_axis.size if max_freq is None else int(np.searchsorted(freq_axis, max_freq, side="right"))
    values, found = _transform(x.samples, g, nfft, first, max(first + 1, stop), anchor)
    return Spectrogram(values, x.fs, nfft, g, found, x.samples, first)


def _grid(x: RealSignal, sigma: float, resolution: float | None) -> tuple[np.ndarray, int]:
    """The window and FFT length of `stft(x, sigma, resolution=resolution)`,
    raising its errors on sigma and resolution."""
    g, half = gaussian_window(sigma)
    if 2 * half + 1 < 8:
        raise ResolutionError(
            f"sigma={sigma:g} leaves a window of {2 * half + 1} samples, under 8; lower sigma"
        )
    if resolution is not None and not 0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    return g, fft_length(len(x), 2 * half + 1, None if resolution is None else resolution / x.fs)


def _coarse_ridge(x: RealSignal, sigma: float, resolution: float | None, max_jump_hz: float) -> np.ndarray:
    """Hz of `extract_ridge` over every H-th frame of `stft(x, sigma,
    resolution=resolution)`, frames 0, H, 2H, ..., H the window's standard
    deviation 1/sqrt(2 sigma) in samples (at least 1).

    The frames go through `_transform`'s pass over every bin, which finds
    their anchor, and the walk steps at most I_f per coarse frame: I_f is
    not scaled by H, since a jump H times wider reaches the second harmonic.
    The pipeline stores the per-sample spectrogram's band around this ridge.
    """
    g, nfft = _grid(x, sigma, resolution)
    hop = max(1, int(1.0 / np.sqrt(2.0 * sigma)))
    values, found = _transform(x.samples, g, nfft, 0, nfft // 2 + 1, hop=hop)
    # a spectrogram of the coarse frames, every bin stored, so the walk grows no band
    return extract_ridge(Spectrogram(values, x.fs, nfft, g, found, x.samples), max_jump_hz).freq


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
        raise ValueError("spectrogram has no anchor: all-zero, or made with anchor=False")
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
    maximum. Each sweep reads its corridors through `Spectrogram.bins`,
    from the lowest corridor's first bin to the highest's last.
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
            # one expression, so no name holds the band when a read outside it
            # makes `bins` replace it; spec.first is read after `bins` moved it
            mag = np.abs(np.lib.stride_tricks.sliding_window_view(
                spec.bins(int(lo.min()), int(lo.max()) + width), width, axis=1)[rows[fixed:], lo - spec.first])
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
    whose window overhangs the record edges. Bands that reach outside the
    stored bins are summed from the record, and the stored band is kept.
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
    bottom, top = int(lo.min(initial=n_freq)), int(hi.max(initial=0))
    if bottom < spec.first or top > spec.first + spec.values.shape[1]:
        out = _record_band_sums(spec, lo, hi)
    else:
        out = _stored_band_sums(spec.values, spec.first, lo, hi, n_freq)
    out /= spec.nfft
    out /= spec.window_coverage
    return out


def _stored_band_sums(values: np.ndarray, first: int, lo: np.ndarray, hi: np.ndarray,
                      n_freq: int) -> np.ndarray:
    """Each row's weighted sum over bins [lo, hi), of n_freq, of values, a
    band whose column j holds bin first + j and which covers every [lo,
    hi): weight 2 everywhere except DC and Nyquist.

    The rows whose band holds w bins are summed together, _SUM_ROWS at a
    time: indexing a width-w sliding view by (row, lo) copies out only
    their bands, and a block bounds that copy. Each row is reduced on its
    own, so the sums do not depend on the blocks.
    """
    out = np.empty(values.shape[0], dtype=complex)
    width = hi - lo
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        bands = np.lib.stride_tricks.sliding_window_view(values, w, axis=1)
        for b0 in range(0, rows.size, _SUM_ROWS):
            block = rows[b0 : b0 + _SUM_ROWS]
            out[block] = 2.0 * bands[block, lo[block] - first].sum(axis=1)
    # a row reaches DC only in a band from bin 0, and Nyquist only in one to the last bin
    dc, nyquist = lo == 0, hi == n_freq
    out[dc] -= values[dc, 0]
    out[nyquist] -= values[nyquist, -1]
    return out


def _record_band_sums(spec: Spectrogram, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each frame's weighted bin sum over [lo, hi), taken from the record.

    F(n, k) = sum_m x(n + m) g(m) exp(-2 pi i k m / nfft), so a band sum is
    the record correlated with g * D, D the band's Dirichlet kernel with the
    one-sided weights:
        D(m) = 2 sum_{k=lo}^{hi-1} exp(-2 pi i k m / nfft) - [lo = 0] - [hi = nfft/2 + 1] (-1)^m.
    The correlation runs over a length L, a power of two past N + half and
    a multiple of nfft, so it never wraps, and the factor exp(-2 pi i k m /
    nfft) shifts a kernel's FFT by k L / nfft bins. So the record takes one
    FFT; each distinct width w = hi - lo takes one, of its lo = 0 kernel in
    closed form,
        g(m) * 2 exp(-i pi m (w - 1) / nfft) sin(pi m w / nfft) / sin(pi m / nfft)
    (2w g(m) where m is a multiple of nfft, the arguments reduced modulo
    2 nfft in integers), whose w = 1 case, halved, is the DC and (shifted)
    Nyquist term; and each distinct band takes one inverse FFT. A window
    longer than the record can hold taps at nonzero multiples of nfft and
    put two taps on one of the L slots; such taps lie N or more samples from
    the frame, so they never meet the record.
    """
    half, nfft, n_freq, n = spec.window.size // 2, spec.nfft, spec.freq_axis.size, spec.n_times
    size = max(nfft, 1 << int(np.ceil(np.log2(n + half))))
    m = np.arange(-half, half + 1)
    inner = m % nfft != 0

    @functools.cache
    def width_kernel(w: int) -> np.ndarray:
        d = np.full(m.size, 2.0 * w, dtype=complex)
        d[inner] = (2.0 * np.exp(-1j * np.pi * (m[inner] * (w - 1) % (2 * nfft)) / nfft)
                    * np.sin(np.pi * (m[inner] * w % (2 * nfft)) / nfft)
                    / np.sin(np.pi * m[inner] / nfft))
        # tap m sits at -m: the circular convolution is the correlation
        placed = np.zeros(size, dtype=complex)
        placed[-m % size] = spec.window * d
        return np.fft.fft(placed)

    record = np.fft.fft(spec.record, size)
    out = np.empty(n, dtype=complex)
    bands, rows = np.unique(lo * (n_freq + 1) + hi, return_inverse=True)
    for j, (a, b) in enumerate(zip(*np.divmod(bands, n_freq + 1))):
        kernel = np.roll(width_kernel(int(b - a)), a * (size // nfft))
        if a == 0:
            kernel -= width_kernel(1) / 2
        if b == n_freq:
            kernel -= np.roll(width_kernel(1), size // 2) / 2
        sel = np.flatnonzero(rows == j)
        out[sel] = np.fft.ifft(record * kernel)[sel]
    return out


def _resynthesis(values: np.ndarray, nfft: int) -> np.ndarray:
    """Real signal from every one-sided bin of an nfft-point STFT: weight 2
    on interior bins, 1 at DC and Nyquist."""
    w = np.full(nfft // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return (values @ w).real / nfft


@dataclass
class FundamentalEstimate:
    """Instantaneous amplitude and phase of the fundamental component."""

    B1: np.ndarray      # > 0, signal units
    phi1: np.ndarray    # cycles, unwrapped, non-decreasing
    fs: float


def mean_frequency(phi: np.ndarray, fs: float) -> float:
    """Mean frequency, Hz, of a phase track in cycles sampled at fs."""
    return float((phi[-1] - phi[0]) / (len(phi) - 1) * fs)


def estimate_fundamental(
    spec: Spectrogram, max_jump_hz: float, delta: float
) -> tuple[FundamentalEstimate, Ridge]:
    """Amplitude/phase of the most energetic ridge.

    B1 is floored at a small positivity guard (the wave-shape pipeline
    divides by it); phi1 is the unwrapped ridge phase in cycles with any
    negative increments clipped to zero.
    """
    ridge = extract_ridge(spec, max_jump_hz)
    # the band is summed from stored bins, grown if it falls short: a sum
    # from the record differs in its last bits, and the fit follows them
    spec.bins(int(np.searchsorted(spec.freq_axis, ridge.freq.min() - delta)),
              int(np.searchsorted(spec.freq_axis, ridge.freq.max() + delta, side="right")))
    y = vertical_reconstruct(spec, ridge, delta)
    b1 = np.abs(y)
    scale = max(float(b1.max()), 0.0)
    guard = max(1e-3 * scale, np.finfo(float).eps)
    b1 = np.maximum(b1, guard)
    phi = np.unwrap(np.angle(y)) / (2 * np.pi)
    inc = np.diff(phi)
    phi1 = phi[0] + np.concatenate([[0.0], np.cumsum(np.maximum(inc, 0.0))])
    return FundamentalEstimate(B1=b1, phi1=phi1, fs=spec.fs), ridge


def threshold_coefficients(values: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Hard- and soft-thresholded copies of complex STFT coefficients at level eta."""
    mag = np.abs(values)
    shrink = np.maximum(mag - eta, 0.0) / np.where(mag > 0, mag, 1.0)    # 0 where |F| = 0
    return np.where(mag < eta, 0.0, values), values * shrink


def noise_sigma_estimate(spec: Spectrogram) -> float:
    """Median-absolute-deviation noise scale from the real part of the STFT.

    sigma_hat = median(|Re F|) / (0.6745 * ||g||_2). Against white noise of
    variance v this statistic concentrates near sqrt(v/2) (the real part of
    a generic bin carries half the coefficient variance); the matching
    sqrt(2) reappears in the denoising threshold.
    """
    med = float(np.median(np.abs(spec.bins(0, spec.freq_axis.size).real)))
    return med / (0.6745 * float(np.linalg.norm(spec.window)))


def threshold_denoise(x: RealSignal, sigma: float) -> tuple[RealSignal, RealSignal]:
    """STFT-thresholding denoisers (baselines): (hard, soft).

    One spectrogram and one threshold eta = 3*sqrt(2)*sigma_hat*||g||_2 on
    coefficient magnitudes, then each thresholded set's full-band
    resynthesis, trimmed to the input support.
    """
    spec = stft(x, sigma, anchor=False)
    eta = 3.0 * np.sqrt(2.0) * noise_sigma_estimate(spec) * np.linalg.norm(spec.window)
    return tuple(x.with_samples(_resynthesis(v, spec.nfft)) for v in threshold_coefficients(spec.values, eta))
