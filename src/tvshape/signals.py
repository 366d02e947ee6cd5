"""Uniformly sampled real-valued signals and CSV I/O."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RealSignal:
    """A uniformly sampled real signal.

    samples are in signal units, fs in Hz, t0 is the time of the first
    sample in seconds.
    """

    samples: np.ndarray
    fs: float
    t0: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if not 0 < self.fs < np.inf:
            raise ValueError(f"fs must be finite and positive, got {self.fs}")
        if not -np.inf < self.t0 < np.inf:
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("signal needs at least 2 samples in a 1-d array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal samples must all be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Record length in seconds (N / fs)."""
        return self.samples.size / self.fs

    def times(self) -> np.ndarray:
        """Sample times in seconds."""
        return self.t0 + np.arange(self.samples.size) / self.fs

    def with_samples(self, samples: np.ndarray) -> "RealSignal":
        """Same axis, new sample values."""
        return RealSignal(np.asarray(samples, dtype=float), self.fs, self.t0)


def read_signal_csv(path_or_buf, fs: float | None = None) -> RealSignal:
    """Read a signal from CSV.

    Accepted layouts: two columns ``t,value`` (fs inferred from the time
    column) or a single ``value`` column (fs must be supplied). A header
    row is optional and detected by non-numeric content.
    """
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = path_or_buf.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    first = lines[0].split(",")
    try:
        [float(v) for v in first]
        skip = 0
    except ValueError:
        skip = 1
    data = np.genfromtxt(io.StringIO("\n".join(lines[skip:])), delimiter=",")
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[1] == 1:
        if fs is None:
            raise ValueError("single-column CSV requires an explicit fs")
        return RealSignal(data[:, 0], fs=fs)
    if data.shape[1] != 2:
        raise ValueError(f"expected 1 or 2 columns, got {data.shape[1]}")
    t, v = data[:, 0], data[:, 1]
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("time column must be strictly increasing")
    fs_inferred = 1.0 / float(np.median(dt))
    if fs is not None and not abs(fs - fs_inferred) <= 1e-6 * fs_inferred:
        raise ValueError(
            f"supplied fs={fs} disagrees with time column ({fs_inferred:.6g})"
        )
    return RealSignal(v, fs=fs_inferred, t0=float(t[0]))


def write_signal_csv(path, signal: RealSignal) -> None:
    """Write a ``t,value`` header and rows; re-parseable by read_signal_csv."""
    t = signal.times()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        for ti, vi in zip(t, signal.samples):
            fh.write(f"{ti:.9g},{vi:.12g}\n")
