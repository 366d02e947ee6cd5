"""Uniformly sampled real-valued signals and CSV I/O."""

from __future__ import annotations

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


def _parse_row(lineno: int, line: str) -> list[float]:
    try:
        return [float(v) for v in line.split(",")]
    except ValueError:
        raise ValueError(f"line {lineno}: non-numeric cell in {line!r}") from None


def read_signal_csv(path_or_buf, fs: float | None = None) -> RealSignal:
    """Read a signal from CSV.

    Accepted layouts: two columns ``t,value`` (fs inferred from the time
    column's span; a supplied fs is used when it agrees to the column's
    resolution) or a single ``value`` column (fs must be supplied). A
    header row is optional and detected by non-numeric content; any other
    non-numeric or empty cell is refused with its line number.
    """
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = path_or_buf.read()
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    try:
        _parse_row(*lines[0])
    except ValueError:
        lines = lines[1:]  # a header row
    try:
        data = np.loadtxt([ln for _, ln in lines], delimiter=",", ndmin=2)
    except ValueError:
        # loadtxt counts only the rows it is given: name the file's line
        width = len(lines[0][1].split(","))
        for lineno, line in lines:
            if len(_parse_row(lineno, line)) != width:
                raise ValueError(f"line {lineno} has {len(line.split(','))} columns, not {width}") from None
        raise
    if data.shape[1] == 1:
        if fs is None:
            raise ValueError("single-column CSV requires an explicit fs")
        return RealSignal(data[:, 0], fs=fs)
    if data.shape[1] != 2:
        raise ValueError(f"expected 1 or 2 columns, got {data.shape[1]}")
    if data.shape[0] < 2:       # one time stamp spans no time to read fs from
        raise ValueError("signal needs at least 2 samples in a 1-d array")
    t, v = data[:, 0], data[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError("time column must be strictly increasing")
    span = t[-1] - t[0]
    fs_inferred = (t.size - 1) / span
    # stamps far from 0 (epoch times) resolve fs only to their doubles' spacing
    tol = max(1e-6, 2 * np.spacing(np.max(np.abs(t))) / span)
    if fs is not None and not abs(fs - fs_inferred) <= tol * fs_inferred:
        raise ValueError(f"supplied fs={fs} disagrees with time column ({fs_inferred:.6g})")
    return RealSignal(v, fs=fs_inferred if fs is None else fs, t0=float(t[0]))


def write_signal_csv(path, signal: RealSignal) -> None:
    """Write a ``t,value`` header and rows; re-parseable by read_signal_csv,
    with the times read back as the same doubles."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        for ti, vi in zip(signal.times().tolist(), signal.samples):
            fh.write(f"{ti!r},{vi:.12g}\n")
