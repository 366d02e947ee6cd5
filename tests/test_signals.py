import io

import numpy as np
import pytest

from tvshape import RealSignal, read_signal_csv, write_signal_csv


def test_validation():
    with pytest.raises(ValueError):
        RealSignal(np.array([1.0]), fs=10.0)
    with pytest.raises(ValueError):
        RealSignal(np.array([1.0, 2.0]), fs=0.0)
    with pytest.raises(ValueError):
        RealSignal(np.array([1.0, np.nan]), fs=10.0)


@pytest.mark.parametrize("fs", [float("nan"), float("inf"), -10.0])
def test_fs_must_be_finite_and_positive(fs):
    with pytest.raises(ValueError, match="fs must be finite and positive"):
        RealSignal(np.array([1.0, 2.0]), fs=fs)
    with pytest.raises(ValueError):
        read_signal_csv(io.StringIO("0,1\n0.1,2\n0.2,3\n"), fs=fs)


@pytest.mark.parametrize("t0", [float("nan"), float("inf"), -float("inf")])
def test_t0_must_be_finite(t0):
    # a NaN start time would otherwise reach the fit as NaN node times
    with pytest.raises(ValueError, match="t0 must be finite"):
        RealSignal(np.array([1.0, 2.0]), fs=10.0, t0=t0)


def test_times_and_duration():
    s = RealSignal(np.zeros(10), fs=5.0, t0=1.0)
    assert s.duration == 2.0
    assert np.allclose(s.times(), 1.0 + np.arange(10) / 5.0)


def test_csv_roundtrip_two_columns(tmp_path):
    s = RealSignal(np.sin(np.arange(50)), fs=100.0, t0=0.25)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, s)
    back = read_signal_csv(path)
    assert back.fs == pytest.approx(100.0, rel=1e-6)
    assert back.t0 == pytest.approx(0.25)
    assert np.allclose(back.samples, s.samples)


def test_csv_single_column_needs_fs():
    buf = io.StringIO("value\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(buf)
    buf = io.StringIO("1.0\n2.0\n3.0\n")
    s = read_signal_csv(buf, fs=10.0)
    assert len(s) == 3 and s.fs == 10.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, fs",
    [
        ("t,value\n0,1\n", None),
        ("t,value\n0,1\n", 2000.0),
        ("0,1\n", None),
        ("0,1\n", 2000.0),
        ("1\n", 2000.0),                  # one row of a single-column file
    ],
)
def test_csv_refuses_a_single_row_as_too_few_samples(text, fs):
    # a one-row time column spans no time: the file is refused as a
    # one-sample signal, without dividing by the zero span first
    with pytest.raises(ValueError, match="^signal needs at least 2 samples"):
        read_signal_csv(io.StringIO(text), fs=fs)


def test_csv_header_optional():
    with_header = read_signal_csv(io.StringIO("t,value\n0,1\n0.1,2\n0.2,3\n"))
    without = read_signal_csv(io.StringIO("0,1\n0.1,2\n0.2,3\n"))
    assert np.allclose(with_header.samples, without.samples)
    assert with_header.fs == pytest.approx(without.fs)


T0_EPOCH = 1.7e9     # an epoch-stamped record: seconds since 1970


@pytest.mark.parametrize("n", [2000, 200])
def test_csv_roundtrip_of_an_epoch_stamped_record(tmp_path, n):
    # at 1.7e9 s the doubles are 2.4e-7 s apart: the times must be written
    # exactly, and fs read from the span, not from one quantized step
    s = RealSignal(np.sin(np.arange(n) / 7.0), fs=2000.0, t0=T0_EPOCH)
    path = tmp_path / "epoch.csv"
    write_signal_csv(path, s)
    back = read_signal_csv(path)
    assert back.t0 == T0_EPOCH
    assert back.fs == pytest.approx(2000.0, rel=1e-6)
    given = read_signal_csv(path, fs=2000.0)
    assert given.fs == 2000.0 and np.array_equal(given.times(), s.times())


def test_csv_refuses_an_fs_beyond_the_time_column_resolution():
    text = "".join(f"{k / 2000.0!r},0\n" for k in range(2000))
    with pytest.raises(ValueError, match="supplied fs=2000.1 disagrees with time column"):
        read_signal_csv(io.StringIO(text), fs=2000.1)
    assert read_signal_csv(io.StringIO(text), fs=2000.0).fs == 2000.0


@pytest.mark.parametrize(
    "text, line",
    [
        ("t,value\n0,1\n0.1,abc\n0.2,3\n", 3),   # a text value
        ("t,value\n0,1\n0.1,2\n\nx,3\n", 5),     # a text time, after a blank line
        ("0,1\n0.1,\n0.2,3\n", 2),               # an empty cell
        # a first row with a number in it is data, not a header
        ("0,\n0.1,2\n0.2,3\n", 1),
        ("0,abc\n0.1,2\n0.2,3\n", 1),
    ],
)
def test_csv_refuses_a_non_numeric_cell_naming_its_line(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: non-numeric cell"):
        read_signal_csv(io.StringIO(text))


def test_csv_refuses_a_row_of_another_width_naming_its_line():
    with pytest.raises(ValueError, match="^line 3 has 1 columns, not 2"):
        read_signal_csv(io.StringIO("t,value\n0,1\n0.1\n0.2,3\n"))
