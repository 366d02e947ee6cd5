import numpy as np
import pytest

from tvshape import RealSignal, estimate_cycle_len, extend_boundaries, trim
from tvshape.extend import _seasonal_ar_forecast, fractional_cycle_len

from oracles import seasonal_ar_forecast

FS = 2000.0


def _periodic(period=50, n=2000, a=1.0):
    t = np.arange(n)
    return RealSignal(a * np.sin(2 * np.pi * t / period) + 0.3 * np.cos(4 * np.pi * t / period), FS)


def test_cycle_len_from_acf():
    x = _periodic(period=50)
    assert estimate_cycle_len(x) == 50
    assert abs(fractional_cycle_len(x) - 50) < 0.5


def test_extension_lengths_and_central_identity():
    x = _periodic()
    ext = extend_boundaries(x, 50, 50)
    assert ext.n_pre == ext.n_post == 200
    assert len(ext.extended) == len(x) + 400
    # bit-exact central segment
    assert np.array_equal(ext.extended.samples[200:-200], x.samples)
    assert ext.core == slice(ext.n_pre, ext.n_pre + len(x))
    assert ext.extended.t0 == pytest.approx(x.t0 - 200 / FS)


def test_periodic_forecast_accuracy():
    # periodic input continues with RMS error well under 5% of the cycle RMS
    period, n = 50, 2000
    t_all = np.arange(n + 200)
    full = np.sin(2 * np.pi * t_all / period) + 0.3 * np.cos(4 * np.pi * t_all / period)
    x = RealSignal(full[:n], FS)
    ext = extend_boundaries(x, period, period)
    fwd = ext.extended.samples[-200:]
    rel = np.linalg.norm(fwd - full[n:]) / np.linalg.norm(full[n:])
    assert rel < 0.05


def test_backward_forecast_accuracy():
    period, n = 50, 2000
    t_all = np.arange(-200, n)
    full = np.sin(2 * np.pi * t_all / period)
    x = RealSignal(full[200:], FS)
    ext = extend_boundaries(x, period, period)
    bwd = ext.extended.samples[:200]
    rel = np.linalg.norm(bwd - full[:200]) / np.linalg.norm(full[:200])
    assert rel < 0.05


def test_extension_is_deterministic():
    x = _periodic()
    a = extend_boundaries(x, 50, 50)
    b = extend_boundaries(x, 50, 50)
    assert np.array_equal(a.extended.samples, b.extended.samples)


def test_preconditions():
    x = _periodic(n=120)
    with pytest.raises(ValueError):
        extend_boundaries(x, 3, 3)  # cycle too short
    with pytest.raises(ValueError):
        extend_boundaries(x, 50, 50)  # fewer than 3 cycles


def test_trim_recovers_input():
    x = _periodic()
    ext = extend_boundaries(x, 50, 50)
    back = trim(ext.extended, ext)
    assert np.array_equal(back.samples, x.samples)
    assert back.t0 == pytest.approx(x.t0)


def test_trim_length_mismatch():
    x = _periodic()
    ext = extend_boundaries(x, 50, 50)
    with pytest.raises(ValueError):
        trim(x, ext)


def test_fractional_cycle_forecast_beats_integer_mismatch():
    # a 44.4-sample period is poorly served by an integer-season forecast
    n = 2000
    t_all = np.arange(n + 200)
    full = np.cos(2 * np.pi * t_all / 44.4)
    x = RealSignal(full[:n], FS)
    frac = fractional_cycle_len(x)
    assert abs(frac - 44.4) < 0.5
    ext = extend_boundaries(x, frac, frac)
    rel = np.linalg.norm(ext.extended.samples[-200:] - full[n:]) / np.linalg.norm(full[n:])
    assert rel < 0.05


@pytest.mark.parametrize("season", [50, 50.0, 37.4, 23.71, 4.0, 4.5])
def test_forecast_equals_the_tail_copying_loop_bitwise(season):
    # reading the four interpolation samples by index from the growing
    # record gives the bytes of the loop that interpolated in a copy of its tail
    rng = np.random.default_rng(int(season * 10))
    t = np.arange(int(np.ceil(3 * season)) + 40)
    w = np.sin(2 * np.pi * t / season) + 0.3 * np.cos(4 * np.pi * t / season) + 0.05 * rng.standard_normal(t.size)
    for window in (w, w[::-1], 1e3 * w[-int(np.ceil(3 * season)):]):
        got = _seasonal_ar_forecast(window, season, 300)
        assert got.tobytes() == seasonal_ar_forecast(window, season, 300).tobytes()
