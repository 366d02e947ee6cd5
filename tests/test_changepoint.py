import numpy as np
import pytest

from tvshape import pelt_mean_changes


def test_single_step_located_exactly():
    z = np.concatenate([np.zeros(500), np.ones(500)])
    assert pelt_mean_changes(z) == [500]


def test_constant_trace_no_changes():
    assert pelt_mean_changes(np.full(800, 0.4)) == []
    assert pelt_mean_changes(np.zeros(800)) == []


def test_two_steps():
    z = np.concatenate([np.zeros(300), np.ones(300), np.full(300, -1.0)])
    cps = pelt_mean_changes(z)
    assert len(cps) == 2
    assert abs(cps[0] - 300) <= 1 and abs(cps[1] - 600) <= 1


def test_tanh_transition_first_change_near_center():
    t = np.linspace(0, 1, 2000)
    for t_t in (0.2, 0.5, 0.8):
        z = 0.3 + 0.2 * np.tanh(50 * (t - t_t))
        cps = pelt_mean_changes(z)
        assert cps, f"no change found for t_t={t_t}"
        assert abs(t[cps[0]] - t_t) < 0.01


def test_noise_does_not_trigger_spurious_changes():
    rng = np.random.default_rng(0)
    z = 0.5 + 0.01 * rng.standard_normal(2000)
    # default penalty scales with trace variance; pure noise yields no splits
    assert pelt_mean_changes(z) == []


def test_penalty_controls_sensitivity():
    t = np.linspace(0, 1, 1000)
    z = 0.3 + 0.2 * np.tanh(50 * (t - 0.5))
    assert pelt_mean_changes(z, penalty=1e9) == []
    assert len(pelt_mean_changes(z, penalty=1e-6)) >= 1


@pytest.mark.parametrize("penalty", [-5.0, -1e-12, float("nan")])
def test_negative_or_nan_penalty_rejected(penalty):
    z = np.concatenate([np.zeros(50), np.ones(50)])
    with pytest.raises(ValueError, match="penalty"):
        pelt_mean_changes(z, penalty=penalty)


def test_zero_penalty_allowed():
    z = np.concatenate([np.zeros(50), np.ones(50)])
    assert 50 in pelt_mean_changes(z, penalty=0.0)


def test_short_input_no_changes():
    assert pelt_mean_changes(np.array([1.0, 2.0])) == []


def _old_segment_penalty(z):
    # the rule segment() applied before it moved into pelt_mean_changes
    level = float(np.mean(np.abs(z)))
    return max(0.1 * z.size * float(np.var(z)), (0.05 * level) ** 2 * z.size)


def test_default_penalty_is_the_segment_rule():
    t = np.linspace(0, 1, 2000)
    traces = [
        np.concatenate([np.full(700, 0.3), np.full(1300, 0.5)]),
        0.3 + 0.2 * np.tanh(50 * (t - 0.4)),
        0.4 + 0.005 * np.sin(2 * np.pi * 1.5 * t),
    ]
    for z in traces:
        assert pelt_mean_changes(z) == pelt_mean_changes(z, penalty=_old_segment_penalty(z))
