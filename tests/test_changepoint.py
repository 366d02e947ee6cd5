import numpy as np
import pytest

from tvshape import changepoint, pelt_mean_changes
from tvshape.pchip import pchip_eval

from oracles import pelt_costs


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trace_rejected(bad):
    # the search would report a change at every sample of such a trace
    z = np.concatenate([np.zeros(300), np.ones(300)])
    z[123] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        pelt_mean_changes(z)


def test_two_dimensional_trace_rejected():
    z = np.concatenate([np.zeros(300), np.ones(300)]).reshape(2, 300)
    with pytest.raises(ValueError, match="1-d"):
        pelt_mean_changes(z)


def _partition_traces():
    rng = np.random.default_rng(11)
    t = np.linspace(0, 1, 1000)
    nodes = np.linspace(0, 1, 40)
    wiggle = pchip_eval(nodes, 0.004 * rng.standard_normal(nodes.size), t)
    levels = rng.uniform(-1.0, 1.0, 12)
    traces = {
        "tanh_with_pchip_wiggle": 0.3 + 0.2 * np.tanh(50 * (t - 0.45)) + wiggle,
        "two_tanh_with_pchip_wiggle": 0.5 + 0.1 * np.tanh(80 * (t - 0.3)) - 0.2 * np.tanh(30 * (t - 0.7)) + wiggle,
        "piecewise_constant_plus_noise": np.repeat(levels, 50) + 0.05 * rng.standard_normal(600),
        "random_walk": np.cumsum(rng.standard_normal(800)),
        "integer_ties": rng.integers(0, 3, 400).astype(float),
        "integer_steps": np.repeat(rng.integers(0, 4, 20), 23).astype(float),
        "constant": np.full(300, 0.4),
        "zeros": np.zeros(200),
        # changes on and next to the boundaries of 64- and 7-step blocks
        "change_at_block_boundary": np.concatenate([np.zeros(63), np.ones(64), np.full(64, 3.0), np.zeros(7)]),
        "changes_every_7": np.repeat(rng.standard_normal(30), 7),
        # a level far above the variation: cost(s, t) loses its low bits to
        # cancellation, so a candidate can fail the keep rule and still come
        # out least at a later step, ahead of the candidate that beat it
        "offset_random_walk": 9e8 + np.cumsum(rng.standard_normal(300)),
        "offset_steps_plus_noise": 3.5e8 + np.repeat(rng.standard_normal(10), 30) + 0.01 * rng.standard_normal(300),
        "offset_integer_ties": 3.6e7 + rng.integers(0, 3, 300).astype(float),
    }
    for n in range(4, 71):
        traces[f"short_{n}"] = rng.standard_normal(n) + np.repeat([0.0, 2.0], [n // 2, n - n // 2])
    return traces


PARTITION_TRACES = _partition_traces()


@pytest.mark.parametrize("block", [1, 2, 7, changepoint._BLOCK])
def test_block_search_equals_per_step_loop_bitwise(monkeypatch, block):
    monkeypatch.setattr(changepoint, "_BLOCK", block)
    for name, z in PARTITION_TRACES.items():
        for penalty in (None, 0.0, 1e-6, 1e9):
            resolved = changepoint._resolved_penalty(z, penalty)
            F, last = changepoint._optimal_partition(z, resolved)
            F_ref, last_ref = pelt_costs(z, resolved)
            assert F.tobytes() == F_ref.tobytes(), (name, penalty)
            assert last.tobytes() == last_ref.tobytes(), (name, penalty)


def test_smooth_traces_are_searched_in_blocks(monkeypatch):
    # the blocks of a smooth trace pass the check: at most the block holding
    # a transition is walked step by step
    rejected = []
    block = changepoint._block

    def counting_block(*args):
        alive = block(*args)
        if alive is None:
            rejected.append(args[-2])
        return alive

    monkeypatch.setattr(changepoint, "_block", counting_block)
    for name in ("tanh_with_pchip_wiggle", "two_tanh_with_pchip_wiggle"):
        rejected.clear()
        assert pelt_mean_changes(PARTITION_TRACES[name])
        assert len(rejected) <= 1, name
