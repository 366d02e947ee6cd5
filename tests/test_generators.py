import numpy as np
import pytest

from tvshape import GroundTruth, SyntheticSpec, generate
from tvshape.generators import KINDS, ComponentTruth


def test_reconstruction_value_at_zero(recon_signal):
    # closed form at t=0: B1=0.1, alpha2=0.75, alpha3=0.55, all phases 0
    x, gt = recon_signal
    assert x.samples[0] == pytest.approx(0.1 * (1 + 0.75 + 0.55) - gt.mean_offset, abs=1e-12)


def test_recorded_phase_ratios(recon_signal):
    _, gt = recon_signal
    assert gt.fundamental.e == {2: 2.005, 3: 2.995}


def test_multicomponent_ground_truth_ratios():
    _, gt = generate(SyntheticSpec("multicomponent"))
    assert gt.components[1].e == {2: 2.002, 3: 3.002, 4: 3.998}
    assert gt.components[0].e == {2: 2.005, 3: 3.003}


def test_sharp_transition_lambda_zero_is_time_invariant():
    spec = SyntheticSpec(
        "sharp_transition", params={"t_t": 0.5, "mu": 0.3, "lam": 0.0, "kappa": 50.0, "r": 3}
    )
    _, gt = generate(spec)
    for alpha in gt.fundamental.alphas.values():
        assert np.ptp(alpha) == 0.0


def test_mean_removed_and_synthesis_identity(recon_signal):
    x, gt = recon_signal
    assert abs(x.samples.mean()) < 1e-12
    # generate() output + mean offset == ground-truth synthesis, uniformly
    assert np.max(np.abs(x.samples + gt.mean_offset - gt.synthesize())) < 1e-12


def test_determinism_with_random_draws():
    spec = SyntheticSpec("sharp_transition", params={"draw": True, "r": 4})
    x1, g1 = generate(spec, seed=5)
    x2, g2 = generate(spec, seed=5)
    assert np.array_equal(x1.samples, x2.samples)
    assert g1.t_transition == g2.t_transition
    x3, _ = generate(spec, seed=6)
    assert not np.array_equal(x1.samples, x3.samples)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec("no_such_kind")
    for field, value in (("duration", 0.0), ("duration", float("nan")), ("fs", float("inf")), ("fs", -1.0)):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            SyntheticSpec("tv_denoise_s1", **{field: value})
    with pytest.raises(ValueError):
        generate(SyntheticSpec("sharp_transition", params={"kappa": -1.0}))
    with pytest.raises(ValueError):
        generate(SyntheticSpec("sharp_transition", params={"t_t": 2.0}))
    with pytest.raises(ValueError):
        generate(SyntheticSpec("sharp_transition", params={"r": 1}))
    with pytest.raises(ValueError):
        # mu - lam < 0 drives the amplitude law negative
        generate(SyntheticSpec("sharp_transition", params={"mu": 0.1, "lam": 0.3}))


def test_randomized_draw_ranges():
    spec = SyntheticSpec("sharp_transition", params={"draw": True, "kappa": 50.0, "r": 5})
    for seed in range(20):
        _, gt = generate(spec, seed=seed)
        assert 0.1 <= gt.t_transition <= 0.9
        for ell in range(2, 6):
            mu = gt.extras["mu"][str(ell)]
            lam = gt.extras["lam"][str(ell)]
            assert 0.1 <= mu <= 0.5 and 0.1 <= lam <= 0.35
            assert mu - lam > 0  # positivity of the amplitude law


def test_ground_truth_json_roundtrip(recon_signal):
    _, gt = recon_signal
    back = GroundTruth.from_json(gt.to_json())
    assert isinstance(back.components[0], ComponentTruth)
    assert np.allclose(back.fundamental.b1, gt.fundamental.b1)
    assert back.fundamental.e == gt.fundamental.e
    assert back.mean_offset == gt.mean_offset


@pytest.mark.parametrize(
    "spec", [SyntheticSpec(kind) for kind in KINDS] + [SyntheticSpec("sharp_transition", params={"draw": True})],
    ids=[*KINDS, "sharp_transition_drawn"],
)
def test_ground_truth_json_roundtrip_is_byte_identical(spec):
    _, gt = generate(spec, seed=3)
    text = gt.to_json()
    back = GroundTruth.from_json(text)
    assert back.to_json() == text
    assert back.t_transition == gt.t_transition and back.extras == gt.extras


def test_denoise_families_positive_hafs():
    for kind in ("tv_denoise_s1", "tv_denoise_s2", "tv_denoise_s3", "tv_denoise_s4"):
        _, gt = generate(SyntheticSpec(kind))
        for alpha in gt.fundamental.alphas.values():
            assert np.all(alpha > 0)


def test_params_a_kind_does_not_read_are_rejected():
    # the denoise families take no params, sharp_transition only its protocol keys
    with pytest.raises(ValueError, match="b1"):
        SyntheticSpec("tv_denoise_s1", params={"b1": lambda t: t})
    with pytest.raises(ValueError, match="mus"):
        SyntheticSpec("sharp_transition", params={"mus": {2: 0.3}, "r": 2})
    SyntheticSpec("sharp_transition", params={"draw": True, "kappa": 5.0, "r": 3, "t_t": 0.5, "mu": 0.3, "lam": 0.1})
