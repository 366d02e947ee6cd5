import json

import numpy as np
import pytest

from tvshape import (
    FitOptions,
    PipelineConfig,
    SyntheticSpec,
    WaveShapeModel,
    add_noise,
    decompose,
    denoise,
    evaluate_model,
    generate,
    preset,
    segment,
    snr_out,
)


@pytest.fixture(scope="module")
def cfg():
    return preset("synthetic")


@pytest.fixture(scope="module")
def noiseless_result(cfg):
    x, gt = generate(SyntheticSpec("tv_reconstruction"))
    return x, gt, denoise(x, cfg)


def test_presets_hold_published_values():
    assert preset("eeg").sigma == 2e-6
    assert preset("eeg").max_jump_hz == 0.04
    assert preset("eeg").delta == 0.4
    assert preset("ip").sigma == 1e-6
    assert preset("ip").max_jump_hz == 0.3
    assert preset("ip").delta == 0.008
    assert preset("ecg").sigma == 5e-5
    assert preset("ecg").max_jump_hz == 0.4
    assert preset("ecg").delta == 1.2
    assert preset("synthetic").sigma == 1e-4
    with pytest.raises(ValueError):
        preset("mri")


def test_config_dict_roundtrip():
    cfg = preset("synthetic", fit=FitOptions(freeze_nodes=True))
    d = cfg.to_dict()
    back = PipelineConfig.from_dict(json.loads(json.dumps(d)))
    assert back.sigma == cfg.sigma
    assert back.max_jump_hz == cfg.max_jump_hz
    assert back.fit.e_bound == cfg.fit.e_bound
    assert back.fit.freeze_nodes is True
    assert "jacobian" not in d["fit"]


def test_config_from_dict_reads_jacobian_field():
    # configs saved while the fit had a finite-difference mode carry the
    # analytic one; any other value is refused rather than ignored
    d = preset("synthetic").to_dict()
    d["fit"]["jacobian"] = "analytic_mixed"
    assert PipelineConfig.from_dict(d).fit == preset("synthetic").fit
    d["fit"]["jacobian"] = "finite_difference"
    with pytest.raises(ValueError, match="finite_difference"):
        PipelineConfig.from_dict(d)


def test_noiseless_reconstruction_snr(noiseless_result):
    x, _, res = noiseless_result
    assert snr_out(x, res.reconstruction) >= 30.0


def test_fitted_model_resynthesizes_after_json_roundtrip(noiseless_result):
    model = noiseless_result[2].model
    back = WaveShapeModel.from_json(model.to_json())
    assert [h.degenerate for h in back.harmonics] == [h.degenerate for h in model.harmonics]
    assert np.array_equal(
        evaluate_model(back, back.fundamental.phi1).samples,
        evaluate_model(model, model.fundamental.phi1).samples,
    )


def test_output_length_matches_input(noiseless_result):
    x, _, res = noiseless_result
    assert len(res.reconstruction) == len(x)
    assert res.reconstruction.fs == x.fs


def test_model_recovers_phase_ratios(noiseless_result):
    _, gt, res = noiseless_result
    assert res.model.r == 3
    assert res.model.harmonics[0].e == pytest.approx(2.005, abs=0.005)
    assert res.model.harmonics[1].e == pytest.approx(2.995, abs=0.005)


def test_report_json(noiseless_result, cfg):
    x, _, res = noiseless_result
    report = json.loads(res.report_json(x, cfg))
    assert report["input"]["n"] == len(x)
    assert "timings" in report and "fit" in report
    assert report["config"]["sigma"] == cfg.sigma


def test_denoise_beats_linear_baseline_at_20db(cfg):
    x, _ = generate(SyntheticSpec("tv_denoise_s1"))
    noisy = add_noise(x, 20.0, 7)
    res = denoise(noisy, cfg)
    assert snr_out(x, res.reconstruction) > snr_out(x, res.lr_reconstruction)


def test_decompose_bookkeeping_identity(cfg):
    x, _ = generate(SyntheticSpec("multicomponent"))
    noisy = add_noise(x, 10.0, 3)
    parts = decompose(noisy, [cfg], K=2)
    total = parts[0].reconstruction.samples + parts[1].reconstruction.samples
    residual = noisy.samples - total
    # components + residual reproduce the input exactly
    assert np.allclose(total + residual, noisy.samples, atol=1e-9)


def test_decompose_k1_equals_denoise(cfg):
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    parts = decompose(x, [cfg], K=1)
    direct = denoise(x, cfg)
    assert np.array_equal(parts[0].reconstruction.samples, direct.reconstruction.samples)


def test_decompose_validates_k(cfg):
    x, _ = generate(SyntheticSpec("multicomponent"))
    with pytest.raises(ValueError):
        decompose(x, [cfg], K=0)
    with pytest.raises(ValueError):
        decompose(x, [cfg, cfg], K=3)


def test_segment_mean_definition(cfg):
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.4, "mu": 0.35, "lam": 0.2, "kappa": 50.0, "r": 4})
    x, gt = generate(spec)
    res = segment(add_noise(x, 15.0, 2), cfg)
    assert res.t_hat is not None
    assert res.t_hat == pytest.approx(np.mean([t for _, t in res.per_harmonic]))
    assert abs(res.t_hat - 0.4) < 0.02
    assert set(res.haf_traces) == set(range(2, res.model.r + 1))
    for trace in res.haf_traces.values():
        assert trace.size == len(x)


def test_segment_constant_hafs_no_changes(cfg):
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.5, "mu": 0.3, "lam": 0.0, "kappa": 50.0, "r": 3})
    x, _ = generate(spec)
    res = segment(x, cfg)
    assert res.t_hat is None
    assert res.per_harmonic == []


def test_segmentation_json(cfg):
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.6, "mu": 0.3, "lam": 0.15, "kappa": 50.0, "r": 3})
    x, _ = generate(spec)
    res = segment(add_noise(x, 15.0, 4), cfg)
    raw = json.loads(res.to_json())
    assert "t_hat" in raw and "per_harmonic" in raw


def test_pipeline_deterministic(cfg):
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    noisy = add_noise(x, 10.0, 11)
    r1 = denoise(noisy, cfg)
    r2 = denoise(noisy, cfg)
    assert np.array_equal(r1.reconstruction.samples, r2.reconstruction.samples)


def test_r_override_skips_order_selection(cfg):
    from dataclasses import replace

    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    res = denoise(x, replace(cfg, r_override=2))
    assert res.model.r == 2


def test_stage_errors_carry_stage_tag(cfg):
    from tvshape import PipelineStageError, RealSignal

    flat = RealSignal(np.full(1000, 3.0) + np.linspace(0, 1e-15, 1000), 2000.0)
    with pytest.raises(PipelineStageError) as err:
        denoise(flat, cfg)
    assert err.value.stage in ("cycle", "extend", "fundamental")
