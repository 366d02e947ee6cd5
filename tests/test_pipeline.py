import hashlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tvshape import (
    PipelineConfig,
    RealSignal,
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
from tvshape.pipeline import RETIRED_KEYS, RIDGE_HEADROOM
from tvshape.stft import Spectrogram

pipeline_module = importlib.import_module("tvshape.pipeline")
stft_module = importlib.import_module("tvshape.stft")   # the package exports a function `stft`


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
    cfg = preset("ecg", r_max=5)
    d = cfg.to_dict()
    assert PipelineConfig.from_dict(json.loads(json.dumps(d))) == cfg
    # the paper's four values per signal class: sigma, I_f, delta and r
    assert set(d) == set(PipelineConfig().to_dict()) == {"sigma", "I_f", "delta", "r_max"}


def test_config_file_with_the_fit_settings_now_constants_loads():
    # PipelineConfig().to_dict() as written while max_iters, e_bound and
    # min_node_gap were still FitOptions fields
    text = ('{"sigma": 0.0001, "I_f": 2.0, "delta": null, "r_max": 8, "fit": {"max_iters": 200, '
            '"e_bound": 0.1, "min_node_gap": null, "freeze_nodes": false}}')
    assert PipelineConfig.from_dict(json.loads(text)) == PipelineConfig()


# PipelineConfig.to_dict() of a preset as written while the config still had
# its one-value fields; only sigma, I_f and delta differ between presets
OLD_CONFIG_FILE = (
    '{"sigma": %s, "I_f": %s, "delta": %s, "r_max": 8, "extension_factor": 0.1, '
    '"energy_fraction": 0.9, "ridge_band": null, "min_nodes": 5, "r_override": null, '
    '"fit": {"max_iters": 200, "grad_tol": 1e-08, "step_tol": 1e-10, "lambda0": 0.001, '
    '"e_bound": 0.1, "min_node_gap": null, "freeze_nodes": false}}'
)


@pytest.mark.parametrize("name", ["synthetic", "eeg", "ip", "ecg"])
def test_config_file_written_before_retirement_loads_unchanged(name):
    cfg = preset(name)
    text = OLD_CONFIG_FILE % tuple(json.dumps(v) for v in (cfg.sigma, cfg.max_jump_hz, cfg.delta))
    assert PipelineConfig.from_dict(json.loads(text)) == cfg


def test_config_from_dict_reads_jacobian_field():
    # configs saved while the fit had a finite-difference mode carry the
    # analytic one; any other value is refused rather than ignored
    d = preset("synthetic").to_dict()
    d["fit"] = {"jacobian": "analytic_mixed"}
    assert PipelineConfig.from_dict(d) == preset("synthetic")
    d["fit"] = {"jacobian": "finite_difference"}
    with pytest.raises(ValueError, match="finite_difference"):
        PipelineConfig.from_dict(d)


# a value other than the one each retired key always had (fit.jacobian has
# its own test above)
RETIRED_OTHER_VALUES = {
    "extension_factor": 0.0,
    "energy_fraction": 0.95,
    "ridge_band": [30.0, 50.0],
    "min_nodes": 7,
    "r_override": 2,
    "fit.lambda0": 1e-2,
    "fit.grad_tol": 1e-6,
    "fit.step_tol": 1e-8,
    "fit.max_iters": 100,
    "fit.e_bound": 0.2,
    "fit.min_node_gap": 1e-3,
    "fit.freeze_nodes": True,
}


@pytest.mark.parametrize("key", sorted(RETIRED_OTHER_VALUES))
def test_config_retired_key_read_only_at_its_value(key):
    assert set(RETIRED_OTHER_VALUES) | {"fit.jacobian"} == set(RETIRED_KEYS)
    d = preset("ecg").to_dict()
    section, name = (d.setdefault("fit", {}), key[4:]) if key.startswith("fit.") else (d, key)
    section[name] = RETIRED_KEYS[key]
    assert PipelineConfig.from_dict(d) == preset("ecg")
    section[name] = RETIRED_OTHER_VALUES[key]
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_dict(d)


def test_config_unknown_keys_rejected():
    with pytest.raises(ValueError, match="If, sigmaa"):
        PipelineConfig.from_dict({"sigmaa": 5e-5, "If": 3.0})
    with pytest.raises(ValueError, match="fit.max_iter"):
        PipelineConfig.from_dict({"fit": {"max_iter": 3}})


@pytest.mark.parametrize(
    "kwargs, field",
    [({"r_max": 2.5}, "r_max"), ({"r_max": True}, "r_max"), ({"sigma": "1e-4"}, "sigma"),
     ({"max_jump_hz": False}, "max_jump_hz"), ({"delta": "0.4"}, "delta"),
     ({"sigma": np.nan}, "sigma"), ({"max_jump_hz": np.inf}, "max_jump_hz"), ({"delta": np.inf}, "delta"),
     ({"sigma": np.float64("nan")}, "sigma")],
)
def test_config_rejects_values_of_the_wrong_type(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"max_iters": 2.5}, "max_iters"), ({"max_iters": True}, "max_iters"),
     ({"freeze_nodes": "false"}, "freeze_nodes"), ({"freeze_nodes": 0}, "freeze_nodes"),
     ({"e_bound": True}, "e_bound"), ({"min_node_gap": "1e-3"}, "min_node_gap"),
     ({"min_node_gap": np.inf}, "min_node_gap")],
)
def test_fit_options_reject_values_of_the_wrong_type(kwargs, field):
    # every fit section key is retired: a value of the wrong type is another
    # value than the one it always had, and 0 is not false
    assert f"fit.{field}" in RETIRED_KEYS
    with pytest.raises(ValueError, match=f"'fit.{field}' is retired"):
        PipelineConfig.from_dict({"fit": kwargs})


def test_config_types_accept_numpy_scalars_and_none():
    cfg = PipelineConfig(sigma=np.float64(1e-4), r_max=np.int64(3), delta=None)
    assert cfg.r_max == 3
    # stored as Python numbers, so the config writes as JSON and reads back equal
    assert type(cfg.r_max) is int and type(cfg.sigma) is float
    assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_defaults_live_in_the_dataclass():
    assert PipelineConfig.from_dict({}) == PipelineConfig()
    assert PipelineConfig.from_dict({"fit": {}}) == PipelineConfig()
    assert PipelineConfig.from_dict({"r_max": 4}) == PipelineConfig(r_max=4)


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
    report = json.loads(res.report_json(cfg))
    assert report["input"]["n"] == len(x)
    assert "timings" in report and "fit" in report
    assert report["config"]["sigma"] == cfg.sigma


def test_report_json_nests_each_part_as_written_alone(noiseless_result, cfg):
    _, _, res = noiseless_result
    report = json.loads(res.report_json(cfg))
    assert report["model"] == json.loads(res.model.to_json())
    assert report["metrics"] == json.loads(res.metrics.to_json())
    assert report["fit"] == json.loads(res.fit_diagnostics.to_json())
    assert report["config"] == cfg.to_dict()


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


@pytest.mark.parametrize("noise_seed, collides", [(5000, False), (5002, True)])
def test_decompose_warns_of_a_ridge_collision(cfg, noise_seed, collides):
    # two draws of the criterion-3 set (multicomponent at 10 dB, K = 2): on
    # 5002 (also 5006, 5008, 5010) the second stage rides the first
    # component's band again
    x, _ = generate(SyntheticSpec("multicomponent"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        decompose(add_noise(x, 10.0, noise_seed), [cfg], K=2)
    messages = [str(w.message) for w in caught]
    collision = "component 2 ridge collides with an earlier component's band"
    assert (collision in messages) == collides, messages


def test_decompose_validates_k(cfg):
    x, _ = generate(SyntheticSpec("multicomponent"))
    with pytest.raises(ValueError):
        decompose(x, [cfg], K=0)
    with pytest.raises(ValueError):
        decompose(x, [cfg, cfg], K=3)
    # a config beyond the K-th would be silently left unused
    with pytest.raises(ValueError, match="one per component"):
        decompose(x, [cfg, cfg, cfg], K=2)


def test_segment_median_definition(cfg):
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.4, "mu": 0.35, "lam": 0.2, "kappa": 50.0, "r": 4})
    x, gt = generate(spec)
    res = segment(add_noise(x, 15.0, 2), cfg)
    assert res.t_hat is not None
    assert res.t_hat == np.median([t for _, t in res.per_harmonic])
    assert abs(res.t_hat - 0.4) < 0.02
    assert set(res.haf_traces) == set(range(2, res.model.r + 1))
    for trace in res.haf_traces.values():
        assert trace.size == len(x)


def test_segment_ignores_one_harmonics_spurious_change(cfg, monkeypatch):
    # of three harmonics, the second reports a change 50 ms in; the other
    # two agree on one at 0.4 s, which is the reported transition
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.4, "mu": 0.35, "lam": 0.2, "kappa": 50.0, "r": 4})
    x, _ = generate(spec)
    calls = []

    def changes(trace, penalty):
        calls.append(trace)
        return [100] if len(calls) == 2 else [800]

    monkeypatch.setattr(pipeline_module, "pelt_mean_changes", changes)
    res = segment(x, cfg)
    t = x.times()
    assert res.per_harmonic == [(2, t[800]), (3, t[100]), (4, t[800])]
    assert res.t_hat == t[800]


def test_segment_constant_hafs_no_changes(cfg):
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.5, "mu": 0.3, "lam": 0.0, "kappa": 50.0, "r": 3})
    x, _ = generate(spec)
    res = segment(x, cfg)
    assert res.t_hat is None
    assert res.per_harmonic == []


@pytest.mark.parametrize("t0", [0.0, 7.0])
def test_segment_of_a_fundamental_only_record(cfg, t0):
    # a pure cosine fits with r = 1: there is no harmonic amplitude to scan
    t = np.arange(2000) / 2000.0
    res = segment(RealSignal(np.cos(2 * np.pi * 40 * t), 2000.0, t0), cfg)
    assert res.model.r == 1
    assert res.t_hat is None
    assert res.per_harmonic == [] and res.haf_traces == {} and res.all_changes == {}


def test_segmentation_json(cfg):
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.6, "mu": 0.3, "lam": 0.15, "kappa": 50.0, "r": 3})
    x, _ = generate(spec)
    res = segment(add_noise(x, 15.0, 4), cfg)
    raw = json.loads(res.to_json())
    assert "t_hat" in raw and "per_harmonic" in raw


@pytest.mark.parametrize("penalty", [-5.0, float("nan")])
def test_segment_checks_the_penalty_before_fitting(cfg, monkeypatch, penalty):
    import tvshape.pipeline

    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran before the penalty was checked")

    monkeypatch.setattr(tvshape.pipeline, "denoise", no_fit)
    x, _ = generate(SyntheticSpec("sharp_transition"))
    with pytest.raises(ValueError, match="penalty must be a number >= 0"):
        segment(x, cfg, penalty=penalty)


T0_EPOCH = 1.7e9     # an epoch-stamped record: seconds since 1970


def _at(x, t0):
    return RealSignal(x.samples, x.fs, t0)


def test_denoise_does_not_depend_on_the_record_start_time(cfg):
    x, _ = generate(SyntheticSpec("tv_denoise_s1"))
    noisy = add_noise(x, 10.0, 0)
    ref = denoise(noisy, cfg)
    res = denoise(_at(noisy, T0_EPOCH), cfg)
    assert res.reconstruction.samples.tobytes() == ref.reconstruction.samples.tobytes()
    assert res.fit_diagnostics == ref.fit_diagnostics
    for h, h_ref in zip(res.model.harmonics, ref.model.harmonics, strict=True):
        assert np.array_equal(h.nodes.times, h_ref.nodes.times + T0_EPOCH)
        assert np.array_equal(h.nodes.amps, h_ref.nodes.amps)
    for y, y_ref in [(res.reconstruction, ref.reconstruction), (res.lr_reconstruction, ref.lr_reconstruction),
                     (res.extension.extended, ref.extension.extended)]:
        assert y.t0 == y_ref.t0 + T0_EPOCH
        assert np.array_equal(y.samples, y_ref.samples)


def test_metrics_are_computed_on_first_read_from_the_input(cfg, monkeypatch):
    x, _ = generate(SyntheticSpec("tv_denoise_s1"))
    noisy = _at(add_noise(x, 10.0, 0), T0_EPOCH)
    calls = []
    real = pipeline_module.residual_metrics
    monkeypatch.setattr(pipeline_module, "residual_metrics", lambda *args: calls.append(args) or real(*args))
    res = denoise(noisy, cfg)
    assert calls == [] and "metrics" not in res.timings
    assert res.metrics is res.metrics and len(calls) == 1
    # the extension's core is the input bit for bit, with its times moved
    residual, estimate = calls[0]
    assert residual.samples.tobytes() == (noisy.samples - res.reconstruction.samples).tobytes()
    assert estimate is res.reconstruction
    report = json.loads(res.report_json(cfg))
    digest = hashlib.sha256(noisy.samples.tobytes()).hexdigest()[:16]
    assert report["input"] == {"sha256_16": digest, "n": len(noisy), "fs": noisy.fs}
    assert report["metrics"] == json.loads(res.metrics.to_json()) and len(calls) == 1


def test_segment_does_not_depend_on_the_record_start_time(cfg):
    spec = SyntheticSpec("sharp_transition", params={"t_t": 0.4, "mu": 0.35, "lam": 0.2, "kappa": 50.0, "r": 4})
    x, _ = generate(spec)
    noisy = add_noise(x, 15.0, 2)
    ref = segment(noisy, cfg)
    res = segment(_at(noisy, T0_EPOCH), cfg)
    assert ref.t_hat is not None
    assert abs(res.t_hat - (ref.t_hat + T0_EPOCH)) <= 1e-6
    assert [ell for ell, _ in res.per_harmonic] == [ell for ell, _ in ref.per_harmonic]
    for (_, t), (_, t_ref) in zip(res.per_harmonic, ref.per_harmonic):
        assert abs(t - (t_ref + T0_EPOCH)) <= 1e-6
    assert all(np.array_equal(res.haf_traces[ell], ref.haf_traces[ell]) for ell in ref.haf_traces)
    for h, h_ref in zip(res.model.harmonics, ref.model.harmonics, strict=True):
        assert np.array_equal(h.nodes.times, h_ref.nodes.times + T0_EPOCH)


@pytest.mark.parametrize("t0", [0.0, 7.0])
def test_reconstructions_sit_on_the_record_axis(cfg, noiseless_result, t0):
    # a fundamental-only model has no node times to start its grid from
    t = np.arange(2000) / 2000.0
    res = denoise(RealSignal(np.cos(2 * np.pi * 40 * t), 2000.0, t0), cfg)
    assert res.model.r == 1
    assert res.reconstruction.t0 == res.lr_reconstruction.t0 == t0
    x, _, res = noiseless_result
    assert res.model.r >= 2
    assert res.reconstruction.t0 == res.lr_reconstruction.t0 == x.t0


def _workloads():
    # the benchmark's workload records, built by perfbench/workloads.py
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOAD_RECORDS = {rec.name: rec for build in _workloads().WORKLOADS.values() for rec in build()}


@pytest.mark.parametrize("name", list(WORKLOAD_RECORDS))
def test_workload_record_stores_a_low_band_of_its_spectrogram(monkeypatch, name):
    rec = WORKLOAD_RECORDS[name]
    made, cycles, reads, transforms = [], [], [], []
    real_stft, real_cycle, real_bins = pipeline_module.stft, pipeline_module.fractional_cycle_len, Spectrogram.bins
    real_transform = stft_module._transform

    def recording_stft(*args):
        spec = real_stft(*args)
        made.append((spec, spec.first, spec.values.shape[1]))
        return spec

    def recording_cycle(*args):
        cycles.append(real_cycle(*args))
        return cycles[-1]

    def recording_bins(self, start, stop):
        reads.append((start, stop, self.first, self.first + self.values.shape[1]))
        return real_bins(self, start, stop)

    def recording_transform(*args):
        transforms.append(args[3:])
        return real_transform(*args)

    monkeypatch.setattr(pipeline_module, "stft", recording_stft)
    monkeypatch.setattr(pipeline_module, "fractional_cycle_len", recording_cycle)
    monkeypatch.setattr(Spectrogram, "bins", recording_bins)
    monkeypatch.setattr(stft_module, "_transform", recording_transform)
    if rec.driver == "decompose":
        decompose(rec.signal, [rec.cfg], K=rec.K)
    elif rec.driver == "segment":
        segment(rec.signal, rec.cfg)
    else:
        denoise(rec.signal, rec.cfg)
    # one FFT pass per spectrogram: a read that regrew the band would cost
    # a second pass over the record, into a band at least twice as wide
    assert len(transforms) == len(made)
    assert len(made) == rec.K and len(cycles) == 2 * rec.K      # one spectrogram per stage
    delta = rec.cfg.resolved_delta(rec.signal.fs)
    for (spec, first, stored), edge_cycles in zip(made, np.reshape(cycles, (rec.K, 2)), strict=True):
        # from the longer edge cycle's rate under the headroom, less the band
        # half-width and a ridge jump, to the shorter one's with the headroom,
        # plus both
        bottom = spec.fs / edge_cycles.max() / RIDGE_HEADROOM - delta - rec.cfg.max_jump_hz
        top = RIDGE_HEADROOM * spec.fs / edge_cycles.min() + delta + rec.cfg.max_jump_hz
        assert first == np.count_nonzero(spec.freq_axis < bottom)
        assert first + stored == np.count_nonzero(spec.freq_axis <= top) < 0.25 * spec.freq_axis.size
        # the harmonics' band sums came from the record: nothing was recomputed
        assert (spec.first, spec.values.shape[1]) == (first, stored)
    # every read of the ridge walk and the fundamental fell in the stored band
    assert reads and all(first <= start and stop <= end for start, stop, first, end in reads)


def test_pipeline_deterministic(cfg):
    x, _ = generate(SyntheticSpec("tv_reconstruction"))
    noisy = add_noise(x, 10.0, 11)
    r1 = denoise(noisy, cfg)
    r2 = denoise(noisy, cfg)
    assert np.array_equal(r1.reconstruction.samples, r2.reconstruction.samples)


def test_stage_errors_carry_stage_tag(cfg):
    from tvshape import PipelineStageError

    flat = RealSignal(np.full(1000, 3.0) + np.linspace(0, 1e-15, 1000), 2000.0)
    with pytest.raises(PipelineStageError) as err:
        denoise(flat, cfg)
    assert err.value.stage in ("cycle", "extend", "fundamental")
