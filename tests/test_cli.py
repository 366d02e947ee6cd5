import json

import numpy as np
import pytest

from tvshape import (
    FundamentalEstimate,
    HafNodes,
    HarmonicModel,
    RealSignal,
    SyntheticSpec,
    WaveShapeModel,
    add_noise,
    decompose,
    generate,
    preset,
    read_signal_csv,
    write_signal_csv,
)
from tvshape.cli import EXIT_NO_RESULT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from tvshape.pipeline import RETIRED_KEYS
from tvshape.stft import fft_length, gaussian_window


@pytest.fixture(scope="module")
def s1_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    x, _ = generate(SyntheticSpec("tv_denoise_s1"))
    noisy = add_noise(x, 10.0, 0)
    path = d / "s1_noisy.csv"
    write_signal_csv(path, noisy)
    return path


def test_denoise_command(tmp_path, s1_csv):
    out = tmp_path / "out"
    code = main(["denoise", str(s1_csv), "--preset", "synthetic", "--out", str(out)])
    assert code == EXIT_OK
    recon = read_signal_csv(out / "s1_noisy_denoised.csv")
    original = read_signal_csv(s1_csv)
    assert len(recon) == len(original)  # trim contract
    model = WaveShapeModel.from_json((out / "s1_noisy_model.json").read_text())
    assert model.r >= 2
    report = json.loads((out / "s1_noisy_report.json").read_text(), parse_constant=_reject_constant)
    assert report["input"]["n"] == len(original)


def _reject_constant(name):
    # NaN and Infinity are not JSON; strict parsers (jq, JavaScript) refuse them
    raise ValueError(f"report holds the non-JSON constant {name}")


def test_denoise_missing_fs_usage_error(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("\n".join(f"{v}" for v in np.sin(np.arange(600) / 3.0)))
    code = main(["denoise", str(path), "--preset", "synthetic"])
    assert code == EXIT_USAGE


def test_unknown_flag_usage_error(s1_csv):
    assert main(["denoise", str(s1_csv), "--nope"]) == EXIT_USAGE


def test_epoch_stamped_record_round_trips_through_the_commands(tmp_path, s1_csv):
    # the s1 record stamped from 1.7e9 s, where doubles are 2.4e-7 s apart
    x = read_signal_csv(s1_csv, fs=2000.0)
    src = tmp_path / "epoch.csv"
    write_signal_csv(src, RealSignal(x.samples, 2000.0, t0=1.7e9))
    stamps = read_signal_csv(src).times()
    out = tmp_path / "out"
    assert main(["denoise", str(src), "--preset", "synthetic", "--fs", "2000", "--out", str(out)]) == EXIT_OK
    assert np.array_equal(read_signal_csv(out / "epoch_denoised.csv").times(), stamps)
    assert main(["segment", str(src), "--preset", "synthetic", "--out", str(out)]) in (EXIT_OK, EXIT_NO_RESULT)
    haf = sorted(out.glob("epoch_haf*.csv"))
    assert haf and all(read_signal_csv(path).t0 == 1.7e9 for path in haf)


def test_non_numeric_cell_usage_error(tmp_path, capsys):
    src = tmp_path / "text.csv"
    src.write_text("t,value\n0,1\n0.0005,n/a\n0.001,3\n")
    assert main(["denoise", str(src), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "usage error: line 3: non-numeric cell in '0.0005,n/a'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_decompose_command(tmp_path):
    x, _ = generate(SyntheticSpec("multicomponent"))
    noisy = add_noise(x, 10.0, 1)
    src = tmp_path / "multi.csv"
    write_signal_csv(src, noisy)
    out = tmp_path / "dec"
    code = main(["decompose", str(src), "-k", "2", "--preset", "synthetic", "--out", str(out)])
    assert code == EXIT_OK
    c1 = read_signal_csv(out / "multi_component1.csv")
    c2 = read_signal_csv(out / "multi_component2.csv")
    resid = read_signal_csv(out / "multi_residual.csv")
    # bookkeeping identity: components + residual == input
    total = c1.samples + c2.samples + resid.samples
    assert np.allclose(total, noisy.samples, atol=1e-9)
    WaveShapeModel.from_json((out / "multi_component1_model.json").read_text())


def _ip_record() -> RealSignal:
    # two respiratory-rate rhythms, 0.25 Hz and 1.4 Hz, a minute at 32 Hz
    fs = 32.0
    t = np.arange(int(60 * fs)) / fs
    x = np.cos(2 * np.pi * 0.25 * t) + 0.25 * np.cos(2 * np.pi * 1.4 * t)
    return RealSignal(x - x.mean(), fs)


def test_ip_preset_accepted(tmp_path):
    # IP-class values: sigma=1e-6, I_f=0.3 Hz, delta=0.008 Hz
    src = tmp_path / "ip.csv"
    write_signal_csv(src, _ip_record())
    out = tmp_path / "ip_out"
    code = main(["decompose", str(src), "-k", "2", "--preset", "ip", "--rmax", "3", "--out", str(out)])
    assert code == EXIT_OK


def test_decompose_of_the_ip_record_finds_both_rhythms():
    # each stage's mean ridge rate lies within a bin of the window's own
    # grid (fs / 16384, finer than the 4096-point grid the record is
    # transformed on) of one rhythm
    x = _ip_record()
    cfg = preset("ip", r_max=3)
    _, half = gaussian_window(cfg.sigma)
    found = sorted(
        (float(np.mean(res.ridge.freq)), x.fs / fft_length(len(res.extension.extended), 2 * half + 1))
        for res in decompose(x, [cfg], K=2)
    )
    for (mean, bin_width), target in zip(found, (0.25, 1.4), strict=True):
        assert abs(mean - target) <= bin_width


def test_decompose_of_the_ip_record_grows_no_band_past_its_reads(band_log):
    # the ip window (8583 taps) outruns the 2304-sample extended record, so
    # each stage transforms on a grid sized by the record and the steps it
    # reads, 4096 points. Each stage stores the band around its own coarse
    # ridge, so the band holds every read of the ridge walk and the
    # fundamental: one coarse pass and one pass over every frame per stage,
    # and no band grows. Stage 2's residual shows its own ~1.42 Hz rhythm at
    # both edges, and its forecast takes that season
    x, cfg = _ip_record(), preset("ip", r_max=3)
    decompose(x, [cfg], K=2)
    assert band_log.hops == [int(1.0 / np.sqrt(2.0 * cfg.sigma)), 1] * 2
    _, half = gaussian_window(cfg.sigma)
    n_ext = band_log.made[0][0].n_times
    resolution = min(cfg.max_jump_hz, cfg.delta) / x.fs
    assert n_ext < 2 * half + 1
    assert fft_length(n_ext, 2 * half + 1, resolution) == 4096 < fft_length(n_ext, 2 * half + 1)
    assert all(rate == pytest.approx(1.42, abs=0.02) for rate in x.fs / np.asarray(band_log.cycles[2:]))
    for spec, first, stored in band_log.made:
        assert spec.nfft == 4096
        assert (spec.first, spec.values.shape[1]) == (first, stored)
        own = [(start, stop) for key, start, stop, _, _ in band_log.reads if key == id(spec)]
        assert own and all(first <= start and stop <= first + stored for start, stop in own)


def test_segment_command(tmp_path):
    spec = SyntheticSpec(
        "sharp_transition", params={"t_t": 0.5, "mu": 0.35, "lam": 0.2, "kappa": 50.0, "r": 4}
    )
    x, _ = generate(spec)
    src = tmp_path / "sharp.csv"
    write_signal_csv(src, add_noise(x, 15.0, 3))
    out = tmp_path / "seg"
    code = main(["segment", str(src), "--preset", "synthetic", "--out", str(out)])
    assert code == EXIT_OK
    raw = json.loads((out / "sharp_segmentation.json").read_text())
    assert raw["t_hat"] is not None and raw["per_harmonic"]
    # per-harmonic trace CSVs match input row count
    n = len(read_signal_csv(src))
    for entry in raw["per_harmonic"]:
        trace = (out / f"sharp_haf{entry['l']}.csv").read_text().strip().splitlines()
        assert len(trace) - 1 == n


def test_segment_no_transition_exit_code(tmp_path):
    spec = SyntheticSpec(
        "sharp_transition", params={"t_t": 0.5, "mu": 0.3, "lam": 0.0, "kappa": 50.0, "r": 3}
    )
    x, _ = generate(spec)
    src = tmp_path / "flat.csv"
    write_signal_csv(src, x)
    out = tmp_path / "seg0"
    code = main(["segment", str(src), "--preset", "synthetic", "--out", str(out)])
    assert code == EXIT_NO_RESULT
    raw = json.loads((out / "flat_segmentation.json").read_text())
    assert raw["t_hat"] is None


def test_synth_and_config_file(tmp_path):
    out_csv = tmp_path / "sig.csv"
    truth = tmp_path / "truth.json"
    code = main(["synth", "tv_denoise_s1", "--snr", "10", "--seed", "5", "--out", str(out_csv), "--truth", str(truth)])
    assert code == EXIT_OK
    sig = read_signal_csv(out_csv)
    assert len(sig) == 2000
    json.loads(truth.read_text())

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sigma": 1e-4, "I_f": 2.0, "r_max": 4}))
    out = tmp_path / "cfgout"
    assert main(["denoise", str(out_csv), "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize(
    "cfg", [{"sigmaa": 5e-5}, {"fit": {"max_iter": 3}}, {"min_nodes": 7}, [1, 2], {"fit": None}]
)
def test_bad_config_file_usage_error(tmp_path, s1_csv, capsys, cfg):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["denoise", str(s1_csv), "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "usage error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, field",
    [({"r_max": 2.5}, "r_max"), ({"fit": {"max_iters": 2.5}}, "max_iters"), ({"sigma": "1e-4"}, "sigma"),
     ({"fit": {"freeze_nodes": "false"}}, "freeze_nodes"), ({"r_max": True}, "r_max"),
     # json.dumps writes NaN, which Python's json reads back
     ({"sigma": float("nan")}, "sigma"), ({"fit": {"min_node_gap": float("inf")}}, "min_node_gap")],
)
def test_config_value_of_the_wrong_type_usage_error(tmp_path, s1_csv, capsys, cfg, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["denoise", str(s1_csv), "--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
    # max_iters and min_node_gap are retired keys, read only at the value they always held
    retired = f"fit.{field}" in RETIRED_KEYS
    expected = f"config key 'fit.{field}' is retired" if retired else f"{field} must be"
    assert f"usage error: {expected}" in capsys.readouterr().err
    assert not out.exists()


def test_config_and_preset_are_exclusive(tmp_path, s1_csv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"r_max": 4}))
    out = tmp_path / "out"
    argv = ["denoise", str(s1_csv), "--config", str(cfg_path), "--preset", "eeg", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [["--sigma", "-1"], ["--If", "0"], ["--delta", "-2"], ["--rmax", "0"], ["--delta", "nan"],
     ["--sigma", "nan"], ["--If", "nan"], ["--sigma", "inf"], ["--delta", "inf"],
     # valid numbers that the record's STFT cannot honour: a ridge step below
     # one bin, a window under 8 samples
     ["--If", "0.001"], ["--sigma", "1"], ["--sigma", "2"],
     # no flag: the eeg preset's I_f (0.04 Hz) is below one bin at this
     # record's 2 kHz (the later --preset wins)
     ["--preset", "eeg"]],
)
def test_out_of_range_config_flag_usage_error(tmp_path, s1_csv, capsys, flag):
    out = tmp_path / "out"
    assert main(["denoise", str(s1_csv), "--preset", "synthetic", *flag, "--out", str(out)]) == EXIT_USAGE
    assert "usage error: " in capsys.readouterr().err
    assert not out.exists()


def test_resolution_error_names_the_parameter_and_the_sampling_rate(tmp_path, s1_csv, capsys):
    out = tmp_path / "out"
    assert main(["denoise", str(s1_csv), "--preset", "eeg", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "I_f=0.04 Hz is below one bin width" in err
    assert "fs=2000 Hz" in err and "raise I_f or lower sigma" in err


def test_record_failure_is_a_runtime_error(tmp_path, capsys):
    # an all-zero record fails in the pipeline under a valid config: exit 1
    src = tmp_path / "zero.csv"
    write_signal_csv(src, RealSignal(np.zeros(2000), 2000.0))
    out = tmp_path / "out"
    assert main(["denoise", str(src), "--preset", "synthetic", "--out", str(out)]) == EXIT_RUNTIME
    assert "error: stage " in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def s1_single_column_csv(tmp_path_factory, s1_csv):
    path = tmp_path_factory.mktemp("cli1") / "s1_values.csv"
    path.write_text("\n".join(map(repr, read_signal_csv(s1_csv).samples.tolist())))
    return path


@pytest.mark.parametrize("fs", ["nan", "inf"])
@pytest.mark.parametrize("single_column", [True, False])
def test_non_finite_fs_usage_error(tmp_path, s1_csv, s1_single_column_csv, capsys, fs, single_column):
    src = s1_single_column_csv if single_column else s1_csv
    assert len(read_signal_csv(src, fs=2000.0)) == 2000
    out = tmp_path / "out"
    assert main(["denoise", str(src), "--fs", fs, "--out", str(out)]) == EXIT_USAGE
    assert "usage error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("penalty", ["-5", "nan"])
def test_bad_penalty_usage_error(tmp_path, s1_csv, capsys, penalty):
    out = tmp_path / "out"
    assert main(["segment", str(s1_csv), "--penalty", penalty, "--out", str(out)]) == EXIT_USAGE
    assert "usage error: penalty must be a number >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fit", [{"min_node_gap": 0}, {"min_node_gap": -0.001}, {"max_iters": 0}, {"max_iters": -3}]
)
def test_out_of_range_fit_option_usage_error(tmp_path, s1_csv, capsys, fit):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"fit": fit}))
    out = tmp_path / "out"
    assert main(["denoise", str(s1_csv), "--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
    assert f"usage error: config key 'fit.{next(iter(fit))}' is retired" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fit", [{"max_iters": 100}, {"e_bound": 0.2}, {"min_node_gap": 1e-3}])
def test_retired_fit_setting_at_another_value_usage_error(tmp_path, s1_csv, capsys, fit):
    # in range, but the fit runs at the solver's constant: a usage error, not ignored
    cfg_path = tmp_path / "retired.json"
    cfg_path.write_text(json.dumps({"fit": fit}))
    out = tmp_path / "out"
    assert main(["denoise", str(s1_csv), "--config", str(cfg_path), "--out", str(out)]) == EXIT_USAGE
    assert f"usage error: config key 'fit.{next(iter(fit))}' is retired" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["denoise", "--seed", "1"], ["decompose", "--seed", "1"], ["segment", "--seed", "1"],
             ["bench", "--fs", "2000"], ["bench", "--jobs", "2"]],
)
def test_flag_the_command_does_not_read_usage_error(tmp_path, s1_csv, argv):
    target = "tv_denoise_s1" if argv[0] == "bench" else str(s1_csv)
    assert main([argv[0], target, *argv[1:], "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_bench_command(tmp_path):
    out = tmp_path / "bench"
    code = main([
        "bench", "tv_denoise_s1", "--snr", "10", "-n", "2", "--preset", "synthetic",
        "--seed", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    table = (out / "tv_denoise_s1_table.csv").read_text().strip().splitlines()
    assert table[0].startswith("snr_in")
    assert len(table) == 2
    summary = json.loads((out / "tv_denoise_s1_summary.json").read_text())
    row = summary["rows"][0]
    assert row["ours_n"] == 2 and row["failures"] == 0
    for m in ("ours", "lr", "stft_hard", "stft_soft"):
        assert row[f"{m}_mean"] is not None


@pytest.mark.parametrize("snr", ["inf", "nan", "10,-inf"])
def test_bench_non_finite_snr_usage_error(tmp_path, capsys, snr):
    out = tmp_path / "bench"
    assert main(["bench", "tv_denoise_s1", "--snr", snr, "-n", "1", "--out", str(out)]) == EXIT_USAGE
    assert "usage error: SNR level" in capsys.readouterr().err
    assert not out.exists()


def test_check_model_roundtrip(tmp_path, s1_csv):
    out = tmp_path / "o"
    main(["denoise", str(s1_csv), "--preset", "synthetic", "--out", str(out)])
    assert main(["check-model", str(out / "s1_noisy_model.json")]) == EXIT_OK


MALFORMED_MODELS = {
    "'extension_map'": lambda raw: {k: v for k, v in raw.items() if k != "extension_map"},
    "'r'": lambda raw: {k: v for k, v in raw.items() if k != "r"},
    "'nodes'": lambda raw: {**raw, "harmonics": [{"e": 2.0, "c": 0.1}]},
    "not a JSON object": lambda raw: [raw],
    "'fs'": lambda raw: {**raw, "fundamental": {**raw["fundamental"], "fs": 0}},
    # an integer past a double's range, which Python's json reads
    "'fs' is not a positive, finite sampling rate (inf)": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "fs": 10**400}},
    "'B1'": lambda raw: {**raw, "fundamental": {**raw["fundamental"], "B1": raw["fundamental"]["B1"][:-5]}},
    # non-finite numbers, which Python's json reads as NaN and Infinity
    "'t' holds a non-finite": lambda raw: {**raw, "harmonics": [{**raw["harmonics"][0], "nodes": [
        {"t": float("nan"), "a": 0.5}, {"t": 0.05, "a": 0.4}]}]},
    "'e' holds a non-finite": lambda raw: {**raw, "harmonics": [{**raw["harmonics"][0], "e": float("inf")}]},
    "'c' holds a non-finite": lambda raw: {**raw, "harmonics": [{**raw["harmonics"][0], "c": float("nan")}]},
    "'phi1' holds a non-finite": lambda raw: {
        **raw, "fundamental": {**raw["fundamental"], "phi1": [float("nan")] + raw["fundamental"]["phi1"][1:]}},
}


@pytest.mark.parametrize("named", MALFORMED_MODELS)
def test_check_model_of_a_malformed_file_usage_error(tmp_path, capsys, named):
    nodes = HafNodes(np.array([0.0, 0.05]), np.array([0.5, 0.4]))
    fund = FundamentalEstimate(np.ones(100), 40 * np.arange(100) / 2000.0, 2000.0)
    raw = json.loads(WaveShapeModel(2, [HarmonicModel(2.0, 0.1, nodes)], fund).to_json())
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    assert main(["check-model", str(path)]) == EXIT_OK
    path.write_text(json.dumps(MALFORMED_MODELS[named](raw)))
    assert main(["check-model", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and named in err


def test_check_model_without_fundamental_usage_error(tmp_path, capsys):
    raw = json.loads(WaveShapeModel(r=1, harmonics=[]).to_json())
    del raw["fundamental"]
    path = tmp_path / "old_model.json"
    path.write_text(json.dumps(raw))
    assert main(["check-model", str(path)]) == EXIT_USAGE
    assert "'fundamental'" in capsys.readouterr().err


def test_default_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TVSHAPE_OUT", str(tmp_path / "envout"))
    code = main(["synth", "tv_denoise_s1", "--out", str(tmp_path / "envout" / "x.csv")])
    assert code == EXIT_OK
    from tvshape.cli import _default_out_dir

    assert _default_out_dir() == str(tmp_path / "envout")
