import json

import numpy as np
import pytest

from tvshape import (
    RealSignal,
    SyntheticSpec,
    WaveShapeModel,
    add_noise,
    generate,
    read_signal_csv,
    write_signal_csv,
)
from tvshape.cli import EXIT_NO_RESULT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main


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


def test_ip_preset_accepted(tmp_path):
    # IP-class values: sigma=1e-6, I_f=0.3 Hz, delta=0.008 Hz
    fs = 32.0
    t = np.arange(int(60 * fs)) / fs
    x = np.cos(2 * np.pi * 0.25 * t) + 0.25 * np.cos(2 * np.pi * 1.4 * t)
    src = tmp_path / "ip.csv"
    write_signal_csv(src, RealSignal(x - x.mean(), fs))
    out = tmp_path / "ip_out"
    code = main(["decompose", str(src), "-k", "2", "--preset", "ip", "--rmax", "3", "--out", str(out)])
    assert code == EXIT_OK


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
    assert f"usage error: {field} must be" in capsys.readouterr().err
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
    assert f"usage error: {next(iter(fit))}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["denoise", "--seed", "1"], ["decompose", "--seed", "1"], ["segment", "--seed", "1"],
             ["bench", "--fs", "2000"]],
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


def test_check_model_roundtrip(tmp_path, s1_csv):
    out = tmp_path / "o"
    main(["denoise", str(s1_csv), "--preset", "synthetic", "--out", str(out)])
    assert main(["check-model", str(out / "s1_noisy_model.json")]) == EXIT_OK


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
