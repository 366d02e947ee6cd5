"""Command-line front end.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 no result
(e.g. no wave-shape transition found).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import EXPERIMENTS, BenchSpec, run_bench, write_bench_outputs
from .generators import KINDS, SyntheticSpec, generate
from .metrics import add_noise
from .model import WaveShapeModel, evaluate_model, remodulate
from .pipeline import PRESETS, PipelineConfig, PipelineStageError, decompose, denoise, preset, segment
from .signals import read_signal_csv, write_signal_csv
from .stft import ResolutionError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NO_RESULT = 3


def _default_out_dir() -> str:
    return os.environ.get("TVSHAPE_OUT", ".")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("--fs", type=float, help="sampling rate for single-column CSV input")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    base = p.add_mutually_exclusive_group()
    base.add_argument("--preset", choices=sorted(PRESETS), help="per-signal-class parameter preset")
    base.add_argument("--config", help="JSON config file mirroring PipelineConfig fields")
    p.add_argument("--sigma", type=float, help="STFT window decay (per squared sample)")
    p.add_argument("--If", dest="max_jump", type=float, help="ridge max frequency jump, Hz")
    p.add_argument("--delta", type=float, help="reconstruction band half-width, Hz")
    p.add_argument("--rmax", type=int, help="largest harmonic order considered")
    p.add_argument("--out", default=None, help="output file/directory")


def _build_config(args) -> PipelineConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = PipelineConfig.from_dict(json.load(fh))
    elif args.preset:
        cfg = preset(args.preset)
    else:
        cfg = PipelineConfig()
    # replace() reruns PipelineConfig's checks on the overridden values
    flags = {"sigma": args.sigma, "max_jump_hz": args.max_jump, "delta": args.delta, "r_max": args.rmax}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def cmd_denoise(args) -> int:
    x = read_signal_csv(args.input, fs=args.fs)
    cfg = _build_config(args)
    res = denoise(x, cfg)
    out = Path(args.out or _default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    write_signal_csv(out / f"{stem}_denoised.csv", res.reconstruction)
    (out / f"{stem}_model.json").write_text(res.model.to_json(), encoding="utf-8")
    (out / f"{stem}_report.json").write_text(res.report_json(x, cfg), encoding="utf-8")
    print(f"wrote {out / f'{stem}_denoised.csv'}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    x = read_signal_csv(args.input, fs=args.fs)
    cfg = _build_config(args)
    results = decompose(x, [cfg], K=args.k)
    out = Path(args.out or _default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    residual = x.samples.copy()
    for i, res in enumerate(results, start=1):
        write_signal_csv(out / f"{stem}_component{i}.csv", res.reconstruction)
        (out / f"{stem}_component{i}_model.json").write_text(res.model.to_json(), encoding="utf-8")
        residual -= res.reconstruction.samples
    write_signal_csv(out / f"{stem}_residual.csv", x.with_samples(residual))
    print(f"wrote {args.k} components + residual under {out}")
    return EXIT_OK


def cmd_segment(args) -> int:
    x = read_signal_csv(args.input, fs=args.fs)
    cfg = _build_config(args)
    res = segment(x, cfg, penalty=args.penalty)
    out = Path(args.out or _default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    (out / f"{stem}_segmentation.json").write_text(res.to_json(), encoding="utf-8")
    t = x.times().tolist()
    for ell, trace in res.haf_traces.items():
        with open(out / f"{stem}_haf{ell}.csv", "w", encoding="utf-8") as fh:
            fh.write("t,alpha\n")
            for ti, ai in zip(t, trace):  # repr: the times read back as the same doubles
                fh.write(f"{ti!r},{ai:.9g}\n")
    if res.t_hat is None:
        print("no wave-shape transition detected")
        return EXIT_NO_RESULT
    print(f"transition at t = {res.t_hat:.4f} s; wrote {out / f'{stem}_segmentation.json'}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    spec = BenchSpec(
        experiment=args.experiment,
        snr_levels=[float(v) for v in args.snr.split(",")],
        n_realizations=args.n,
        seed=args.seed,
        config=cfg,
    )
    result = run_bench(spec)
    csv_path, json_path = write_bench_outputs(result, args.out or _default_out_dir())
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SyntheticSpec(args.kind)
    x, gt = generate(spec, seed=args.seed)
    if args.snr is not None:
        x = add_noise(x, args.snr, args.seed)
    out = Path(args.out or f"{args.kind}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_signal_csv(out, x)
    if args.truth:
        Path(args.truth).write_text(gt.to_json(), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check_model(args) -> int:
    model = WaveShapeModel.from_json(Path(args.model).read_text(encoding="utf-8"))
    fund = model.fundamental
    if fund is None:
        raise ValueError(f"{args.model} has no 'fundamental' field; the model cannot be resynthesized")
    y = remodulate(evaluate_model(model, fund.phi1), fund)
    if not np.all(np.isfinite(y.samples)):
        raise ValueError(f"{args.model} resynthesizes to non-finite samples")
    print(f"model ok: r={model.r}, nodes per harmonic:", [len(h.nodes) for h in model.harmonics],
          f"resynthesized {len(y)} samples")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tvshape",
        description="Time-varying wave-shape modeling: denoise, decompose, segment",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("denoise", help="fit the wave-shape model and reconstruct")
    _add_input(d)
    _add_config_flags(d)
    d.set_defaults(fn=cmd_denoise)

    dc = sub.add_parser("decompose", help="deflationary multicomponent extraction")
    _add_input(dc)
    dc.add_argument("-k", type=int, default=2, help="number of components")
    _add_config_flags(dc)
    dc.set_defaults(fn=cmd_decompose)

    sg = sub.add_parser("segment", help="locate sharp wave-shape transitions")
    _add_input(sg)
    sg.add_argument("--penalty", type=float, default=None)
    _add_config_flags(sg)
    sg.set_defaults(fn=cmd_segment)

    b = sub.add_parser("bench", help="Monte-Carlo benchmark sweep")
    b.add_argument("experiment", choices=EXPERIMENTS)
    b.add_argument("--snr", default="0,5,10,15,20", help="comma-separated input SNR levels, dB")
    b.add_argument("-n", type=int, default=20, help="realizations per level")
    b.add_argument("--seed", type=int, default=0)
    _add_config_flags(b)
    b.set_defaults(fn=cmd_bench)

    sy = sub.add_parser("synth", help="write a synthetic test signal as CSV")
    sy.add_argument("kind", choices=KINDS)
    sy.add_argument("--snr", type=float, default=None, help="add noise at this input SNR")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", default=None)
    sy.add_argument("--truth", default=None, help="also write ground-truth JSON here")
    sy.set_defaults(fn=cmd_synth)

    ck = sub.add_parser("check-model", help="validate a model JSON file by resynthesizing it")
    ck.add_argument("model")
    ck.set_defaults(fn=cmd_check_model)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - surface any stage failure
        # a flag the record's STFT cannot honour is a usage error too
        usage = isinstance(exc, PipelineStageError) and isinstance(exc.cause, ResolutionError)
        print(f"{'usage error' if usage else 'error'}: {exc}", file=sys.stderr)
        return EXIT_USAGE if usage else EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
