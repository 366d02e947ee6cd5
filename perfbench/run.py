"""Benchmark of the tvshape drivers: throughput, memory and output quality.

Usage, from the repository root:

    python3 perfbench/run.py                     # every workload, one process each
    python3 perfbench/run.py --workload long-record --seed 3 --seconds 25 --trace 0

One process runs one workload. It pins the BLAS thread count, imports the
package from ./src, builds the workload's records (a fixed set, the same
for every --seed; workloads.py says why), runs one untimed warm-up record,
then sends the records to the public drivers (denoise, decompose, segment)
one at a time, each after the previous one returned, in whole passes over
the record set until --seconds have passed.
Every output is checked; a failed check ends the run with exit code 1.

--trace 0 prints the end-to-end metrics. --trace 1 runs one traced pass
under tracemalloc for memory peaks, one untraced pass and one traced pass
for span times (see tracer.py), and prints the per-layer metrics and the
tracing overhead (traced minus untraced wall time of a pass). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record of the run is written to
perfbench/out/.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("synthetic-mix", "long-record", "biomedical")
SETUP_REPEATS = 5          # set-ups per run: this process plus fresh child processes
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0, help="minimum measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up once, print its time, exit")
    return ap.parse_args(argv)


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


# -- set-up ---------------------------------------------------------------------

def import_program():
    if not (SRC / "tvshape" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tvshape'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import tvshape
    import workloads
    return tvshape, workloads


def set_up(args):
    """Import, build the records, run the warm-up record; seconds since process start."""
    tvshape, workloads = import_program()
    warnings.simplefilter("ignore")     # drivers warn on clipped bands and ridge collisions
    records = workloads.WORKLOADS[args.workload]()
    warm = workloads.warmup_record()
    workloads.check_output(warm, tvshape.denoise(warm.signal, warm.cfg))
    return time.perf_counter() - T_START, records


def child_setups(args) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- records ----------------------------------------------------------------------

def call_driver(tvshape, rec):
    if rec.driver == "denoise":
        return tvshape.denoise(rec.signal, rec.cfg)
    if rec.driver == "decompose":
        return tvshape.decompose(rec.signal, [rec.cfg], K=rec.K)
    return tvshape.segment(rec.signal, rec.cfg)


def describe_failure(tvshape, exc) -> dict:
    """Stage, cause and any fit diagnostics of a driver exception."""
    cause = exc.cause if isinstance(exc, tvshape.PipelineStageError) else exc
    out = {
        "stage": getattr(exc, "stage", None),
        "error": repr(cause),
    }
    diag = getattr(cause, "diagnostics", None)
    if diag is not None:
        out["fit"] = {"iterations": diag.iterations, "converged_by": diag.converged_by,
                      "final_rss": diag.final_rss}
    return out


def haf_rms_err(pchip_eval, model, alphas, t) -> float:
    """Mean over harmonics of the RMS error of the fitted HAF; a missing one is zero."""
    fitted = {ell: pchip_eval(h.nodes.times, h.nodes.amps, t) for ell, h in enumerate(model.harmonics, start=2)}
    zero = np.zeros_like(t)
    errs = [
        np.sqrt(np.mean((fitted.get(ell, zero) - alphas.get(ell, zero)) ** 2))
        for ell in sorted(set(fitted) | set(alphas))
    ]
    return float(np.mean(errs))


def score(tvshape, rec, out) -> dict:
    """Quality figures of one successful record against its truth."""
    from tvshape.pchip import pchip_eval

    clean = rec.signal.with_samples(rec.clean)
    if rec.driver == "denoise":
        return {
            "snr_out_db": tvshape.snr_out(clean, out.reconstruction),
            "haf_rms_err": haf_rms_err(pchip_eval, out.model, rec.alphas, rec.signal.times()),
        }
    if rec.driver == "decompose":
        total = sum(res.reconstruction.samples for res in out)
        return {"decomp_snr_db": tvshape.snr_out(clean, clean.with_samples(total))}
    return {"seg_err_ms": abs(out.t_hat - rec.t_transition) * 1e3}


def run_pass(tvshape, workloads, records, rows, digests, quality):
    """Send every record through its driver once; returns summed driver wall time."""
    wall = 0.0
    for i, rec in enumerate(records):
        failure = out = None
        t0 = time.perf_counter()
        try:
            out = call_driver(tvshape, rec)
        except Exception as exc:    # a failed record is counted, the run goes on
            failure = describe_failure(tvshape, exc)
        dt = time.perf_counter() - t0
        wall += dt
        if out is not None and rec.driver == "segment" and out.t_hat is None:
            failure = {"stage": None, "error": "segment found no transition"}
        row = {"record": rec.name, "driver": rec.driver, "n": len(rec.signal), "wall_s": dt}
        rows.append(row)
        if failure is not None:
            row["failure"] = failure
            continue
        workloads.check_output(rec, out)
        digest = hashlib.sha256(workloads.output_digest(rec, out)).hexdigest()
        if digests.setdefault(i, digest) != digest:
            raise workloads.CheckFailed(f"{rec.name}: output differs from its first run")
        if i not in quality:
            quality[i] = score(tvshape, rec, out)
        stage_totals(out, row)
    return wall


def stage_totals(out, row):
    """Summed DenoiseResult.timings of a denoise or decompose output (segment keeps none)."""
    results = out if isinstance(out, list) else [out] if hasattr(out, "timings") else []
    row["timings"] = {}
    for res in results:
        for stage, seconds in res.timings.items():
            row["timings"][stage] = row["timings"].get(stage, 0.0) + seconds


# -- metrics ----------------------------------------------------------------------

def quality_metrics(quality) -> dict:
    def values(key):
        return [q[key] for q in quality.values() if key in q]

    m = {}
    for key, unit, stat in (
        ("snr_out_db", "dB", statistics.fmean),
        ("haf_rms_err", "1", statistics.fmean),
        ("decomp_snr_db", "dB", statistics.fmean),
        ("seg_err_ms", "ms", statistics.median),
    ):
        if values(key):
            m[key] = (stat(values(key)), unit)
    return m


def end_to_end(rows, passes, quality, setups) -> dict:
    # each record's median wall time over the passes: this machine slows down
    # by up to ~1.4x for a few seconds at a time, which a median over passes
    # rejects and a sum would not
    per_pass = len(rows) // passes
    walls = [statistics.median(r["wall_s"] for r in rows[i::per_pass]) for i in range(per_pass)]
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (sum(r["n"] for r in rows[:per_pass]) / sum(walls), "samples/s"),
        "record_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    m.update(quality_metrics(quality))
    m["fail_frac"] = (sum("failure" in r for r in rows) / len(rows), "1")
    return m


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    first_setup, records = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup}))
        return 0

    import tvshape
    import workloads

    setups = [first_setup] + child_setups(args)
    rows, digests, quality = [], {}, {}
    detail = {"env": environment(args), "setup_runs_s": setups}
    correct, message = True, None
    try:
        if args.trace:
            from tracer import Tracer

            # the memory pass goes first: its times are not used, so it also
            # takes the first pass's cold start (first touch of the big STFT
            # arrays), leaving the untraced and traced passes comparable
            with Tracer(memory=True) as mem:
                run_pass(tvshape, workloads, records, rows, digests, quality)
            untraced = run_pass(tvshape, workloads, records, rows, digests, quality)
            with Tracer() as tracer:
                traced = run_pass(tvshape, workloads, records, rows, digests, quality)
            metrics = tracer.metrics(memory=mem)
            metrics["trace.untraced_wall_s"] = (untraced, "s")
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            detail["passes"] = 3
            detail["spans"] = tracer.spans(memory=mem)
            detail["stage_minus_span_s"] = tracer.stage_minus_span()
            problem = None if any("failure" in r for r in rows) else tracer.check()
            if mem.calls != tracer.calls:
                problem = "span counts differ between the two traced passes"
            if problem:
                raise workloads.CheckFailed(problem)
        else:
            t_begin = time.perf_counter()
            passes = 0
            while passes == 0 or time.perf_counter() - t_begin < args.seconds:
                run_pass(tvshape, workloads, records, rows, digests, quality)
                passes += 1
            detail["passes"] = passes
            metrics = end_to_end(rows, passes, quality, setups)
    except workloads.CheckFailed as exc:
        correct, message, metrics = False, str(exc), {}

    failed = sum("failure" in r for r in rows)
    detail.update(correct=correct, check_failure=message, records=rows,
                  record_count=len(rows), metrics={k: {"value": v, "unit": u} for k, v, u in flat(metrics)})
    write_detail(args, detail)
    print_report(detail, metrics, rows)
    declared = declared_metrics(args.trace)
    result = {
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, v, u in flat(metrics) if k in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def flat(metrics):
    return [(k, v, u) for k, (v, u) in metrics.items()]


def declared_metrics(trace: int) -> set:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_detail(args, detail):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1))


def print_report(detail, metrics, rows):
    env = detail["env"]
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"numpy={env['numpy']} python={env['python']}")
    print(f"# records={len(rows)} passes={detail.get('passes', 'unfinished')}")
    for r in rows:
        if "failure" in r:
            print(f"# FAILED {r['record']} ({r['driver']}): stage={r['failure']['stage']} {r['failure']['error']}")
    if detail["check_failure"]:
        print(f"# CHECK FAILED: {detail['check_failure']}")
    for name, value, unit in flat(metrics):
        print(f"{name:28s} {value:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
