"""The benchmark reads package names and builds its record sets from the public API.

perfbench/tracer.py looks each wrapped name up at run time,
perfbench/workloads.py builds every record with `preset(...)` overrides, and
perfbench/run.py and workloads.py read fields of the drivers' results and
errors, so a refactor that moves or renames one of them, or removes a config
field a record sets, breaks `perfbench/run.py`; these tests fail first.
"""

import numpy as np

import tvshape
from tvshape import FitDiagnostics, FitError, FitOptions, PipelineConfig, PipelineStageError


def test_every_wrapped_name_resolves(perfbench):
    # perfbench loads the benchmark's modules (conftest.py)
    tracer = perfbench("tracer")
    missing = [
        f"{path}.{attr}" for path, attr, _, _ in tracer.WRAPS if not hasattr(tracer._resolve(path), attr)
    ]
    assert missing == []


def test_fit_options_keep_the_field_the_tracer_reads():
    # the fit span's collector counts free parameters from opts.freeze_nodes
    assert hasattr(FitOptions(), "freeze_nodes")


def test_every_workload_record_builds(perfbench):
    workloads = perfbench("workloads")
    records = [rec for build in workloads.WORKLOADS.values() for rec in build()]
    records.append(workloads.warmup_record())
    for rec in records:
        assert PipelineConfig.from_dict(rec.cfg.to_dict()) == rec.cfg


def _assert_denoise_fields(res, n):
    # run.py: reconstruction, model nodes (haf_rms_err) and timings (stage_totals);
    # workloads.py: reconstruction and ridge.freq (check_output, output_digest)
    assert res.reconstruction.samples.shape == (n,)
    assert res.ridge.freq.ndim == 1
    assert res.model.harmonics
    for h in res.model.harmonics:
        assert h.nodes.times.shape == h.nodes.amps.shape
    assert res.timings and all(isinstance(s, float) for s in res.timings.values())


def test_driver_outputs_keep_the_fields_the_benchmark_reads(perfbench):
    workloads = perfbench("workloads")
    warm = workloads.warmup_record()
    res = tvshape.denoise(warm.signal, warm.cfg)
    workloads.check_output(warm, res)
    assert workloads.output_digest(warm, res)
    _assert_denoise_fields(res, len(warm.signal))

    mix = workloads.synthetic_mix()
    rec = next(r for r in mix if r.driver == "decompose")
    parts = tvshape.decompose(rec.signal, [rec.cfg], K=rec.K)
    workloads.check_output(rec, parts)
    assert workloads.output_digest(rec, parts)
    for part in parts:
        _assert_denoise_fields(part, len(rec.signal))

    rec = next(r for r in mix if r.driver == "segment")
    seg = tvshape.segment(rec.signal, rec.cfg)
    workloads.check_output(rec, seg)
    assert workloads.output_digest(rec, seg)
    assert seg.t_hat is not None and rec.t_transition is not None
    assert all(isinstance(ell, int) and isinstance(t, float) for ell, t in seg.per_harmonic)
    for trace in seg.haf_traces.values():
        assert np.all(np.isfinite(trace)) and trace.shape == (len(rec.signal),)


def test_driver_errors_keep_the_fields_the_benchmark_reads():
    # run.describe_failure reads the stage, the cause and a failed fit's diagnostics
    diag = FitDiagnostics(iterations=3, rss_trace=[2.0, 1.0], converged_by="max_iters", final_rss=1.0)
    cause = FitError("no fit", diag)
    err = PipelineStageError("fit", cause)
    assert err.stage == "fit" and err.cause is cause
    assert (cause.diagnostics.iterations, cause.diagnostics.converged_by, cause.diagnostics.final_rss) == (
        3, "max_iters", 1.0)
    # and the public names it calls the drivers and scores them through
    for name in ("denoise", "decompose", "segment", "snr_out", "PipelineStageError"):
        assert hasattr(tvshape, name)
