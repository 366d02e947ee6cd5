"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes of the tvshape package with wrappers,
at the names the calling module looks them up under, so nothing in the
package changes. Each wrapped call is a span with a layer, a name, a wall
time and the part of it covered by child spans. A tracer made with
memory=True also runs tracemalloc and keeps, per span name, the largest
peak of traced memory above what was allocated when a span began;
tracemalloc slows allocation-heavy Python code about twofold, so times
are taken from a tracer without it.

Layers are modules of the package. A layer's self time is the sum over its
spans of span time minus child-span time, so the self times of all layers
add up to the wall time of the root spans, which are the driver calls.
Helpers that are not listed below (e.g. metrics.acf inside the cycle
estimate, model.WaveShapeModel.unflatten inside the solver) count toward
the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter

# (module, attribute, layer, span name). The module is the one whose
# global name the caller resolves at call time.
WRAPS = [
    ("tvshape", "denoise", "pipeline", "denoise"),
    ("tvshape", "decompose", "pipeline", "decompose"),
    ("tvshape", "segment", "pipeline", "segment"),
    ("tvshape.pipeline", "denoise", "pipeline", "denoise"),          # inside decompose/segment
    ("tvshape.pipeline", "estimate_cycle_len", "extend", "cycle"),
    ("tvshape.pipeline", "fractional_cycle_len", "extend", "cycle"),
    ("tvshape.pipeline", "extend_boundaries", "extend", "extend"),
    ("tvshape.pipeline", "trim", "extend", "trim"),
    ("tvshape.pipeline", "stft", "stft", "stft"),
    ("tvshape.pipeline", "default_band_halfwidth", "stft", "band"),
    ("tvshape.pipeline", "estimate_fundamental", "stft", "fundamental"),
    ("tvshape.stft", "extract_ridge", "stft", "ridge"),
    ("tvshape.stft", "vertical_reconstruct", "stft", "vreconstruct"),     # fundamental
    ("tvshape.pipeline", "vertical_reconstruct", "stft", "vreconstruct"),  # node budget
    ("tvshape.pipeline", "demodulate", "model", "demodulate"),
    ("tvshape.pipeline", "remodulate", "model", "remodulate"),
    ("tvshape.pipeline", "evaluate_model", "model", "synthesize"),
    ("tvshape.pipeline", "estimate_order", "estimate", "order"),
    ("tvshape.pipeline", "estimate_node_count", "estimate", "nodes"),
    ("tvshape.pipeline", "warm_start", "estimate", "warm_start"),
    ("tvshape.pipeline", "fit", "solver", "fit"),
    ("tvshape.solver", "residual_and_jacobian", "solver", "jacobian"),
    ("tvshape.solver:FitContext", "synthesize", "solver", "trial_eval"),
    ("tvshape.solver", "pchip_eval", "pchip", "eval"),
    ("tvshape.solver", "pchip_eval_with_amp_jacobian", "pchip", "jac"),
    ("tvshape.model", "pchip_eval", "pchip", "eval"),
    ("tvshape.pipeline", "pchip_eval", "pchip", "eval"),
    ("tvshape.pipeline", "residual_metrics", "metrics", "metrics"),
    ("tvshape.pipeline", "pelt_mean_changes", "changepoint", "changepoint"),
]

LAYERS = ("pipeline", "extend", "stft", "model", "estimate", "solver", "pchip", "changepoint", "metrics")

# DenoiseResult.timings stage -> span name that covers exactly that stage.
# The stage timer runs around the wrapper, so it may exceed the span by
# the wrapper's bookkeeping, bounded here per call and relative to the span.
STAGE_SLACK_S, STAGE_SLACK_REL = 2e-3, 0.02
STAGE_SPANS = {
    "extend": "extend",
    "stft": "stft",
    "fundamental": "fundamental",
    "demodulate": "demodulate",
    "order": "order",
    "warm_start": "warm_start",
    "fit": "fit",
    "metrics": "metrics",
}


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _Frame:
    __slots__ = ("t0", "child", "mem0", "peak")

    def __init__(self, t0, mem0):
        self.t0 = t0
        self.child = 0.0
        self.mem0 = mem0
        self.peak = mem0


class Tracer:
    """Wraps the package's cross-module calls and aggregates their spans."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stack: list[_Frame] = []
        # Counters read 0 for a missing key without inserting it
        self.calls = Counter()            # span name -> calls
        self.total = Counter()            # span name -> inclusive seconds
        self.self_s = Counter()           # layer -> self seconds
        self.mem_peak = Counter()         # span name -> max bytes above span start
        self.counts = Counter()           # problem sizes and solver outcomes
        self.stage_timings = Counter()    # summed DenoiseResult.timings
        self.wall = 0.0                       # summed root span time
        self._saved = []

    # -- installation ------------------------------------------------------
    def __enter__(self):
        for path, attr, layer, span in WRAPS:
            owner = _resolve(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, span))
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.memory:
            tracemalloc.stop()
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, layer, span):
        tracer = self
        collect = getattr(self, f"_on_{span}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack and layer != "pipeline":
                return fn(*args, **kwargs)      # harness call outside any driver
            frame = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, layer, span)
            if collect is not None:
                collect(args, out)
            return out

        return wrapper

    # -- spans -------------------------------------------------------------
    def _enter(self) -> _Frame:
        cur = 0
        if self.memory:
            # tracemalloc keeps one global peak: fold it into the open span,
            # then restart it for the new one
            cur, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1].peak = max(self.stack[-1].peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(0.0, cur)
        self.stack.append(frame)
        frame.t0 = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, layer: str, span: str) -> None:
        dur = time.perf_counter() - frame.t0
        self.stack.pop()
        if self.memory:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            self.mem_peak[span] = max(self.mem_peak[span], frame.peak - frame.mem0)
            if self.stack:
                self.stack[-1].peak = max(self.stack[-1].peak, frame.peak)
        self.calls[span] += 1
        self.total[span] += dur
        self.self_s[layer] += dur - frame.child
        if self.stack:
            self.stack[-1].child += dur
        else:
            self.wall += dur

    # -- return-value collectors ---------------------------------------------
    def _on_denoise(self, args, res):
        for stage, seconds in res.timings.items():
            self.stage_timings[stage] += seconds

    def _on_stft(self, args, spec):
        self.counts["nfft"] += spec.nfft
        self.counts["stft_bytes"] += spec.values.nbytes

    def _on_extend(self, args, ext):
        self.counts["samples_added"] += ext.n_pre + ext.n_post

    def _on_warm_start(self, args, model):
        self.counts["r"] += model.r
        self.counts["nodes"] += sum(len(h.nodes) for h in model.harmonics)

    def _on_fit(self, args, out):
        init, opts = args[2], args[3]
        n = init.flatten().size
        self.counts["free_params"] += 2 * len(init.harmonics) if opts.freeze_nodes else n
        _, diag = out
        self.counts["iters"] += diag.iterations
        self.counts["max_iters_hits"] += diag.converged_by == "max_iters"
        self.counts["accepted"] += len(diag.rss_trace) - 1

    # -- report --------------------------------------------------------------
    def metrics(self, memory: "Tracer | None" = None) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, name -> (value, unit).

        Memory peaks come from the tracer `memory` when given.
        """
        c, t, n = self.counts, self.total, self.calls
        peak = (memory or self).mem_peak

        def mean(key, per):
            return c[key] / n[per] if n[per] else 0.0

        mb = 1.0 / 2**20
        m = {
            "solver.fit_s": (t["fit"], "s"),
            "solver.iters": (c["iters"], "count"),
            "solver.max_iters_hits": (c["max_iters_hits"], "count"),
            "solver.free_params": (mean("free_params", "fit"), "count"),
            "solver.jacobian_calls": (n["jacobian"], "count"),
            "solver.jacobian_s": (t["jacobian"], "s"),
            "solver.trial_evals": (n["trial_eval"], "count"),
            "solver.accept_ratio": (c["accepted"] / n["trial_eval"] if n["trial_eval"] else 0.0, "ratio"),
            "solver.tracemalloc_peak_mb": (peak["fit"] * mb, "MB"),
            "pchip.eval_calls": (n["eval"], "count"),
            "pchip.eval_s": (t["eval"], "s"),
            "pchip.jac_calls": (n["jac"], "count"),
            "pchip.jac_s": (t["jac"], "s"),
            "stft.s": (t["stft"], "s"),
            "stft.nfft": (mean("nfft", "stft"), "count"),
            "stft.bytes_computed": (c["stft_bytes"], "B"),
            "stft.tracemalloc_peak_mb": (peak["stft"] * mb, "MB"),
            "fundamental.s": (t["fundamental"], "s"),
            "vreconstruct.calls": (n["vreconstruct"], "count"),
            "vreconstruct.s": (t["vreconstruct"], "s"),
            "estimate.order_s": (t["order"], "s"),
            "estimate.nodes_s": (t["nodes"], "s"),
            "estimate.warm_start_s": (t["warm_start"], "s"),
            "estimate.r": (mean("r", "warm_start"), "count"),
            "estimate.node_count": (mean("nodes", "warm_start"), "count"),
            "changepoint.calls": (n["changepoint"], "count"),
            "changepoint.s": (t["changepoint"], "s"),
            "extend.s": (t["cycle"] + t["extend"] + t["trim"], "s"),
            "extend.samples_added": (c["samples_added"], "count"),
            "model.demodulate_s": (t["demodulate"], "s"),
            "model.synthesize_s": (t["synthesize"], "s"),
            "metrics.s": (t["metrics"], "s"),
            "pipeline.denoise_calls": (n["denoise"], "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer], "s")
        m["trace.wall_s"] = (self.wall, "s")
        return m

    def spans(self, memory: "Tracer | None" = None) -> dict[str, dict]:
        """Calls, inclusive seconds and tracemalloc peak (MB) per span name."""
        peak = (memory or self).mem_peak
        return {
            span: {"calls": n, "s": self.total[span], "tracemalloc_peak_mb": peak[span] / 2**20}
            for span, n in sorted(self.calls.items())
        }

    def stage_minus_span(self) -> dict[str, float]:
        """Per stage, DenoiseResult.timings total minus the traced span total (s)."""
        return {
            stage: self.stage_timings[stage] - self.total[span]
            for stage, span in STAGE_SPANS.items()
            if stage in self.stage_timings
        }

    def check(self) -> str | None:
        """Why the spans do not account for the traced run, or None when they do.

        Valid only when every traced driver call returned.
        """
        self_sum = sum(self.self_s.values())
        if abs(self_sum - self.wall) > 1e-9 * max(self.wall, 1.0):
            return f"layer self times sum to {self_sum} s, root spans to {self.wall} s"
        for stage, diff in self.stage_minus_span().items():
            span = STAGE_SPANS[stage]
            slack = STAGE_SLACK_S * self.calls[span] + STAGE_SLACK_REL * self.total[span]
            if not -1e-9 <= diff <= slack:
                return (f"stage {stage!r}: DenoiseResult.timings {self.stage_timings[stage]:.6f} s, "
                        f"traced spans {self.total[span]:.6f} s")
        return None
