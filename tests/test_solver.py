import importlib
import json
import tracemalloc

import numpy as np
import pytest

from tvshape import (
    FitError,
    FitOptions,
    FundamentalEstimate,
    HafNodes,
    HarmonicModel,
    PipelineConfig,
    RealSignal,
    SyntheticSpec,
    WaveShapeModel,
    add_noise,
    denoise,
    fit,
    generate,
    preset,
    residual_and_jacobian,
)
from tvshape import solver
from tvshape.pchip import pchip_eval, pchip_eval_with_amp_jacobian
from tvshape.solver import FTOL, FitContext, FitDiagnostics

from oracles import fd_jacobian, pchip_slopes

FS = 2000.0
pipeline_module = importlib.import_module("tvshape.pipeline")


def _phi(n, f0=40.0, fm=0.0):
    t = np.arange(n) / FS
    return f0 * t + fm / (2 * np.pi) * np.sin(2 * np.pi * t)


def _fund(n):
    return FundamentalEstimate(B1=np.ones(n), phi1=_phi(n), fs=FS)


def _random_model(rng, n=1200, r=3, n_nodes=5, span=1.0):
    harmonics = []
    for ell in range(2, r + 1):
        times = np.linspace(0.0, span, n_nodes)
        times[1:-1] += rng.uniform(-0.2, 0.2, n_nodes - 2) * span / (2 * n_nodes)
        amps = rng.uniform(0.2, 0.8, n_nodes)
        harmonics.append(
            HarmonicModel(
                e=ell + rng.uniform(-0.05, 0.05),
                c=rng.uniform(-0.5, 0.5),
                nodes=HafNodes(np.sort(times), amps),
            )
        )
    return WaveShapeModel(r=r, harmonics=harmonics, fundamental=_fund(n))


def _context(model, target=None, n=1200):
    phi1 = _phi(n, fm=2.0)
    if target is None:
        target = np.zeros(n)
    return FitContext(
        target=target,
        phi1=phi1,
        t=np.arange(n) / FS,
        template=model.copy(),
        min_node_gap=2.0 / FS,
    )


def test_analytic_jacobian_matches_finite_differences(rng):
    for _ in range(10):
        model = _random_model(rng)
        ctx = _context(model)
        gamma = model.flatten()
        _, J = residual_and_jacobian(gamma, ctx)
        J_fd = fd_jacobian(gamma, ctx)
        for i in range(gamma.size):
            scale = max(np.max(np.abs(J_fd[:, i])), 1e-9)
            err = np.max(np.abs(J[:, i] - J_fd[:, i])) / scale
            assert err < 1e-5, f"column {i}: rel err {err}"


def _reference_residual_and_jacobian(gamma, ctx):
    """Residual and jacobian with full-length central differences per node time."""
    model = ctx.template.unflatten(gamma)
    J = np.zeros((ctx.target.size, gamma.size))
    synth = np.cos(2 * np.pi * ctx.phi1)
    pos = 0
    dt_h = ctx.min_node_gap / 10.0
    for h, slots in zip(model.harmonics, ctx.template.coefficient_layout()[0]):
        arg = 2 * np.pi * h.e * ctx.phi1
        cos_a, sin_a = np.cos(arg), np.sin(arg)
        theta = cos_a + h.c * sin_a
        haf, W = pchip_eval_with_amp_jacobian(h.nodes.times, h.nodes.amps, ctx.t)
        synth = synth + haf * theta
        n_t = slots.nodes.size
        for k, i in enumerate(slots.nodes):
            tp = h.nodes.times.copy()
            tm = h.nodes.times.copy()
            tp[i] += dt_h
            tm[i] -= dt_h
            dhaf = (pchip_eval(tp, h.nodes.amps, ctx.t) - pchip_eval(tm, h.nodes.amps, ctx.t)) / (2 * dt_h)
            J[:, pos + k] = -dhaf * theta
        pos += n_t
        n_a = len(h.nodes)
        J[:, pos : pos + n_a] = -W * theta[:, None]
        pos += n_a
        J[:, pos] = -haf * sin_a
        J[:, pos + 1] = -haf * 2 * np.pi * ctx.phi1 * (-sin_a + h.c * cos_a)
        pos += 2
    return ctx.target - synth, J


@pytest.mark.parametrize("extension_map", [(0, 0), (200, 200)])
@pytest.mark.parametrize("n", [1200, 2001])      # 0.6 s and the full 1 s node span
def test_jacobian_equals_full_length_differences_bitwise(rng, extension_map, n):
    # the free nodes next to the fixed edge nodes move an edge slope too
    for n_nodes in (5, 6, 9):
        model = _random_model(rng, n=n, r=3, n_nodes=n_nodes)
        model.extension_map = extension_map
        ctx = _context(model, target=rng.standard_normal(n), n=n)
        gamma = model.flatten()
        r, J = residual_and_jacobian(gamma, ctx)
        r_ref, J_ref = _reference_residual_and_jacobian(gamma, ctx)
        assert np.array_equal(r, r_ref)
        assert np.array_equal(J, J_ref)


@pytest.mark.parametrize("extension_map", [(0, 0), (200, 200)])
@pytest.mark.parametrize("r", [3, 4])
def test_jacobian_from_a_trial_s_terms_equals_a_fresh_one_bytewise(rng, r, extension_map):
    # the fit hands the harmonic terms of its accepted trial to the next
    # jacobian: residual and jacobian are those computed from scratch
    n = 1200
    model = _random_model(rng, n=n, r=r, n_nodes=6)
    model.extension_map = extension_map
    ctx = _context(model, rng.standard_normal(n), n)
    gamma = model.flatten()
    synth, terms = ctx.synthesize(gamma)
    assert synth.tobytes() == ctx.synthesize(gamma)[0].tobytes()
    fresh = [a.tobytes() for a in residual_and_jacobian(gamma, ctx)]
    assert [a.tobytes() for a in residual_and_jacobian(gamma, ctx, terms)] == fresh


def test_fit_hands_the_accepted_trial_to_the_jacobian(rng, monkeypatch):
    # a fit that rejects trials: the terms handed on must be the accepted
    # trial's, so the fit equals one whose jacobians start from scratch
    n = 800
    model = _random_model(rng, n=n, r=3, n_nodes=5)
    phi1 = _phi(n, fm=2.0)
    target = _context(model, n=n).synthesize(model.flatten())[0] + 0.05 * rng.standard_normal(n)
    init = _random_model(rng, n=n, r=3, n_nodes=5)
    xd = RealSignal(target, FS)
    calls = []
    synthesize = FitContext.synthesize

    def counted(ctx, gamma):
        calls.append(gamma)
        return synthesize(ctx, gamma)

    monkeypatch.setattr(FitContext, "synthesize", counted)
    monkeypatch.setattr(solver, "MAX_ITERS", 50)
    fitted, diag = fit(xd, phi1, init)
    # the initial model and one call per trial; the trace holds the accepted ones
    assert len(calls) > len(diag.rss_trace)
    jacobian = solver.residual_and_jacobian
    monkeypatch.setattr(solver, "residual_and_jacobian", lambda gamma, ctx, terms=None: jacobian(gamma, ctx))
    ref, ref_diag = fit(xd, phi1, init)
    assert fitted.flatten().tobytes() == ref.flatten().tobytes()
    assert diag.rss_trace == ref_diag.rss_trace


def test_node_time_perturbation_is_local(rng):
    # moving node i changes the slopes of nodes i-1..i+1, so the curve moves
    # from node i-2 to node i+2 and is bit-identical outside; an outer
    # interval moves unless its inner-end slope sits on the flat branch
    n = 2001                                    # samples cover the whole node span
    moved_outer = {"left": 0, "right": 0}
    for _ in range(10):
        model = _random_model(rng, n=n, n_nodes=9)
        ctx = _context(model, n=n)
        base = ctx.synthesize(model.flatten())[0]
        h = model.harmonics[0]
        times = h.nodes.times
        slopes = pchip_slopes(times, h.nodes.amps)
        t = ctx.t
        for i in model.coefficient_layout()[0][0].nodes:
            pert = model.copy()
            pert.harmonics[0].nodes.times[i] += 1e-3
            after = ctx.synthesize(pert.flatten())[0]
            lo, hi = times[max(i - 2, 0)], times[min(i + 2, len(times) - 1)]
            outside = (t < lo) | (t > hi)
            assert np.array_equal(base[outside], after[outside])
            if i - 2 >= 0 and slopes[i - 1] != 0.0:
                left = (t > times[i - 2]) & (t < times[i - 1])
                assert not np.array_equal(base[left], after[left])
                moved_outer["left"] += 1
            if i + 2 < len(times) and slopes[i + 1] != 0.0:
                right = (t > times[i + 1]) & (t < times[i + 2])
                assert not np.array_equal(base[right], after[right])
                moved_outer["right"] += 1
    assert min(moved_outer.values()) > 0


def test_constant_haf_amp_columns_are_hat_weights(rng):
    # with equal node amplitudes the slope rules sit on the flat branch and
    # the amplitude columns reduce to pure Hermite hat weights times Theta:
    # they partition unity, have two-interval support, and the interior
    # columns agree with central finite differences
    model = _random_model(rng, r=2)
    h = model.harmonics[0]
    h.nodes.amps[:] = 0.5
    h.c = 0.0
    ctx = _context(model)
    gamma = model.flatten()
    _, J = residual_and_jacobian(gamma, ctx)
    n_t = model.coefficient_layout()[0][0].nodes.size
    n_nodes = len(h.nodes)
    amp_cols = J[:, n_t : n_t + n_nodes]
    arg = 2 * np.pi * h.e * ctx.phi1
    theta = np.cos(arg) + h.c * np.sin(arg)
    # hat weights sum to one at every sample: sum_i d model/d alpha_i = Theta
    assert np.allclose(amp_cols.sum(axis=1), -theta, atol=1e-12)
    # each column is supported on the two adjacent intervals only
    times = h.nodes.times
    for i in range(n_nodes):
        lo = times[max(i - 1, 0)]
        hi = times[min(i + 1, n_nodes - 1)]
        outside = (ctx.t < lo - 1e-12) | (ctx.t > hi + 1e-12)
        assert np.all(amp_cols[outside, i] == 0.0)
    # the columns are exactly the zero-slope Hermite basis ("hats"):
    times_all = h.nodes.times
    j = np.clip(np.searchsorted(times_all, ctx.t, side="right") - 1, 0, n_nodes - 2)
    s = (ctx.t - times_all[j]) / (times_all[j + 1] - times_all[j])
    h00 = 2 * s**3 - 3 * s**2 + 1
    expected = np.zeros_like(amp_cols)
    rows = np.arange(ctx.t.size)
    expected[rows, j] = -h00 * theta
    expected[rows, j + 1] = -(1 - h00) * theta
    assert np.allclose(amp_cols, expected, atol=1e-12)


def _reference_project(ctx, gamma):
    """The projection clamped on a rebuilt model: unflatten, clamp, flatten."""
    model = ctx.template.unflatten(gamma)
    edge = 2 if ctx.template.extension_map != (0, 0) else 1
    for h in model.harmonics:
        ell = round(h.e)
        h.e = float(np.clip(h.e, ell - solver.E_BOUND, ell + solver.E_BOUND))
        times = h.nodes.times
        for i in range(edge, len(times) - edge):
            times[i] = max(times[i], times[i - 1] + ctx.min_node_gap)
        for i in range(len(times) - edge - 1, edge - 1, -1):
            times[i] = min(times[i], times[i + 1] - ctx.min_node_gap)
        if np.any(np.diff(times) <= 0):
            raise FitError("node ordering infeasible under the minimum gap")
    return model.flatten()


@pytest.mark.parametrize("extension_map", [(0, 0), (200, 200)])
def test_project_equals_model_roundtrip_bitwise(rng, extension_map):
    clamped = 0
    for n_nodes in (4, 6, 9):
        model = _random_model(rng, r=4, n_nodes=n_nodes)
        model.extension_map = extension_map
        ctx = _context(model)
        slots, _ = model.coefficient_layout()
        for _ in range(20):
            # infeasible trial vectors: node times out of order or closer than
            # the gap, phase ratios outside their box
            gamma = model.flatten() + 0.3 * rng.standard_normal(model.flatten().size)
            for s in slots:
                times = rng.uniform(-0.1, 1.1, s.nodes.size)
                times[1::2] = times[::2][: times[1::2].size] + rng.choice([-1e-4, 1e-4])
                gamma[s.times] = times
            before = gamma.copy()
            out = ctx.project(gamma)
            assert np.array_equal(gamma, before)
            assert np.array_equal(out, _reference_project(ctx, gamma))
            clamped += not np.array_equal(out, gamma)
    assert clamped > 0
    # node times that no ordering with the minimum gap can hold
    ctx.min_node_gap = 0.3
    with pytest.raises(FitError, match="infeasible"):
        ctx.project(gamma)
    with pytest.raises(FitError, match="infeasible"):
        _reference_project(ctx, gamma)


@pytest.mark.parametrize("extension_map", [(0, 0), (200, 200)])
def test_freeze_nodes_mask_selects_c_and_e(rng, extension_map):
    model = _random_model(rng, r=4, n_nodes=6)
    model.extension_map = extension_map
    ctx = _context(model)
    assert ctx.free_index() == slice(None)
    ctx.freeze_nodes = True
    moved = model.copy()
    for h in moved.harmonics:
        h.c, h.e = h.c + 1.0, h.e + 0.01
    assert np.array_equal(ctx.free_index(), moved.flatten() != model.flatten())
    assert ctx.free_index().sum() == 2 * len(model.harmonics)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"min_node_gap": 0.0}, "min_node_gap"), ({"min_node_gap": -1e-3}, "min_node_gap"),
     ({"max_iters": 0}, "max_iters"), ({"max_iters": -3}, "max_iters"), ({"e_bound": 0.5}, "e_bound")],
)
def test_fit_options_reject_out_of_range_values(kwargs, field):
    # the fit section values FitOptions refused before these settings became
    # solver constants: a config file holding one is still refused
    with pytest.raises(ValueError, match=f"'fit.{field}' is retired"):
        PipelineConfig.from_dict({"fit": kwargs})


def test_fit_options_take_a_bool_only():
    # the frozen-node mode's type check; no config reaches it
    assert FitOptions(freeze_nodes=np.True_).freeze_nodes is True
    for value in ("false", 0):
        with pytest.raises(ValueError, match="^freeze_nodes must be true or false"):
            FitOptions(freeze_nodes=value)


def test_fit_from_ground_truth_converges_fast(recon_signal, monkeypatch):
    x, gt = recon_signal
    n = len(x)
    fund = FundamentalEstimate(B1=gt.fundamental.b1, phi1=gt.fundamental.phi1, fs=FS)
    xd = RealSignal(x.samples / gt.fundamental.b1, FS)
    t = x.times()
    harmonics = []
    for ell in (2, 3):
        times = np.linspace(0.0, t[-1], 25)
        amps = np.interp(times, t, gt.fundamental.alphas[ell])
        harmonics.append(HarmonicModel(e=gt.fundamental.e[ell], c=0.0, nodes=HafNodes(times, amps)))
    init = WaveShapeModel(r=3, harmonics=harmonics, fundamental=fund)
    # five iterations from the true coefficients suffice to sit far below
    # the 1e-4 relative-RSS tolerance (truth is near-stationary)
    monkeypatch.setattr(solver, "MAX_ITERS", 5)
    fitted, diag = fit(xd, gt.fundamental.phi1, init)
    assert diag.iterations <= 5
    assert diag.final_rss < 1e-4 * np.sum(xd.samples**2)
    assert diag.final_rss <= diag.rss_trace[0]


def test_fit_r1_nothing_to_fit():
    n = 1000
    phi1 = _phi(n)
    xd = RealSignal(np.cos(2 * np.pi * phi1), FS)
    init = WaveShapeModel(r=1, harmonics=[], fundamental=_fund(n))
    fitted, diag = fit(xd, phi1, init)
    assert diag.iterations == 0
    assert diag.converged_by == "empty"
    assert diag.rss_trace == [diag.final_rss]


def test_fit_rss_monotone_and_constraints(rng, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERS", 50)
    for trial in range(5):
        model = _random_model(rng, n=800, r=3, n_nodes=5)
        phi1 = _phi(800, fm=2.0)
        target = _context(model, n=800).synthesize(model.flatten())[0]
        target = target + 0.05 * rng.standard_normal(800)
        init = _random_model(rng, n=800, r=3, n_nodes=5)
        xd = RealSignal(target, FS)
        fitted, diag = fit(xd, phi1, init)
        trace = np.array(diag.rss_trace)
        assert np.all(np.diff(trace) <= 0)
        for ell, h in zip((2, 3), fitted.harmonics):
            assert abs(h.e - ell) <= 0.1 + 1e-12
            assert np.all(np.diff(h.nodes.times) >= 2.0 / FS - 1e-12)
            assert h.nodes.times[0] == init.harmonics[ell - 2].nodes.times[0]
            assert h.nodes.times[-1] == init.harmonics[ell - 2].nodes.times[-1]


def test_fit_deterministic(rng, monkeypatch):
    model = _random_model(rng, n=600, r=2)
    phi1 = _phi(600, fm=2.0)
    target = _context(model, n=600).synthesize(model.flatten())[0] + 0.01
    xd = RealSignal(target, FS)
    init = _random_model(np.random.default_rng(5), n=600, r=2)
    monkeypatch.setattr(solver, "MAX_ITERS", 30)
    f1, d1 = fit(xd, phi1, init)
    f2, d2 = fit(xd, phi1, init)
    assert np.array_equal(f1.flatten(), f2.flatten())
    assert d1.rss_trace == d2.rss_trace


def test_fit_improves_rss():
    n = 1000
    phi1 = _phi(n, fm=3.0)
    t = np.arange(n) / FS
    alpha = 0.5 + 0.2 * np.sin(2 * np.pi * t)
    target = np.cos(2 * np.pi * phi1) + alpha * (
        np.cos(2 * np.pi * 2.01 * phi1) + 0.3 * np.sin(2 * np.pi * 2.01 * phi1)
    )
    init = WaveShapeModel(
        r=2,
        harmonics=[HarmonicModel(e=2.0, c=0.0, nodes=HafNodes(np.linspace(0, t[-1], 6), np.full(6, 0.5)))],
        fundamental=_fund(n),
    )
    fitted, diag = fit(RealSignal(target, FS), phi1, init)
    assert diag.final_rss <= diag.rss_trace[0]
    assert diag.final_rss < 0.01 * np.sum(target**2)
    assert fitted.harmonics[0].e == pytest.approx(2.01, abs=2e-3)


def test_frozen_nodes_match_grid_search(monkeypatch):
    # with node amplitudes frozen, the 2-parameter optimum per harmonic
    # must match a dense (e, c) grid search within grid resolution
    n = 600
    phi1 = _phi(n)
    alpha = 0.4
    e_true, c_true = 2.03, 0.25
    target = np.cos(2 * np.pi * phi1) + alpha * (
        np.cos(2 * np.pi * e_true * phi1) + c_true * np.sin(2 * np.pi * e_true * phi1)
    )
    nodes = HafNodes(np.array([0.0, (n - 1) / FS]), np.array([alpha, alpha]))
    init = WaveShapeModel(
        r=2, harmonics=[HarmonicModel(e=2.0, c=0.0, nodes=nodes)], fundamental=_fund(n)
    )
    monkeypatch.setattr(solver, "MAX_ITERS", 100)
    fitted, _ = fit(RealSignal(target, FS), phi1, init, FitOptions(freeze_nodes=True))

    def rss(e, c):
        m = np.cos(2 * np.pi * phi1) + alpha * (
            np.cos(2 * np.pi * e * phi1) + c * np.sin(2 * np.pi * e * phi1)
        )
        return np.sum((target - m) ** 2)

    es = np.linspace(1.9, 2.1, 161)
    cs = np.linspace(-0.5, 0.5, 161)
    grid = np.array([[rss(e, c) for c in cs] for e in es])
    ie, ic = np.unravel_index(np.argmin(grid), grid.shape)
    assert abs(fitted.harmonics[0].e - es[ie]) <= (es[1] - es[0])
    assert abs(fitted.harmonics[0].c - cs[ic]) <= (cs[1] - cs[0])
    # amplitudes stayed frozen
    assert np.array_equal(fitted.harmonics[0].nodes.amps, nodes.amps)


def test_non_finite_init_rejected():
    n = 400
    phi1 = _phi(n)
    nodes = HafNodes(np.array([0.0, (n - 1) / FS]), np.array([np.nan, 1.0]))
    init = WaveShapeModel(
        r=2, harmonics=[HarmonicModel(e=2.0, c=0.0, nodes=nodes)], fundamental=_fund(n)
    )
    with pytest.raises(FitError):
        fit(RealSignal(np.zeros(n) + 1.0, FS), phi1, init)


def _pinned_phase_ratio_fit():
    # true e = 2.3 against the default box [1.9, 2.1]: every step pushes e
    # past 2.1 and the projection clamps it back, so the step the fit takes
    # is not the step the normal equations proposed
    n = 600
    phi1 = 5.0 * np.arange(n) / FS
    alpha = 0.5
    target = np.cos(2 * np.pi * phi1) + alpha * (
        np.cos(2 * np.pi * 2.3 * phi1) + 0.3 * np.sin(2 * np.pi * 2.3 * phi1)
    )
    target += 0.05 * np.random.default_rng(0).standard_normal(n)
    nodes = HafNodes(np.array([0.0, (n - 1) / FS]), np.array([alpha, alpha]))
    init = WaveShapeModel(
        r=2, harmonics=[HarmonicModel(e=2.0, c=0.0, nodes=nodes)], fundamental=_fund(n)
    )
    return fit(RealSignal(target, FS), phi1, init, FitOptions(freeze_nodes=True))


def test_fit_pinned_at_the_box_edge_stops_by_ftol():
    # the predicted reduction is taken along the projected step: along the
    # unprojected one it stays far above the actual reduction and the fit
    # runs to max_iters
    fitted, diag = _pinned_phase_ratio_fit()
    assert fitted.harmonics[0].e == 2.0 + 0.1
    assert diag.converged_by == "ftol"
    assert diag.iterations <= 50 < solver.MAX_ITERS
    trace = np.array(diag.rss_trace)
    assert trace.size == diag.iterations + 1        # every iteration accepted a step
    assert np.all(np.diff(trace) < 0)
    assert (trace[-2] - trace[-1]) / trace[-2] <= FTOL


def test_ftol_cuts_the_creep_tail_of_a_noisy_fit(monkeypatch):
    # the benchmark's s4#1 record (1 s of tv_denoise_s4 at 10 dB): at FTOL
    # 1e-6 its fit creeps on to 46 iterations, at the default it stops at
    # 26. Only the stopping test reads FTOL, so the default fit walks the
    # same path and stops at an earlier iterate of it
    x, _ = generate(SyntheticSpec("tv_denoise_s4", duration=1.0, fs=FS))
    noisy = add_noise(x, 10.0, 742431198)

    def diagnostics():
        return denoise(noisy, preset("synthetic")).fit_diagnostics

    default = diagnostics()
    monkeypatch.setattr(solver, "FTOL", 1e-6)
    tight = diagnostics()
    assert default.converged_by == "ftol"
    assert default.iterations < tight.iterations
    assert default.rss_trace == tight.rss_trace[: len(default.rss_trace)]


def test_fit_holds_one_jacobian_at_a_time(monkeypatch):
    # 4 s of tv_denoise_s1 at 10 dB, like the benchmark's long record: its
    # 9600 x 120 jacobian takes 9.2 MB, and a fit that kept the last
    # iteration's while the next was built peaked at 2.7 times that
    x, _ = generate(SyntheticSpec("tv_denoise_s1", duration=4.0, fs=FS))
    calls = []
    real_fit = pipeline_module.fit
    monkeypatch.setattr(pipeline_module, "fit", lambda *args: calls.append(args) or real_fit(*args))
    denoise(add_noise(x, 10.0, 0), preset("synthetic"))
    x_demod, phi1, init, opts = calls[0]
    jacobian_bytes = len(x_demod) * init.flatten().size * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        _, diag = fit(x_demod, phi1, init, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.iterations > 1
    assert peak < 2 * jacobian_bytes


def test_ftol_diagnostics_json_roundtrip():
    _, diag = _pinned_phase_ratio_fit()
    raw = json.loads(diag.to_json())
    assert raw["converged_by"] == "ftol"
    assert FitDiagnostics(**raw) == diag


def test_diagnostics_json():
    n = 500
    phi1 = _phi(n)
    init = WaveShapeModel(r=1, harmonics=[], fundamental=_fund(n))
    _, diag = fit(RealSignal(np.cos(2 * np.pi * phi1), FS), phi1, init)
    text = diag.to_json()
    assert '"converged_by"' in text and '"rss_trace"' in text
