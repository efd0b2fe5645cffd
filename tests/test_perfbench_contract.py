"""The package calls ``perfbench/run.py`` makes, on a small spec.

The benchmark's files change on their own schedule, so a package rename or
deletion they depend on would otherwise only show when the benchmark runs.
This test makes the same calls, through the same names, and installs the
benchmark's tracer the way ``run.py`` does.
"""

import importlib.util
from pathlib import Path

from deltatorus import harness, scatterer, sprime
from deltatorus.greens import SpectralParameter, TruncationPolicy
from deltatorus.measure import Observable
from deltatorus.reporting import trials_csv_text

M_CENTER = 5328  # a smaller center whose annulus, like the benchmark's, covers the gap
OBSERVABLE = {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trial_spec(n: int, seed: int, trials: int, synthetic: bool):
    extra = {}
    if synthetic:
        extra = {"coefficient_mode": "synthetic", "synthetic_coeffs": [[n**-0.5, 0.0]] * n}
    return harness.TrialSpec(
        dim=2,
        n_scatterers=n,
        m_center=M_CENTER,
        seed=seed,
        trials=trials,
        delta=0.3,
        observable=Observable(dict(OBSERVABLE)),
        **extra,
    )


def check_results(results, spec, interval):
    assert [r.trial_index for r in results] == list(range(spec.trials))
    for r in results:
        assert not r.no_root
        assert r.chain_c_ok and r.chain_b_ok and r.chain_ratio_ok and r.pair_one_exact
        if spec.coefficient_mode == "solver":
            assert interval.center < r.lambda_norm < interval.next
            assert r.residual <= spec.solver_tol


def test_benchmark_package_contract():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed(harness, sprime):
        with tracer.span("harness.context"):
            ctx = harness.RunContext.build(trial_spec(8, 7, 1, False))
    assert "greens.shellsums" in tracing.by_name(tracer.spans, ["greens.shellsums"])
    shells = ctx.shells
    assert shells.pts.shape[0] > 0 and shells.shell_ms.size > 0

    for n, workers in ((2, 1), (4, 2)):
        spec = trial_spec(n, 11, 2, False)
        results, same = harness.run_trials(spec, threads=workers, ctx=ctx)
        assert same is ctx
        check_results(results, spec, ctx.interval)

    tracer = tracing.Tracer()
    spec = trial_spec(8, 13, 2, False)
    with tracer.installed(harness, sprime), tracer.shells_traced(shells):
        results, _ = harness.run_trials(spec, threads=1, ctx=ctx)
    check_results(results, spec, ctx.interval)
    assert tracing.nesting_errors(tracer.spans) == []
    # the workspace span covers the pair-weight stage, which its constructor runs
    parents = [tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "greens.weights_many"]
    assert parents and set(parents) == {"scatterer.workspace"}
    # the names the tracer wraps but the package no longer has; a rename
    # that empties one more benchmark span shows here
    assert tracer.absent == {
        "SecularWorkspace.smin", "SecularWorkspace.smin_grid", "SecularWorkspace.matrix"
    }
    names = ["scatterer.workspace", "greens.weights_many", "scatterer.roots", "measure.assemble"]
    by_name = tracing.by_name(tracer.spans, names)
    for name in names:
        assert by_name[name]["median_ms"] > 0, name

    # the first root against a fresh secular_value
    r = results[0]
    pos = harness.sample_positions(spec.seed, r.trial_index, spec.n_scatterers, spec.dim)
    config = spec.config_for(pos)
    _, smin = scatterer.secular_value(
        config, SpectralParameter(r.lambda_norm), TruncationPolicy.by_radius(ctx.radius_sq)
    )
    assert smin <= spec.solver_tol

    # the truncation drift of the lowest root, R against 2R
    lows = []
    for radius_sq in (ctx.radius_sq, 2 * ctx.radius_sq):
        policy = TruncationPolicy.by_radius(radius_sq)
        roots = scatterer.find_new_eigenvalues(config, ctx.interval, policy)
        lows.append(roots[0].lambda_norm)
    assert lows[0] == r.lambda_norm
    assert abs(lows[0] - lows[1]) < ctx.interval.next - ctx.interval.center

    spec = trial_spec(2, 17, 2, True)
    results, _ = harness.run_trials(spec, threads=1, ctx=ctx)
    check_results(results, spec, ctx.interval)
    assert trials_csv_text(results, ctx.zetas).count("\n") == 1 + spec.trials

