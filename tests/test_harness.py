import math
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deltatorus import harness
from deltatorus.errors import NumericError, ValidationError
from deltatorus.greens import SpectralParameter
from deltatorus.harness import (
    RunContext,
    TrialSpec,
    consistency_gamma2,
    err_quantiles,
    estimate_expectations,
    event_frequencies,
    run_trial,
    run_trials,
    running_event_flags,
    sample_positions,
    scaling_map,
    threshold_arithmetic,
    usable,
)
from deltatorus.lattice import FOUR_PI_SQ
from deltatorus.measure import Observable, assemble_field, functional_B
from deltatorus.reporting import trials_csv_text

OBS = {"0,0": [1.0, 0.0], "2,0": [0.5, 0.0], "-2,0": [0.5, 0.0]}


def small_spec(**kw):
    base = dict(
        dim=2,
        n_scatterers=2,
        m_center=40,
        seed=42,
        trials=10,
        phases=[0.0, 0.0],
        l0_override=FOUR_PI_SQ * 1.2,
        radius_factor=8.0,
        observable=Observable.from_json(OBS),
    )
    base.update(kw)
    return TrialSpec(**base)


def test_sample_positions_determinism():
    a = sample_positions(123, 7, 4, 2)
    b = sample_positions(123, 7, 4, 2)
    assert np.array_equal(a, b)
    c = sample_positions(123, 8, 4, 2)
    assert not np.array_equal(a, c)
    d = sample_positions(124, 7, 4, 2)
    assert not np.array_equal(a, d)
    assert a.shape == (4, 2) and np.all((a >= 0) & (a < 1))


def test_sample_positions_mean():
    total = np.zeros(2)
    trials = 10**4
    for i in range(trials):
        total += sample_positions(9, i, 1, 2)[0]
    mean = total / trials
    assert np.all(np.abs(mean - 0.5) < 0.02)


def test_context_build():
    spec = small_spec()
    ctx = RunContext.build(spec)
    assert (ctx.interval.prev, ctx.interval.center, ctx.interval.next) == (37, 40, 41)
    assert ctx.annulus_covers_gap
    assert ctx.zetas == [(-2, 0), (2, 0)]
    assert ctx.theory_b == pytest.approx(1.0 / (FOUR_PI_SQ * 4) ** 2)
    assert ctx.sigma[(2, 0)] > 0
    # the C theory column: unit weights summed over the ball outside the
    # annulus |m - 40| <= 1, each from its own endpoint of the gap (40, 41)
    a = math.isqrt(ctx.radius_sq)
    norms = [x * x + y * y for x in range(-a, a + 1) for y in range(-a, a + 1)]
    terms = [
        1.0 / (FOUR_PI_SQ * m - FOUR_PI_SQ * (40 if m < 40 else 41)) ** 2
        for m in norms
        if m <= ctx.radius_sq and abs(m - 40) > 1
    ]
    assert ctx.theory_c == math.fsum(terms)


def test_synthetic_trial_matches_direct_evaluation():
    spec = small_spec(
        coefficient_mode="synthetic",
        synthetic_coeffs=[[1.0, 0.0], [0.0, 0.0]],
        synthetic_lambda_frac=0.5,
    )
    ctx = RunContext.build(spec)
    res = run_trial(spec, 3, ctx)
    assert not res.no_root
    lam = SpectralParameter(40.5)
    positions = sample_positions(42, 3, 2, 2)
    f = assemble_field(np.array([1.0 + 0j, 0.0j]), positions, lam, ctx.radius_sq)
    assert f.shells is ctx.shells
    assert res.lambda_norm == 40.5
    assert res.norm_sq == f.norm_sq
    assert res.b_val == functional_B(f, ctx.interval)
    assert res.chain_c_ok and res.chain_b_ok and res.chain_ratio_ok
    assert res.pair_one_exact


def test_solver_n1_always_one_root():
    spec = small_spec(n_scatterers=1, phases=[0.0], trials=6)
    results, ctx = run_trials(spec)
    assert all(r.root_count == 1 for r in results)
    assert all(not r.no_root for r in results)
    # N = 1 normalization: the gap functional times the squared double gap
    # is exactly the squared phase-sum modulus, which is 1
    for r in results:
        assert r.b_val * ctx.interval.outer_gap**2 == pytest.approx(1.0, abs=1e-12)


def test_chain_holds_on_every_trial():
    spec = small_spec(n_scatterers=3, phases=[0.2, 0.2, 0.2], trials=12)
    results, _ = run_trials(spec)
    usable = [r for r in results if not r.no_root]
    assert usable
    assert all(r.chain_c_ok and r.chain_b_ok and r.chain_ratio_ok for r in usable)
    assert all(r.pair_one_exact for r in usable)


def test_expectations_synthetic_zero_variance():
    spec = small_spec(
        n_scatterers=1,
        phases=[0.0],
        coefficient_mode="synthetic",
        synthetic_coeffs=[[1.0, 0.0]],
        trials=30,
    )
    results, ctx = run_trials(spec)
    exp = estimate_expectations(results, ctx)
    # with one scatterer the gap-functional is position-independent
    assert exp["B"]["stderr"] == pytest.approx(0.0, abs=1e-18)
    assert exp["coeff_sq_at_xi0"]["mean"] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        estimate_expectations(results[:5], ctx)


def test_event_frequencies_degenerate():
    spec = small_spec(
        n_scatterers=1,
        phases=[0.0],
        coefficient_mode="synthetic",
        synthetic_coeffs=[[1.0, 0.0]],
        trials=500,
    )
    results, ctx = run_trials(spec)
    ev = event_frequencies(results, [2.0], 1)
    # constant gap functional always exceeds a third of its mean
    assert ev["B_above_third"]["freq"] == 1.0
    assert ev["markov_A"]["2"]["freq"] >= 0.5
    flags = running_event_flags(results, 2.0)
    kept = {r.trial_index for r in usable(results)}
    assert all(f["event_b"] for r, f in zip(results, flags) if r.trial_index in kept)


def test_event_frequencies_reference_means():
    spec = small_spec(n_scatterers=2, trials=500)
    results, ctx = run_trials(spec)
    ev_own = event_frequencies(results, [2.0], 2)
    ref = {"A_a": 10.0, "B": 1e-12, "C": 10.0}
    ev_ref = event_frequencies(results, [2.0], 2, ref_means=ref)
    assert ev_ref["markov_A"]["2"]["freq"] == 1.0  # huge reference mean
    assert ev_ref["B_above_third"]["freq"] == 1.0
    assert 0.0 <= ev_own["markov_A"]["2"]["freq"] <= 1.0


def test_no_root_trials_are_recorded_not_failed():
    spec = small_spec(trials=4)
    ctx = RunContext.build(spec)
    res = run_trial(spec, 0, ctx)
    row_text = trials_csv_text([res], ctx.zetas)
    assert "trial_index" in row_text.splitlines()[0]


def test_err_quantiles():
    spec = small_spec(trials=12)
    results, _ = run_trials(spec)
    q = err_quantiles(results)
    assert q["q10"] <= q["median"] <= q["q90"]
    assert q["count"] == len(usable(results)) > 0
    assert q["landings"] == 0


def test_err_quantiles_leave_out_endpoint_landings():
    # at m_k = 25 the shift (1, 0) takes (0, 5) onto the endpoint shell 26,
    # so every trial with a root lands and the means use none of them
    obs = Observable({(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    results, _ = run_trials(small_spec(m_center=25, observable=obs))
    landed = [r for r in results if not r.no_root]
    assert landed and all(r.endpoint_landing and r.err >= 0.0 for r in landed)
    q = err_quantiles(results)
    assert (q["count"], q["landings"]) == (0, len(landed))
    assert math.isnan(q["median"]) and math.isnan(q["q10"]) and math.isnan(q["q90"])


def test_reproducibility_across_thread_counts():
    spec = small_spec(n_scatterers=3, phases=[0.1, 0.1, 0.1], trials=12)
    r1, ctx = run_trials(spec, threads=1)
    r2, _ = run_trials(spec, threads=3)
    assert trials_csv_text(r1, ctx.zetas) == trials_csv_text(r2, ctx.zetas)


def test_reused_process_pool_matches_serial_bytes():
    # eight reruns on one context go to the same forked children, which
    # keep their ball caches and box arrays from one call to the next
    spec = small_spec(
        coefficient_mode="synthetic", synthetic_coeffs=[[0.6, 0.0], [0.0, 0.8]], trials=64
    )
    r1, ctx = run_trials(spec, threads=1)
    serial = trials_csv_text(r1, ctx.zetas)
    pools = set()
    for _ in range(8):
        r2, _ = run_trials(spec, threads=4, ctx=ctx)
        assert trials_csv_text(r2, ctx.zetas) == serial
        pools.add(id(harness._pool[2]))
    assert len(pools) == 1


def test_pool_size_is_capped_by_the_trial_count(monkeypatch):
    spec = small_spec(trials=2)
    ctx = RunContext.build(spec)
    r1, _ = run_trials(spec, threads=1, ctx=ctx)
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    r2, _ = run_trials(spec, threads=16, ctx=ctx)
    # two shares: the caller runs one, a single forked child the other
    assert len(forks) == 1
    assert trials_csv_text(r2, ctx.zetas) == trials_csv_text(r1, ctx.zetas)


def test_worker_exception_reaches_the_caller(monkeypatch):
    # patched before the fresh context forks its pool, so the children run it
    def failing(spec, trial_index, ctx):
        raise NumericError(f"trial {trial_index} failed")

    monkeypatch.setattr(harness, "run_trial", failing)
    spec = small_spec(trials=4)
    with pytest.raises(NumericError, match="failed"):
        run_trials(spec, threads=2, ctx=RunContext.build(spec))


def test_child_exception_reaches_the_caller_with_its_type(monkeypatch):
    spec = small_spec(trials=6)
    ctx = RunContext.build(spec)
    serial = trials_csv_text(run_trials(spec, threads=1, ctx=ctx)[0], ctx.zetas)
    real_trial = harness.run_trial

    def failing(spec, trial_index, ctx):
        if trial_index == 4:  # share 1, the first child's
            raise NumericError(f"trial {trial_index} failed")
        return real_trial(spec, trial_index, ctx)

    monkeypatch.setattr(harness, "run_trial", failing)
    with pytest.raises(NumericError, match="trial 4 failed") as info:
        run_trials(spec, threads=3, ctx=ctx)
    # the child's traceback comes along as the cause
    cause = info.value.__cause__
    assert isinstance(cause, harness.ChildTraceback) and "in failing" in str(cause)
    assert harness._pool is None
    monkeypatch.undo()
    results, _ = run_trials(spec, threads=3, ctx=ctx)
    assert trials_csv_text(results, ctx.zetas) == serial


def test_caller_exception_kills_the_running_children(monkeypatch):
    spec = small_spec(trials=4)
    ctx = RunContext.build(spec)
    serial = trials_csv_text(run_trials(spec, threads=1, ctx=ctx)[0], ctx.zetas)
    real_trial = harness.run_trial

    def stalling(spec, trial_index, ctx):
        if trial_index == 0:  # the caller's own share
            raise NumericError("trial 0 failed")
        time.sleep(600)  # the child's share: still running when trial 0 fails
        return real_trial(spec, trial_index, ctx)

    monkeypatch.setattr(harness, "run_trial", stalling)
    t0 = time.perf_counter()
    with pytest.raises(NumericError, match="trial 0 failed"):
        run_trials(spec, threads=2, ctx=ctx)
    assert time.perf_counter() - t0 < 60
    assert harness._pool is None
    monkeypatch.undo()
    results, _ = run_trials(spec, threads=2, ctx=ctx)
    assert trials_csv_text(results, ctx.zetas) == serial


def test_multi_worker_run_starts_no_thread():
    spec = small_spec(trials=4)
    run_trials(spec, threads=2)
    assert threading.active_count() == 1


def test_dead_worker_drops_the_pool(monkeypatch):
    spec = small_spec(trials=6)
    ctx = RunContext.build(spec)
    serial = trials_csv_text(run_trials(spec, threads=1, ctx=ctx)[0], ctx.zetas)
    real_trial = harness.run_trial

    def dying(spec, trial_index, ctx):
        if trial_index == 3:
            os._exit(1)
        return real_trial(spec, trial_index, ctx)

    monkeypatch.setattr(harness, "run_trial", dying)
    # told apart from a trial's own error, which keeps its type
    with pytest.raises(ChildProcessError):
        run_trials(spec, threads=2, ctx=ctx)
    assert harness._pool is None
    monkeypatch.undo()
    results, _ = run_trials(spec, threads=2, ctx=ctx)
    assert trials_csv_text(results, ctx.zetas) == serial


def test_child_killed_between_runs_drops_the_pool():
    spec = small_spec(trials=4)
    ctx = RunContext.build(spec)
    serial = trials_csv_text(run_trials(spec, threads=2, ctx=ctx)[0], ctx.zetas)
    child = harness._pool[2][0][0]
    os.kill(child.pid, signal.SIGKILL)
    child.join(60)
    assert child.exitcode == -signal.SIGKILL
    with pytest.raises(ChildProcessError):
        run_trials(spec, threads=2, ctx=ctx)
    assert harness._pool is None
    results, _ = run_trials(spec, threads=2, ctx=ctx)
    assert trials_csv_text(results, ctx.zetas) == serial


def run_script(code: str):
    """Run code in a fresh interpreter that leads its own session; returns
    its pid, exit code, stdout and stderr once it has exited.  After 120 s
    its whole group is killed and TimeoutExpired raised."""
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return proc.pid, proc.returncode, out, err


SCRIPT_SPEC = """
from deltatorus import cli, harness
spec = harness.TrialSpec.from_json({
    "dim": 2, "n_scatterers": 2, "m_center": 40, "seed": 42, "trials": 4,
    "phases": [0.0, 0.0], "l0_override": 47.4, "radius_factor": 8.0,
    "observable": {"0,0": [1.0, 0.0]},
})
"""


def test_two_worker_run_leaves_no_process_behind():
    pid, code, _, err = run_script(SCRIPT_SPEC + "harness.run_trials(spec, threads=2)\n")
    assert (code, err) == (0, "")
    # the script led its own session: nothing of its group outlives it
    with pytest.raises(ProcessLookupError):
        os.killpg(pid, 0)


def test_replacing_a_three_worker_pool_leaves_no_process_behind():
    # each child holds copies of the parent pipe ends of the children forked
    # before it, so only an explicit stop message ends the replaced pool
    pid, code, _, err = run_script(
        SCRIPT_SPEC + "harness.run_trials(spec, threads=3)\n"
        "harness.run_trials(spec, threads=3, ctx=harness.RunContext.build(spec))\n"
    )
    assert (code, err) == (0, "")
    with pytest.raises(ProcessLookupError):
        os.killpg(pid, 0)


def test_one_worker_run_imports_no_process_machinery():
    _, code, out, err = run_script(
        SCRIPT_SPEC + "import sys\n"
        "harness.run_trials(spec, threads=1)\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    assert (code, out.strip()) == (0, "[]"), err


def test_scaling_map():
    assert scaling_map(4.0, 2.0) == 16.0
    assert scaling_map(7.5, 1.0) == 7.5
    with pytest.raises(ValidationError):
        scaling_map(-1.0, 2.0)


def test_threshold_arithmetic_exact():
    alpha, beta, thr = threshold_arithmetic(1.0, 1.0, Fraction(1, 12), 3)
    assert alpha == Fraction(1, 56)
    assert beta == Fraction(3, 28)
    alpha2, beta2, _ = threshold_arithmetic(1.0, 1.0, Fraction(17, 832), 2)
    assert alpha2 == Fraction(17, 2530)
    assert beta2 == Fraction(208, 1265)
    with pytest.raises(ValidationError):
        threshold_arithmetic(1.0, 1.0, Fraction(1, 12), 3, eps=9 + Fraction(1, 3))
    with pytest.raises(ValidationError):
        threshold_arithmetic(-1.0, 1.0, Fraction(1, 12), 3)
    # float path stays consistent with the exact one
    a_f, b_f, _ = threshold_arithmetic(10.0, 0.5, 17.0 / 832.0, 2)
    assert a_f == pytest.approx(float(alpha2), rel=1e-12)
    assert b_f == pytest.approx(float(beta2), rel=1e-12)


def test_consistency_gamma2():
    assert consistency_gamma2(Fraction(133, 416)) == Fraction(17, 832)
    assert consistency_gamma2(Fraction(1, 4)) == Fraction(1, 8)
    assert consistency_gamma2(0.25) == pytest.approx(0.125)
    thetas = [0.2, 0.25, 0.3]
    vals = [consistency_gamma2(t) for t in thetas]
    assert vals == sorted(vals, reverse=True)


def test_trial_spec_json_round_trip():
    spec = small_spec(trials=3)
    back = TrialSpec.from_json(spec.to_json())
    assert back.to_json() == spec.to_json()
    # manifests write the keys in this order
    assert list(spec.to_json()) == [
        "dim", "n_scatterers", "m_center", "seed", "trials", "phases", "delta", "l0_override", "radius_factor", "observable", "coefficient_mode",
        "synthetic_coeffs", "synthetic_lambda_frac", "solver_tol",
    ]


@pytest.mark.parametrize(
    "override",
    [dict(dim=1), dict(dim=4), dict(seed=-1), dict(seed=2**64), dict(n_scatterers=0),
     dict(seed=1.5), dict(seed=True), dict(trials=2.5), dict(n_scatterers=2.5),
     dict(dim=2.0), dict(m_center=40.0), dict(radius_factor=math.inf),
     dict(radius_factor=math.nan), dict(radius_factor="1.6"), dict(radius_factor=True),
     dict(radius_factor=0.0), dict(radius_factor=-1.6), dict(delta="0.3"),
     dict(solver_tol="1e-8"), dict(l0_override="3"), dict(delta=math.nan),
     dict(solver_tol=-1.0), dict(solver_tol=0.0), dict(l0_override=0.0),
     dict(synthetic_lambda_frac=1.5), dict(synthetic_lambda_frac=True),
     dict(synthetic_lambda_frac=0.0),
     dict(coefficient_mode="synthetic"),
     dict(coefficient_mode="synthetic", synthetic_coeffs=[[1.0, 0.0]]),
     dict(coefficient_mode="synthetic", synthetic_coeffs=[[1.0, 0.0], [1.0, 0.0]]),
     dict(coefficient_mode="synthetic", synthetic_coeffs=[[1.0], [0.0]]),
     dict(coefficient_mode="synthetic", synthetic_coeffs=[[1.0, 0.0], [math.nan, 0.0]]),
     dict(observable=Observable.from_json({"0,0": [1.0, 0.0], "1,0,0": [0.5, 0.0],
                                            "-1,0,0": [0.5, 0.0]})),
     dict(phases=[0.0, 0.4]), dict(phases=[0.0]), dict(phases=[0.0, 0.0, 0.0]),
     dict(phases=[math.pi, math.pi]), dict(phases=[math.nan, math.nan]),
     dict(phases=["0", "0"]), dict(phases=[0.0, 0.4], coefficient_mode="synthetic",
                                   synthetic_coeffs=[[1.0, 0.0], [0.0, 0.0]])],
    ids=["dim1", "dim4", "seed_negative", "seed_2_64", "no_scatterers", "seed_fraction",
         "seed_bool", "trials_fraction", "scatterers_fraction", "dim_float", "m_center_float",
         "radius_factor_inf", "radius_factor_nan", "radius_factor_str", "radius_factor_bool",
         "radius_factor_zero", "radius_factor_negative", "delta_str", "solver_tol_str",
         "l0_override_str", "delta_nan", "solver_tol_negative", "solver_tol_zero",
         "l0_override_zero", "lambda_frac_above", "lambda_frac_bool", "lambda_frac_zero",
         "synthetic_no_coeffs", "synthetic_short_coeffs", "synthetic_unnormalized",
         "synthetic_not_pairs", "synthetic_nan", "observable_dim3", "phases_distinct",
         "phases_short", "phases_long", "phases_pi", "phases_nan", "phases_str",
         "phases_distinct_synthetic"],
)
def test_trial_spec_rejects_out_of_range_fields(override):
    with pytest.raises(ValidationError):
        small_spec(**override)


def test_trial_spec_accepts_the_largest_seed():
    spec = small_spec(seed=2**64 - 1, trials=1)
    assert sample_positions(spec.seed, 0, 2, 2).shape == (2, 2)


def test_d3_solver_trials():
    obs = Observable.from_json(
        {
            "0,0,0": [1.0, 0.0],
            "1,0,0": [0.5, 0.0],
            "-1,0,0": [0.5, 0.0],
        }
    )
    spec = TrialSpec(
        dim=3,
        n_scatterers=2,
        m_center=43,
        seed=11,
        trials=6,
        phases=[0.0, 0.0],
        l0_override=FOUR_PI_SQ * 1.2,
        radius_factor=3.0,
        observable=obs,
    )
    results, ctx = run_trials(spec)
    assert (ctx.interval.prev, ctx.interval.center, ctx.interval.next) == (42, 43, 44)
    usable = [r for r in results if not r.no_root]
    assert usable
    assert all(not r.endpoint_landing for r in usable)
    assert all(r.chain_c_ok and r.chain_b_ok and r.chain_ratio_ok for r in usable)
    assert all(r.pair_one_exact for r in usable)


@pytest.mark.parametrize(
    "override",
    [dict(eps_shift="x"), dict(gamma="0.1"), dict(gamma_eps=None), dict(gamma=math.inf),
     dict(strict_sprime=True)],
    ids=["eps_shift_str", "gamma_str", "gamma_eps_none", "gamma_inf", "strict_sprime"],
)
def test_trial_spec_rejects_removed_keys(override):
    # the envelope exponent and the window rule are fixed, not run inputs:
    # an old spec that still sets one of these keys is an unknown-key error
    obj = {**small_spec().to_json(), **override}
    with pytest.raises(ValidationError, match=f"unknown trial spec keys: {next(iter(override))}"):
        TrialSpec.from_json(obj)


@pytest.mark.parametrize(
    "override",
    [dict(m_center=41), dict(dim=3, observable=None, phases=None), dict(radius_factor=9.0),
     dict(delta=0.2), dict(l0_override=FOUR_PI_SQ * 2.2),
     dict(observable=Observable.from_json({"0,0": [1.0, 0.0], "1,0": [0.5, 0.0],
                                           "-1,0": [0.5, 0.0]}))],
    ids=["m_center", "dim", "radius_factor", "delta", "l0_override", "observable"],
)
def test_run_trials_rejects_a_context_built_for_another_run(override):
    ctx = RunContext.build(small_spec())
    with pytest.raises(ValidationError, match="built for another"):
        run_trials(small_spec(**override), ctx=ctx)


def test_a_trial_hands_its_field_arrays_back_to_the_pool():
    # the trial path reuses one set of box arrays instead of faulting in
    # fresh pages for every field
    spec = small_spec(trials=2)
    ctx = RunContext.build(spec)
    run_trial(spec, 0, ctx)
    pooled = {dtype: [id(a) for a in arrays] for dtype, arrays in ctx.shells._free.items()}
    assert all(pooled.values())
    run_trial(spec, 1, ctx)
    assert {dtype: [id(a) for a in arrays] for dtype, arrays in ctx.shells._free.items()} == pooled


def test_run_trials_reuses_a_context_across_the_per_trial_fields():
    # the benchmark and the acceptance fixtures share one context between
    # runs that differ in seed, N, trial count, coefficient mode and tolerance
    ctx = RunContext.build(small_spec())
    spec = small_spec(
        n_scatterers=3, phases=None, seed=7, trials=3, solver_tol=1e-9,
        coefficient_mode="synthetic", synthetic_coeffs=[[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
    )
    results, same = run_trials(spec, ctx=ctx)
    assert same is ctx and len(results) == 3


def test_solver_trials_build_half_the_field(monkeypatch):
    # a solver root's d is an eigenvector of the real symmetric H, so its
    # field is Hermitian and assemble_field computes and stores only the box
    # rows xi_0 >= 0: one product of isqrt(R) + 1 rows, written into arrays
    # of that many rows
    from deltatorus import measure

    roots_seen, products, fields = [], [], []
    find, matmul, assemble = (
        harness.find_new_eigenvalues, measure.one_thread_matmul, harness.assemble_field
    )

    def recording_find(*args, **kwargs):
        roots = find(*args, **kwargs)
        roots_seen.append(roots)
        return roots

    def recording_matmul(a, b, out):
        products.append(out.shape)
        return matmul(a, b, out)

    def recording_assemble(*args):
        fields.append(assemble(*args))
        return fields[-1]

    monkeypatch.setattr(harness, "find_new_eigenvalues", recording_find)
    monkeypatch.setattr(measure, "one_thread_matmul", recording_matmul)
    monkeypatch.setattr(harness, "assemble_field", recording_assemble)
    spec = small_spec(n_scatterers=4, phases=[0.7] * 4)
    ctx = RunContext.build(spec)
    results = [run_trial(spec, t, ctx) for t in range(4)]
    assert fields and len(products) == len(fields) == len(roots_seen)
    assert len(fields) == sum(not r.no_root for r in results)
    for roots in roots_seen:
        assert all(not r.d.imag.any() for r in roots)
    half = math.isqrt(ctx.radius_sq)
    side = 2 * half + 1
    assert set(products) == {(half + 1, 2 * side)}
    for f in fields:
        assert f.first == half and f.shape == (half + 1, side)
        assert f.box_values.size == f.box_weights_sq.size == (half + 1) * side
