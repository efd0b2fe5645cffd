from fractions import Fraction

import numpy as np
import pytest

from deltatorus.errors import ValidationError
from deltatorus.greens import SpectralParameter, TruncationPolicy
from deltatorus.harness import (
    RunContext,
    TrialSpec,
    consistency_gamma2,
    energy_from,
    err_quantiles,
    estimate_expectations,
    event_frequencies,
    length_from,
    run_trial,
    run_trials,
    running_event_flags,
    sample_positions,
    scaling_map,
    threshold_arithmetic,
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
    assert ctx.xi0 == (-6, -2)


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
    f = assemble_field(
        np.array([1.0 + 0j, 0.0j]),
        positions,
        lam,
        TruncationPolicy.by_radius(ctx.radius_sq),
        shells=ctx.shells,
    )
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
    exp = estimate_expectations(results, ctx, min_trials=30)
    # with one scatterer the gap-functional is position-independent
    assert exp["B"]["stderr"] == pytest.approx(0.0, abs=1e-18)
    assert exp["coeff_sq_at_xi0"]["mean"] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        estimate_expectations(results[:5], ctx, min_trials=30)


def test_event_frequencies_degenerate():
    spec = small_spec(
        n_scatterers=1,
        phases=[0.0],
        coefficient_mode="synthetic",
        synthetic_coeffs=[[1.0, 0.0]],
        trials=40,
    )
    results, ctx = run_trials(spec)
    ev = event_frequencies(results, [2.0], 1, min_trials=40)
    # constant gap functional always exceeds a third of its mean
    assert ev["B_above_third"]["freq"] == 1.0
    assert ev["markov_A"]["2"]["freq"] >= 0.5
    flags = running_event_flags(results, 2.0)
    assert all(f["event_b"] for f in flags if f["counted"])


def test_event_frequencies_reference_means():
    spec = small_spec(n_scatterers=2, trials=40)
    results, ctx = run_trials(spec)
    ev_own = event_frequencies(results, [2.0], 2, min_trials=40)
    ref = {"A_a": 10.0, "B": 1e-12, "C": 10.0}
    ev_ref = event_frequencies(results, [2.0], 2, ref_means=ref, min_trials=40)
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
    assert q["count"] > 0


def test_reproducibility_across_thread_counts():
    spec = small_spec(n_scatterers=3, phases=[0.1, 0.1, 0.1], trials=12)
    r1, ctx = run_trials(spec, threads=1)
    r2, _ = run_trials(spec, threads=3)
    assert trials_csv_text(r1, ctx.zetas) == trials_csv_text(r2, ctx.zetas)


def test_scaling_map():
    assert scaling_map(4.0, 2.0) == 16.0
    assert scaling_map(7.5, 1.0) == 7.5
    assert energy_from(scaling_map(3.3, 2.5), 2.5) == pytest.approx(3.3)
    assert length_from(scaling_map(3.3, 2.5), 3.3) == pytest.approx(2.5)
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
        "dim", "n_scatterers", "m_center", "seed", "trials", "phases", "u_matrix",
        "delta", "l0_override", "radius_factor", "observable", "coefficient_mode",
        "synthetic_coeffs", "synthetic_lambda_frac", "solver_tol", "eps_shift",
        "strict_sprime", "gamma", "gamma_eps",
    ]


@pytest.mark.parametrize(
    "override",
    [dict(dim=1), dict(dim=4), dict(seed=-1), dict(seed=2**64), dict(n_scatterers=0),
     dict(seed=1.5), dict(seed=True), dict(trials=2.5), dict(n_scatterers=2.5),
     dict(dim=2.0), dict(m_center=40.0)],
    ids=["dim1", "dim4", "seed_negative", "seed_2_64", "no_scatterers", "seed_fraction",
         "seed_bool", "trials_fraction", "scatterers_fraction", "dim_float", "m_center_float"],
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


def test_strict_sprime_gate():
    with pytest.raises(ValidationError):
        RunContext.build(small_spec(strict_sprime=True, delta=0.3, l0_override=None))
