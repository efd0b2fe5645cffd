"""Acceptance suite: one test per criterion, in order.

The Monte Carlo criteria share two-pass runs (reference means from one
seed, event counting on a fresh seed) per scatterer count; those fixtures
dominate the runtime of this module.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from deltatorus.greens import ShellSums, SpectralParameter
from deltatorus.harness import (
    RunContext,
    TrialSpec,
    consistency_gamma2,
    err_quantiles,
    estimate_expectations,
    event_frequencies,
    run_trials,
    threshold_arithmetic,
)
from deltatorus.lattice import FOUR_PI_SQ, enumerate_spectrum
from deltatorus.measure import Observable, assemble_field, pair_with_observable
from deltatorus.reporting import plotdata_text, trials_csv_text
from deltatorus.scatterer import ScattererConfig, find_new_eigenvalues
from deltatorus.sprime import SPrimeParams, build_window, recheck_conclusion

pytestmark = pytest.mark.acceptance

THREADS = 3
MEANS_SEED = 2026080901
EVENTS_SEED = 2026080902

#: observable 1 + cos(2 pi x_1) + cos(2 pi x_2): unit shifts for the
#: annulus functionals, mean 1, l1 norm 2
UNIT_OBS = Observable(
    {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}
)

WINDOW_PARAMS = SPrimeParams(delta=0.3, eps=0.05, eps_prime=0.2, c_gap=10.0, c_coeff=10.0)


def _chain_ready_center(table, m_lo: int, m_hi: int) -> int:
    """First window-accepted norm whose upper gap is covered by the annulus."""
    win = build_window(table, m_lo, m_hi, WINDOW_PARAMS)
    for m in win.accepted:
        tri = table.gap_triple(m)
        if FOUR_PI_SQ * (tri.next - tri.center) <= WINDOW_PARAMS.l0(m):
            return m
    raise AssertionError("no chain-ready center in range")


@pytest.fixture(scope="module")
def table_16k():
    return enumerate_spectrum(2, 16100)


@pytest.fixture(scope="module")
def mc_center(table_16k):
    return _chain_ready_center(table_16k, 10000, 10300)


def _spec(m_center, n, seed, trials):
    return TrialSpec(
        dim=2,
        n_scatterers=n,
        m_center=m_center,
        seed=seed,
        trials=trials,
        phases=[0.0] * n,
        delta=0.3,
        radius_factor=1.6,
        observable=UNIT_OBS,
    )


@pytest.fixture(scope="module")
def mc_runs(mc_center):
    """Two-pass solver-mode runs for each scatterer count."""
    runs = {}
    for n in (2, 4, 8):
        means_spec = _spec(mc_center, n, MEANS_SEED, 600)
        events_spec = _spec(mc_center, n, EVENTS_SEED, 2000)
        ctx = RunContext.build(means_spec)
        means_results, _ = run_trials(means_spec, threads=THREADS, ctx=ctx)
        t0 = time.time()
        events_results, _ = run_trials(events_spec, threads=THREADS, ctx=ctx)
        runs[n] = {
            "ctx": ctx,
            "means": means_results,
            "events": events_results,
            "events_seconds": time.time() - t0,
        }
    return runs


def test_criterion_01_lattice_oracle():
    t0 = time.time()
    table = enumerate_spectrum(2, 10**4)
    a = math.isqrt(10**4)
    xs = np.arange(-a, a + 1)
    norms = (xs[:, None] ** 2 + xs[None, :] ** 2).ravel()
    counts = np.bincount(norms[norms <= 10**4], minlength=10**4 + 1)
    nonzero = np.nonzero(counts)[0]
    assert np.array_equal(table.ms, nonzero)
    assert np.array_equal(table.rs, counts[nonzero])
    assert table.circle_count(100)[0] == 317
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"[criterion 1] PASS lattice oracle equivalence at 1e4 ({elapsed:.2f}s)")


def test_criterion_02_n1_secular_oracle():
    t0 = time.time()
    radius = 6000
    table = enumerate_spectrum(2, radius)
    shells = ShellSums.get(2, radius)
    centers = []
    for m in table.norms_in(980, 1200).tolist():
        try:
            table.gap_triple(m)
        except Exception:
            continue
        centers.append(m)
        if len(centers) == 20:
            break
    assert len(centers) == 20

    def closed_form(theta, lam):
        ns = shells.ns_physical
        t = math.tan(theta / 2.0)
        return math.fsum(shells.mult * (1.0 / (ns - lam) - (ns - t) / (ns**2 + 1.0)))

    worst = 0.0
    for theta in (0.0, math.pi / 3, -math.pi / 3, 2 * math.pi / 3, -2 * math.pi / 3):
        cfg = ScattererConfig(2, np.array([[0.37, 0.11]]), phases=np.array([theta]))
        for m in centers:
            tri = table.gap_triple(m)
            roots = find_new_eigenvalues(cfg, tri, radius, solver_tol=1e-8)
            assert len(roots) == 1, (theta, m)
            lo, hi = tri.n_center * (1 + 1e-13), tri.n_next * (1 - 1e-13)
            flo = closed_form(theta, lo)
            assert flo < 0 < closed_form(theta, hi)
            while hi - lo > 1e-13 * hi:
                mid = 0.5 * (lo + hi)
                if closed_form(theta, mid) < 0:
                    lo = mid
                else:
                    hi = mid
            expected = 0.5 * (lo + hi)
            rel = abs(roots[0].lambda_physical - expected) / expected
            worst = max(worst, rel)
            assert rel <= 1e-8, (theta, m, rel)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"[criterion 2] PASS secular oracle: 20 intervals x 5 phases, "
        f"worst rel err {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_03_per_sample_inequality_chain(mc_runs, mc_center):
    results = mc_runs[4]["events"]
    usable = [r for r in results if not r.no_root]
    assert len(usable) >= 500
    assert all(not r.endpoint_landing for r in usable)
    bad = [
        r.trial_index
        for r in usable
        if not (r.chain_c_ok and r.chain_b_ok and r.chain_ratio_ok)
    ]
    assert bad == [], f"chain violated on trials {bad[:10]}"
    elapsed = mc_runs[4]["events_seconds"]
    assert elapsed < 600.0
    print(
        f"[criterion 3] PASS inequality chain on {len(usable)}/{len(results)} "
        f"solver trials at m_k={mc_center} (run took {elapsed:.0f}s < 600s)"
    )


def test_criterion_04_markov_bounds(mc_runs):
    for n in (2, 4, 8):
        ctx = mc_runs[n]["ctx"]
        means = estimate_expectations(mc_runs[n]["means"], ctx)
        a_ref = math.fsum(
            abs(UNIT_OBS.coeffs[z]) * means["A"][",".join(map(str, z))]["mean"]
            for z in ctx.zetas
        )
        ref = {"A_a": a_ref, "B": means["B"]["mean"], "C": means["C"]["mean"]}
        ev = event_frequencies(
            mc_runs[n]["events"], [2.0, 5.0, 14.0 * n], n, ref_means=ref
        )
        for c0 in (2.0, 5.0, 14.0 * n):
            rec = ev["markov_A"][f"{c0:g}"]
            assert rec["freq"] >= rec["bound"] - 3.0 * rec["stderr"], (n, c0, rec)
        rec = ev["B_above_third"]
        assert rec["freq"] >= rec["bound"] - 3.0 * rec["stderr"], (n, rec)
        print(
            f"[criterion 4] PASS N={n}: freq(A_a <= 2E) = "
            f"{ev['markov_A']['2']['freq']:.3f} >= 0.5 - 3s; "
            f"freq(B > E/3) = {rec['freq']:.3f} >= {rec['bound']:.3f} - 3s"
        )


def test_criterion_05_expectation_asymptotics(mc_runs):
    ctx = mc_runs[4]["ctx"]
    exp = estimate_expectations(mc_runs[4]["events"], ctx)
    b_ratio = exp["B"]["ratio"]
    assert 0.8 <= b_ratio <= 1.2, b_ratio
    unit_shifts = [z for z in ctx.zetas if sum(c * c for c in z) == 1]
    assert unit_shifts
    ratios = {}
    for z in unit_shifts:
        rec = exp["A"][",".join(map(str, z))]
        ratios[z] = rec["ratio"]
        assert 0.7 <= rec["ratio"] <= 1.3, (z, rec)
    print(
        f"[criterion 5] PASS E(B)*(gap)^2 = {b_ratio:.3f} in [0.8, 1.2]; "
        f"A-ratios {['%.3f' % v for v in ratios.values()]} in [0.7, 1.3]"
    )


def test_criterion_06_normalization_and_parseval(mc_runs):
    for n in (2, 4, 8):
        results = [r for r in mc_runs[n]["events"] if not r.no_root]
        assert all(r.pair_one_exact for r in results)

    rng = np.random.default_rng(606)
    grid = 128
    worst = 0.0
    for _ in range(20):
        nsc = int(rng.integers(1, 5))
        d = rng.normal(size=nsc) + 1j * rng.normal(size=nsc)
        d /= np.linalg.norm(d)
        f = assemble_field(
            d,
            rng.uniform(size=(nsc, 2)),
            SpectralParameter(25.0 + float(rng.uniform(0.05, 0.95))),
            50,
        )
        a = Observable({(1, 0): 0.5, (-1, 0): 0.5})
        paired = pair_with_observable(f, a)
        spec_grid = np.zeros((grid, grid), dtype=complex)
        for pt, val in zip(f.pts.tolist(), f.values.tolist()):
            spec_grid[pt[0] % grid, pt[1] % grid] += val
        g = np.fft.ifft2(spec_grid) * grid * grid
        xs = np.arange(grid) / grid
        quad = float(
            np.sum(np.cos(2 * math.pi * xs)[:, None] * np.abs(g) ** 2) / grid**2 / f.norm_sq
        )
        worst = max(worst, abs(paired.real - quad))
        assert abs(paired.real - quad) <= 1e-6
    print(
        f"[criterion 6] PASS pairing with 1 exact on all trials; Fourier vs "
        f"quadrature worst gap {worst:.2e} <= 1e-6 on 20 probes"
    )


def test_criterion_07_exponent_arithmetic():
    assert consistency_gamma2(Fraction(133, 416)) == Fraction(17, 832)
    alpha, beta, _ = threshold_arithmetic(1.0, 1.0, Fraction(1, 12), 3, eps=Fraction(0))
    assert alpha == Fraction(1, 56) and beta == Fraction(3, 28)
    print("[criterion 7] PASS gamma_2 = 17/832 exactly; alpha_3 = 1/56, beta_3 = 3/28")


def test_criterion_08_window_conclusion_recheck():
    table = enumerate_spectrum(2, 21000)
    params = SPrimeParams(delta=0.1, eps_prime=0.2)
    win = build_window(table, 10000, 20000, params)
    assert len(win.accepted) == 179
    violations = [m for m in win.accepted if not recheck_conclusion(table, win, m)]
    assert violations == []
    print(
        f"[criterion 8] PASS post-hoc coefficient re-check: 0 violations over "
        f"{len(win.accepted)} accepted norms in [1e4, 2e4]"
    )


def test_criterion_09_thread_count_reproducibility(mc_center):
    spec = _spec(mc_center, 3, 777, 60)
    r1, ctx = run_trials(spec, threads=1)
    r2, _ = run_trials(spec, threads=4)
    text1 = trials_csv_text(r1, ctx.zetas)
    text2 = trials_csv_text(r2, ctx.zetas)
    assert text1 == text2
    r3, _ = run_trials(spec, threads=4)
    assert trials_csv_text(r3, ctx.zetas) == text1
    print("[criterion 9] PASS byte-identical trial CSVs across thread counts 1/4")


def test_criterion_10_trend_report(tmp_path):
    rows = []
    for target in (10**3, 10**4, 10**5):
        table = enumerate_spectrum(2, int(1.6 * target) + 200)
        m_center = None
        for m in table.norms_in(target, target + 200).tolist():
            try:
                tri = table.gap_triple(m)
            except Exception:
                continue
            if tri.next - tri.center == 1:  # same gap geometry at every scale
                m_center = m
                break
        assert m_center is not None
        spec = _spec(m_center, 4, 909, 64)
        results, _ = run_trials(spec, threads=THREADS)
        q = err_quantiles(results)
        rows.append(
            {"m_k": m_center, "median_err": q["median"], "q10": q["q10"], "q90": q["q90"]}
        )
    text = plotdata_text("err_vs_lambda", rows)
    out = tmp_path / "err_vs_lambda.csv"
    out.write_text(text)
    assert text.splitlines()[0] == "m_k,median_err,q10,q90"
    assert len(text.splitlines()) == 4
    medians = [r["median_err"] for r in rows]
    monotone = all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
    note = "monotone non-increasing" if monotone else f"NON-MONOTONE (logged, not failed): {medians}"
    print(f"[criterion 10] PASS trend report emitted; medians {medians} -> {note}")
