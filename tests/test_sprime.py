import math

import pytest

from deltatorus.errors import ValidationError
from deltatorus.lattice import enumerate_spectrum
from deltatorus.sprime import (
    SPrimeParams,
    build_window,
    coeff_condition,
    epsilon_from_delta,
    gap_condition,
    recheck_conclusion,
    shift_vectors,
)

THETA = 133.0 / 416.0


def test_epsilon_from_delta():
    assert epsilon_from_delta(THETA, 0.10) == pytest.approx(0.0401442307692, abs=1e-10)
    assert epsilon_from_delta(0.25, 0.15) == pytest.approx(0.05)
    with pytest.raises(ValidationError):
        epsilon_from_delta(THETA, 0.5 - THETA)


def test_params_defaults_and_flags():
    p = SPrimeParams(delta=0.1)
    assert p.eps == pytest.approx(epsilon_from_delta(THETA, 0.1))
    assert p.eps_prime == p.eps
    assert not p.delta_in_paper_range  # 0.1 < theta/2
    assert SPrimeParams(delta=0.17).delta_in_paper_range
    with pytest.raises(ValidationError):
        SPrimeParams(delta=0.7)
    with pytest.raises(ValidationError):
        SPrimeParams(delta=0.3)  # derived eps would be negative
    assert SPrimeParams(delta=0.3, eps=0.05).eps == 0.05


def test_shift_vectors():
    assert shift_vectors(2, 0.5).shape == (0, 2)
    unit = shift_vectors(2, 1.0)
    assert sorted(map(tuple, unit.tolist())) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    # one cached array per integer radius-squared, shared and read-only
    assert shift_vectors(2, 1.2) is unit and not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0, 0] = 5
    assert shift_vectors(2, 1.5).shape == (8, 2)
    # norms 1, 2, 4, 5: 4 + 4 + 4 + 8 vectors in d = 2, 6 + 12 + 8 + 6 + 24 in d = 3
    for dim, count in ((2, 20), (3, 56)):
        vecs = shift_vectors(dim, math.sqrt(5))
        assert vecs.shape == (count, dim)
        assert sorted(map(tuple, vecs.tolist())) == list(map(tuple, vecs.tolist()))
        norms = (vecs**2).sum(axis=1)
        assert norms.min() == 1 and norms.max() == 5
    assert shift_vectors(3, 1.0).shape == (6, 3)


def test_gap_condition(table_d2_small):
    params = SPrimeParams(delta=0.1, eps_prime=0.2)
    # neighbors of 9 are 8 and 10: physical double gap 2 * 4pi^2 = 78.96
    # against 10 * (4pi^2*9)^0.2 = 32.4
    assert gap_condition(table_d2_small, 9, params) is False
    assert gap_condition(table_d2_small, 9, SPrimeParams(delta=0.1, c_gap=math.inf)) is True


def test_gap_condition_small_gaps_at_large_norm():
    # near 10^6 the threshold 10 * n_k^0.2 admits double gaps up to 8
    table = enumerate_spectrum(2, 1_001_000)
    params = SPrimeParams(delta=0.1, eps_prime=0.2)
    found = None
    for m in table.norms_in(10**6, 10**6 + 500).tolist():
        tri = table.gap_triple(m)
        if tri.next - tri.prev <= 4:
            found = m
            break
    assert found is not None
    assert gap_condition(table, found, params) is True


def test_coeff_condition_exhaustive_cases(table_d2_small):
    # shell 25 with unit shifts reaches (1, 5) of norm 26 = m_{k+1}:
    # distance zero, so the condition fails for any finite constant
    params = SPrimeParams(delta=0.1, c_coeff=1.0)
    assert coeff_condition(table_d2_small, 25, params) is False
    assert coeff_condition(table_d2_small, 25, SPrimeParams(delta=0.1, c_coeff=1e12)) is False
    # with the vacuous constant the zero distance is allowed
    assert coeff_condition(table_d2_small, 25, SPrimeParams(delta=0.1, c_coeff=math.inf)) is True
    # norm 50: no unit-shifted annulus vector lands on an endpoint shell
    assert coeff_condition(table_d2_small, 50, SPrimeParams(delta=0.1)) is True


def test_coeff_condition_vacuous_on_empty_annulus():
    from deltatorus.sprime import _coeff_check
    import numpy as np

    empty = np.zeros((0, 2), dtype=np.int64)
    shifts = shift_vectors(2, 1.0)
    assert _coeff_check(empty, shifts, 10.0, 20.0, 5.0) is True


def test_coeff_check_matches_pointwise_loop(table_d2_mid):
    # the block scan against a loop over every (shift, point) pair, at the
    # exact smallest distance (passes) and one ulp above it (fails)
    from deltatorus.lattice import FOUR_PI_SQ, annulus_points
    from deltatorus.sprime import _coeff_check

    for m in (10016, 10025, 10034):
        triple = table_d2_mid.gap_triple(m)
        lo, hi = triple.n_center, triple.n_next
        points = annulus_points(table_d2_mid, m, (FOUR_PI_SQ * m) ** 0.3)
        shifts = shift_vectors(2, 3.5)
        dist = math.inf
        for zeta in shifts.tolist():
            for xi in points.tolist():
                n = FOUR_PI_SQ * float((xi[0] + zeta[0]) ** 2 + (xi[1] + zeta[1]) ** 2)
                dist = min(dist, 0.0 if lo <= n <= hi else min(abs(n - lo), abs(n - hi)))
        assert dist > 0
        assert _coeff_check(points, shifts, lo, hi, dist) is True
        assert _coeff_check(points, shifts, lo, hi, math.nextafter(dist, math.inf)) is False


def test_build_window_density_limits(table_d2_mid):
    # constants too small: nothing passes
    tiny = build_window(
        table_d2_mid, 10000, 10500, SPrimeParams(delta=0.1, c_gap=1e-6, c_coeff=1e-6)
    )
    assert tiny.density == 0.0
    # vacuous constants: everything passes
    full = build_window(
        table_d2_mid, 10000, 10500, SPrimeParams(delta=0.1, c_gap=math.inf, c_coeff=math.inf)
    )
    assert full.density == 1.0


def test_build_window_golden_values(table_d2_mid):
    # frozen from the exhaustive scan; spec defaults tie eps' to eps, which
    # rejects every double gap at this scale
    win_default = build_window(table_d2_mid, 10000, 20000, SPrimeParams(delta=0.1))
    assert len(win_default.members) == 2510
    assert win_default.density == 0.0

    win = build_window(table_d2_mid, 10000, 20000, SPrimeParams(delta=0.1, eps_prime=0.2))
    assert len(win.accepted) == 179
    assert win.density == pytest.approx(0.07131474103585657, abs=1e-15)


def test_window_monotone_in_constants(table_d2_mid):
    densities = [
        build_window(
            table_d2_mid, 10000, 12000, SPrimeParams(delta=0.1, eps_prime=0.2, c_gap=cg)
        ).density
        for cg in (5.0, 10.0, 50.0)
    ]
    assert densities == sorted(densities)
    densities = [
        build_window(
            table_d2_mid,
            10000,
            11000,
            SPrimeParams(delta=0.1, eps_prime=0.2, c_coeff=cc),
        ).density
        for cc in (0.5, 10.0, math.inf)
    ]
    assert densities == sorted(densities)


def test_window_determinism(table_d2_mid):
    params = SPrimeParams(delta=0.1, eps_prime=0.2)
    a = build_window(table_d2_mid, 10000, 11000, params)
    b = build_window(table_d2_mid, 10000, 11000, params)
    assert a.accepted == b.accepted
    assert a.rows().__next__() == b.rows().__next__()


def test_window_doubling_density_report():
    # density over doubling windows: report-style check, soft threshold
    table = enumerate_spectrum(2, 42000)
    params = SPrimeParams(delta=0.1, eps_prime=0.2)
    d1 = build_window(table, 10000, 20000, params).density
    d2 = build_window(table, 20000, 40000, params).density
    assert d2 >= d1 - 0.05, f"density dropped sharply: {d1} -> {d2}"


def test_accepted_members_pass_conclusion_recheck(table_d2_mid):
    params = SPrimeParams(delta=0.3, eps=0.05, eps_prime=0.2)
    win = build_window(table_d2_mid, 10000, 10600, params)
    assert win.accepted, "window unexpectedly empty"
    for m in win.accepted:
        assert recheck_conclusion(table_d2_mid, win, m)


def test_d3_window_flagged_heuristic(table_d3_small):
    win = build_window(table_d3_small, 10, 40, SPrimeParams(delta=0.1, eps_prime=0.3))
    assert win.heuristic_d3 is True
    assert win.summary()["heuristic_d3"] is True


def test_window_errors(table_d2_small):
    with pytest.raises(ValidationError):
        build_window(table_d2_small, 100, 100, SPrimeParams(delta=0.1))
    from deltatorus.errors import OutOfRangeError

    with pytest.raises(OutOfRangeError):
        build_window(table_d2_small, 100, 10**6, SPrimeParams(delta=0.1))
