import cmath
import math

import numpy as np
import pytest

from deltatorus.errors import OnSpectrumError, ValidationError
from deltatorus.greens import (
    ONE_THREAD_GEMM,
    ShellSums,
    SpectralParameter,
    TruncationPolicy,
    check_radius,
    one_thread_matmul,
    regularized_pair,
)
from deltatorus.lattice import FOUR_PI_SQ, shell_vectors

LAM = SpectralParameter(0.5)
R4 = 10**4

# frozen once from the high-cutoff run (R = 10^6) of the same summand
REG_GOLDEN_R4 = complex(0.08174181730567756, -1.003864983513358)
REG_GOLDEN_R6 = complex(0.08174575636159752, -1.0038651830632106)


def test_coefficient():
    # c_lambda per shell: |xi|^2 = 1 is shell 1, and every xi of shell 5
    # shares one coefficient
    shells = ShellSums.get(2, 10)
    c = shells.coeffs(LAM.physical)
    assert c[1] == pytest.approx(1.0 / (2.0 * math.pi**2))
    assert shells.shell_ms[4] == 5 and shells.mult[4] == 8
    assert c[4] == 1.0 / (FOUR_PI_SQ * 5 - LAM.physical)
    with pytest.raises(OnSpectrumError):
        shells.pole_check(SpectralParameter(1.0))


def test_spectral_parameter_units():
    lam = SpectralParameter(2.5)
    assert lam.physical == pytest.approx(FOUR_PI_SQ * 2.5)
    assert SpectralParameter(lam.physical / FOUR_PI_SQ).lambda_norm == pytest.approx(2.5)


def test_policy_resolution():
    assert check_radius(R4, LAM) == 10**4
    assert type(check_radius(np.int64(6), SpectralParameter(5.0))) is int
    for bad in (3, 5, 5.9, 6.0, True, "6"):
        with pytest.raises(ValidationError):
            check_radius(bad, SpectralParameter(5.0))
    assert TruncationPolicy.by_radius(np.int64(7)) == 7
    assert type(TruncationPolicy.by_radius(np.int64(7))) is int
    with pytest.raises(ValidationError):
        TruncationPolicy.by_radius(0)
    # the ball is enumerated up to a fixed point cap, the one rule of lattice.ball_points
    with pytest.raises(ValidationError, match="too large to enumerate"):
        ShellSums(2, 10**8)


def test_green_translation_invariance():
    x, y = np.array([0.31, 0.77]), np.array([0.05, 0.42])
    t = np.array([0.123, 0.456])
    a = regularized_pair(x, y, LAM, +1, R4).value
    b = regularized_pair(x + t, y + t, LAM, +1, R4).value
    assert b == pytest.approx(a, rel=1e-9)


def test_green_symmetry():
    x, y = np.array([0.31, 0.77]), np.array([0.05, 0.42])
    a = regularized_pair(x, y, LAM, +1, R4).value
    b = regularized_pair(y, x, LAM, +1, R4).value
    assert b == pytest.approx(a, rel=1e-12)


def test_regularized_golden_values():
    v4 = regularized_pair((0.0, 0.0), (0.0, 0.0), LAM, +1, R4)
    assert v4.value.real == pytest.approx(REG_GOLDEN_R4.real, abs=1e-14)
    assert v4.value.imag == pytest.approx(REG_GOLDEN_R4.imag, abs=1e-14)
    assert abs(v4.value - REG_GOLDEN_R6) <= v4.tail_bound


def test_regularized_conjugation():
    v_plus = regularized_pair((0.0, 0.0), (0.0, 0.0), LAM, +1, R4).value
    v_minus = regularized_pair((0.0, 0.0), (0.0, 0.0), LAM, -1, R4).value
    assert v_minus == pytest.approx(v_plus.conjugate(), abs=1e-15)


def test_regularized_coincident_real_part():
    # at x = y the +-xi pairing leaves sum_m r(m) [c_lam - Re c_i] as the
    # real part
    shells = ShellSums.get(2, 10**4)
    ns = shells.ns_physical
    expected = math.fsum(
        shells.mult * (1.0 / (ns - LAM.physical) - ns / (ns**2 + 1.0))
    )
    v = regularized_pair((0.0, 0.0), (0.0, 0.0), LAM, +1, R4).value
    assert v.real == pytest.approx(expected, rel=1e-12)


def test_pairing_against_complex_oracle():
    # ungrouped complex-exponential sum over every lattice point
    lam = SpectralParameter(2.3)
    shells = ShellSums.get(2, 400)
    z = np.array([0.21, 0.58])
    acc = 0.0 + 0.0j
    coeff_abs = 0.0
    for pt, m in zip(shells.pts.tolist(), shells.norms.tolist()):
        n = FOUR_PI_SQ * m
        c = 1.0 / (n - lam.physical) - 1.0 / (n - 1j)
        acc += c * cmath.exp(2j * math.pi * (pt[0] * z[0] + pt[1] * z[1]))
        coeff_abs += abs(c)
    g = regularized_pair(z, (0.0, 0.0), lam, +1, 400).value
    assert abs(g - acc) <= 1e-12 * coeff_abs


def test_tail_power_law():
    lam = SpectralParameter(3.0)

    def bound(dim, radius_sq, lam=lam):
        return regularized_pair((0.0,) * dim, (0.0,) * dim, lam, +1, radius_sq).tail_bound

    assert bound(2, 1000) / bound(2, 2000) == pytest.approx(2.0, rel=1e-12)
    d3 = SpectralParameter(3.5)  # 3 is a shell of Z^3
    assert bound(3, 100, d3) / bound(3, 200, d3) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert 0 < bound(2, 2000) < math.inf
    # no rigorous bound until R > max(16, 2 * lambda_norm)
    assert bound(2, 17, SpectralParameter(10.5)) == math.inf


def test_lattice_inverse_fourth_sum_bounds():
    # the documented comparison constants dominate the actual lattice sums
    for dim, const, power in ((2, 16.0, 1.0), (3, 32.0, 0.5)):
        shells = ShellSums.get(dim, 4096)
        for r in (16, 64, 256):
            mask = shells.shell_ms > r
            partial = float(
                np.sum(shells.mult[mask] / shells.shell_ms[mask].astype(float) ** 2)
            )
            assert partial <= const / r**power
            # and the bound is not absurdly loose: the partial sum reaches a
            # decent fraction of it
            assert partial >= 0.05 * const / r**power


def test_regularized_tail_domination_under_cutoff_doubling():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(size=2)
        y = rng.uniform(size=2)
        lam = SpectralParameter(float(rng.uniform(0.3, 20.0)))
        v1 = regularized_pair(x, y, lam, +1, 2000)
        v2 = regularized_pair(x, y, lam, +1, 4000)
        assert abs(v1.value - v2.value) <= v1.tail_bound


def test_residue_at_poles():
    # (n_k - lambda) * G -> shell exponential sum as lambda approaches n_k;
    # the regularizing term is smooth there
    z = np.array([0.013, 0.027])
    for m in (1, 2, 5):
        n_k = FOUR_PI_SQ * m
        lam = SpectralParameter((n_k - 1e-6) / FOUR_PI_SQ)
        g = regularized_pair(z, (0.0, 0.0), lam, +1, 600).value.real
        vecs = shell_vectors(2, m)
        shell = math.fsum(
            math.cos(2 * math.pi * (v[0] * z[0] + v[1] * z[1])) for v in vecs.tolist()
        )
        assert (n_k - lam.physical) * g == pytest.approx(shell, rel=1e-3)


def test_pole_detection():
    for m in (4, 25):
        with pytest.raises(OnSpectrumError):
            regularized_pair((0.3, 0.7), (0.0, 0.0), SpectralParameter(float(m)), +1, R4)
    # lambda on a non-representable integer is fine
    regularized_pair((0.3, 0.7), (0.0, 0.0), SpectralParameter(3.0), +1, R4)


def test_shellsums_weights_zero_is_multiplicity():
    shells = ShellSums.get(2, 200)
    w = shells.weights(np.zeros(2))
    assert np.allclose(w, shells.mult.astype(float), rtol=0, atol=1e-9)


@pytest.mark.parametrize("dim,radius_sq", [(2, 4000), (3, 400)])
@pytest.mark.parametrize("n", [1, 5])
def test_weights_many_matches_cosine_weights(dim, radius_sq, n):
    # every pair k < j against the whole-ball cosine path at x_k - x_j
    shells = ShellSums.get(dim, radius_sq)
    mult = shells.mult.astype(np.float64)
    coords, weight, shell = shells._orthant()
    assert np.all(coords >= 0) and weight.size < shells.pts.shape[0]
    assert np.array_equal(np.bincount(shell, weights=weight, minlength=mult.size), mult)
    x = np.random.default_rng(70 + dim).uniform(size=(n, dim))
    if n == 5:
        x[1, 0] = x[0, 0]  # the pair (0, 1) shares a coordinate
        x[0], x[2] = 0.1, 0.75  # the pair (0, 2) differs by 0.65 in every coordinate
    w = shells.weights_many(x)
    rows, cols = np.triu_indices(n, 1)
    assert w.shape == (mult.size, rows.size)
    for t, (k, j) in enumerate(zip(rows, cols)):
        assert np.all(np.abs(w[:, t] - shells.weights(x[k] - x[j])) <= 1e-12 * mult)


@pytest.mark.parametrize("dim,radius_sq", [(2, 16058), (2, 4000), (3, 400)])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_weights_many_rows_match_rows_times_weights(dim, radius_sq, n):
    # weights_many(x, project(near, f)) is W[near] stacked on F @ W, whether
    # or not W is formed: the near rows to 1e-15 of the multiplicity in
    # d = 2 and bit for bit in d = 3, and F @ W to rounding in |F| @ |W|
    shells = ShellSums.get(dim, radius_sq)
    s = shells.shell_ms.size
    rng = np.random.default_rng(90 + dim)
    near = slice(s // 2 - 10, s // 2 + 16)
    f = np.vstack((rng.standard_normal((4, s)), 1.0 / (shells.ns_physical + 1.0)))
    x = rng.uniform(size=(n, dim))
    if n == 5:
        x[1, 0] = x[0, 0]  # the pair (0, 1) shares a coordinate
        x[0], x[2] = 0.1, 0.75  # the pair (0, 2) differs by 0.65 in every coordinate
    got = shells.weights_many(x, shells.project(near, f))
    w = shells.weights_many(x)
    k = near.stop - near.start
    assert got.shape == (k + f.shape[0], n * (n - 1) // 2)
    mult = shells.mult[near].astype(np.float64)
    if dim == 2:
        assert np.all(np.abs(got[:k] - w[near]) <= 1e-15 * mult[:, None])
    else:
        assert np.array_equal(got[:k], w[near])
    assert np.all(np.abs(got[k:] - f @ w) <= 1e-13 * (np.abs(f) @ np.abs(w)))


def test_one_thread_matmul_of_an_empty_product():
    # N = 1 has no off-diagonal pair: zero columns, and zero inner length
    a = np.ones((3, 4))
    assert one_thread_matmul(a, np.ones((4, 0)), np.empty((3, 0))).shape == (3, 0)
    out = np.full((3, 2), np.nan)
    assert np.array_equal(one_thread_matmul(a[:, :0], np.ones((0, 2)), out), np.zeros((3, 2)))


def _matmul_calls(monkeypatch, a, b):
    """one_thread_matmul(a, b) and the (rows, columns) of each of its products."""
    matmul, calls = np.matmul, []

    def counted(x, y, out):
        calls.append(out.shape)
        return matmul(x, y, out=out)

    monkeypatch.setattr(np, "matmul", counted)
    got = one_thread_matmul(a, b, np.empty((a.shape[0], b.shape[1])))
    monkeypatch.setattr(np, "matmul", matmul)
    return got, calls


@pytest.mark.parametrize("m,k,n", [
    (14 * 127, 127, 120),  # d = 2 workspace box at the acceptance gap, N = 16
    (253, 30, 506),  # d = 2 field at the acceptance ball, N = 15
    (14, 336, 28),  # d = 3 workspace rows at R = 400, m_k = 101, N = 8
    (61 * 61, 16, 122),  # d = 3 field at R = 900, N = 8
    (127, 30, 506),  # d = 2 field of real coefficients (half box), N = 15
    (31 * 61, 16, 122),  # d = 3 field of real coefficients (half box), R = 900, N = 8
])
def test_one_thread_matmul_keeps_one_column_block_on_artifact_shapes(monkeypatch, m, k, n):
    # every product an artifact runs fits one column block, so its row
    # blocks, and with them its bits, are those of rows alone
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    got, calls = _matmul_calls(monkeypatch, a, b)
    assert {cols for _, cols in calls} == {n}
    step = max(1, ONE_THREAD_GEMM // (k * n))
    want = np.vstack([a[r : r + step] @ b for r in range(0, m, step)])
    assert np.array_equal(got, want)


def test_one_thread_matmul_blocks_wide_products_by_columns(monkeypatch):
    # the N = 64 workspace box product: column blocks of 123 pairs, each
    # with row blocks of 64 rows, where rows alone gave blocks of 3
    rng = np.random.default_rng(64)
    a, b = rng.standard_normal((300, 127)), rng.standard_normal((127, 2016))
    got, calls = _matmul_calls(monkeypatch, a, b)
    assert {cols for _, cols in calls} == {123, 2016 % 123}
    assert max(r for r, c in calls if c == 123) == 64 and min(r for r, _ in calls) == 300 % 64
    assert all(r * c * 127 <= ONE_THREAD_GEMM for r, c in calls)
    assert np.allclose(got, a @ b, rtol=0, atol=1e-12 * np.abs(a) @ np.abs(b))


def test_d3_shell_enumeration_matches_brute_force():
    from conftest import brute_counts_d3

    shells = ShellSums.get(3, 60)
    counts = brute_counts_d3(60)
    for m, r in zip(shells.shell_ms.tolist(), shells.mult.tolist()):
        assert counts[m] == r
    assert int(shells.mult.sum()) == int(counts.sum())


def test_d3_green_and_regularized():
    lam = SpectralParameter(1.7)
    x, y = (0.21, 0.55, 0.83), (0.0, 0.1, 0.4)
    for z in (x, y):
        v1 = regularized_pair(x, z, lam, +1, 400)
        v2 = regularized_pair(x, z, lam, +1, 1600)
        assert abs(v1.value - v2.value) <= v1.tail_bound
    v1 = regularized_pair(x, x, lam, +1, 400)
    v_minus = regularized_pair(x, x, lam, -1, 400)
    assert v_minus.value == pytest.approx(v1.value.conjugate(), abs=1e-15)
