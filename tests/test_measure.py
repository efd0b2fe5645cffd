import math

import numpy as np
import pytest

from deltatorus.errors import NonSPrimeError, ValidationError
from deltatorus.greens import ShellSums, SpectralParameter, TruncationPolicy
from deltatorus.lattice import FOUR_PI_SQ, annulus_range, enumerate_spectrum, shell_vectors
from deltatorus.measure import (
    Observable,
    assemble_field,
    equidistribution_error,
    functional_A,
    functional_B,
    functional_C,
    functional_report,
    lex_first_shell_vector,
    pair_with_observable,
    sigma_sum,
    split_annulus,
)

POLICY = TruncationPolicy.by_radius(200)


def small_field(d, positions, lam_norm=25.4, radius=200):
    return assemble_field(
        np.asarray(d, dtype=complex),
        np.asarray(positions, dtype=float),
        SpectralParameter(lam_norm),
        TruncationPolicy.by_radius(radius),
    )


def test_observable_basics():
    a = Observable({(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    assert a.l1_norm == 2.0
    assert a.mean == 1.0
    assert a.nonzero_shifts() == [(-1, 0), (1, 0)]
    with pytest.raises(ValidationError):
        Observable({(1, 0): 0.5})  # missing the conjugate partner
    Observable({(1, 0): 0.5}, real_valued=False)
    with pytest.raises(ValidationError):
        Observable({})


def test_observable_json_round_trip():
    a = Observable({(0, 0): 1.0, (2, -1): 0.25 + 0.1j, (-2, 1): 0.25 - 0.1j})
    back = Observable.from_json(a.to_json())
    assert back.coeffs == a.coeffs


def test_observable_truncation():
    a = Observable({(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5, (3, 4): 0.25, (-3, -4): 0.25})
    cut = a.truncated(2.0)
    assert cut.nonzero_shifts() == [(-1, 0), (1, 0)]
    assert cut.mean == 1.0
    with pytest.raises(ValidationError):
        Observable({(3, 4): 0.25, (-3, -4): 0.25}).truncated(1.0)


def test_single_scatterer_at_origin():
    f = small_field([1.0], [[0.0, 0.0]])
    assert np.allclose(f.weights, 1.0)
    c = 1.0 / (FOUR_PI_SQ * f.norms.astype(float) - f.lam.physical)
    assert np.allclose(np.abs(f.values), np.abs(c))


def test_weight_bound_cauchy_schwarz():
    rng = np.random.default_rng(4)
    n = 5
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    d /= np.linalg.norm(d)
    f = small_field(d, rng.uniform(size=(n, 2)))
    assert np.max(np.abs(f.weights) ** 2) <= n + 1e-12


def test_half_shift_parity_cancellation():
    # positions x and x + (1/2, 0) with equal coefficients kill odd xi_1
    x = np.array([0.3, 0.8])
    f = small_field(
        [1 / math.sqrt(2), 1 / math.sqrt(2)], [x, (x + [0.5, 0.0]) % 1.0]
    )
    odd = f.pts[:, 0] % 2 == 1
    assert np.max(np.abs(f.weights[odd])) < 1e-12
    assert np.min(np.abs(f.weights[~odd])) > 1e-3


def test_field_requires_normalized_coefficients():
    with pytest.raises(ValidationError):
        small_field([0.5], [[0.1, 0.2]])


def test_pair_with_constant_is_exactly_one():
    rng = np.random.default_rng(9)
    d = rng.normal(size=3) + 1j * rng.normal(size=3)
    d /= np.linalg.norm(d)
    f = small_field(d, rng.uniform(size=(3, 2)))
    one = Observable({(0, 0): 1.0})
    assert pair_with_observable(f, one) == 1.0


def test_pair_disjoint_support_is_zero():
    f = small_field([1.0], [[0.17, 0.29]])
    far = Observable({(100, 0): 0.5, (-100, 0): 0.5})
    assert pair_with_observable(f, far) == 0.0


def test_pair_against_grid_quadrature():
    # Fourier-space pairing vs real-space quadrature of a |g|^2 on a grid
    # fine enough to make the trigonometric quadrature exact
    rng = np.random.default_rng(12)
    for _ in range(3):
        n = 3
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d /= np.linalg.norm(d)
        f = small_field(d, rng.uniform(size=(n, 2)), lam_norm=25.4, radius=50)
        a = Observable({(1, 0): 0.5, (-1, 0): 0.5})  # cos(2 pi x_1)
        paired = pair_with_observable(f, a)

        grid = 128
        spec_grid = np.zeros((grid, grid), dtype=complex)
        for pt, val in zip(f.pts.tolist(), f.values.tolist()):
            spec_grid[pt[0] % grid, pt[1] % grid] += val
        g = np.fft.ifft2(spec_grid) * grid * grid
        xs = np.arange(grid) / grid
        weight = np.cos(2 * math.pi * xs)[:, None]
        quad = np.sum(weight * np.abs(g) ** 2) / grid**2 / f.norm_sq
        assert paired.real == pytest.approx(float(quad), abs=1e-6)
        assert abs(paired.imag) < 1e-9


def test_split_annulus():
    rng = np.random.default_rng(21)
    d = rng.normal(size=2) + 1j * rng.normal(size=2)
    d /= np.linalg.norm(d)
    f = small_field(d, rng.uniform(size=(2, 2)))
    # huge width: everything is annulus
    a, r = split_annulus(f, 25, FOUR_PI_SQ * 1000.0)
    assert a == f.norm_sq and r == 0.0
    # tight width: only the center shell
    a, r = split_annulus(f, 25, 0.5 * FOUR_PI_SQ)
    on_shell = f.norms == 25
    assert a == pytest.approx(float(np.sum(f.abs_sq[on_shell])), rel=1e-12)
    assert a + r == f.norm_sq  # exact by construction
    # annulus sticking out of the ball without swallowing it: rejected
    with pytest.raises(ValidationError):
        split_annulus(f, 150, FOUR_PI_SQ * 60.0)
    # on the |xi|^2 <= 27 ball, half-widths 2 and 2.5 (times 4pi^2) select
    # the same norms 23..27, inside the ball
    f27 = small_field(d, rng.uniform(size=(2, 2)), radius=27)
    assert split_annulus(f27, 25, 2.5 * FOUR_PI_SQ) == split_annulus(f27, 25, 2 * FOUR_PI_SQ)


def test_field_from_phase_table_matches_direct_exponentials_d3():
    rng = np.random.default_rng(8)
    d = rng.normal(size=3) + 1j * rng.normal(size=3)
    d /= np.linalg.norm(d)
    x = rng.uniform(size=(3, 3))
    lam = SpectralParameter(9.4)
    shells = ShellSums.get(3, 400)
    f = assemble_field(d, x, lam, TruncationPolicy.by_radius(400), shells=shells)
    direct = np.exp(-2j * math.pi * (shells.pts @ x.T)) @ d
    assert np.max(np.abs(f.weights - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize(
    "m_center,width",
    [(25, 0.5 * FOUR_PI_SQ), (25, 3 * FOUR_PI_SQ), (25, 3.0), (40, 0.0), (40, -1.0),
     (100, 10 * FOUR_PI_SQ), (25, FOUR_PI_SQ * 1000.0), (25, math.inf)],
)
def test_annulus_range_is_the_annulus_mask(m_center, width):
    norms = ShellSums.get(2, 200).norms
    lo, hi = annulus_range(norms, m_center, width)
    mask = np.abs(FOUR_PI_SQ * (norms.astype(np.float64) - m_center)) <= width
    assert np.array_equal(np.flatnonzero(mask), np.arange(lo, hi))


def test_functional_A_against_resummation_oracle():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    width = 30.0  # annulus = shell 25 alone
    rng = np.random.default_rng(33)
    d = rng.normal(size=3) + 1j * rng.normal(size=3)
    d /= np.linalg.norm(d)
    pos = rng.uniform(size=(3, 2))
    f = small_field(d, pos, lam_norm=25.3)
    zeta = (2, 0)  # no endpoint landing on shells 25/26
    val = functional_A(f, zeta, tri, width)

    acc = 0.0
    for xi in shell_vectors(2, 25).tolist():
        w = sum(
            dj * np.exp(-2j * math.pi * (xi[0] * p[0] + xi[1] * p[1]))
            for dj, p in zip(d, pos)
        )
        ms = (xi[0] + zeta[0]) ** 2 + (xi[1] + zeta[1]) ** 2
        if ms < tri.center:
            c = 1.0 / (FOUR_PI_SQ * ms - tri.n_center)
        elif ms > tri.next:
            c = 1.0 / (FOUR_PI_SQ * ms - tri.n_next)
        else:
            raise AssertionError("unexpected endpoint landing")
        acc += c * c * abs(w) ** 2
    assert val == pytest.approx(acc, rel=1e-12)


def test_functional_A_endpoint_landing_raises():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    f = small_field([1.0], [[0.4, 0.9]], lam_norm=25.3)
    # (0,5)+(1,0) has norm 26 = the upper endpoint shell
    with pytest.raises(NonSPrimeError):
        functional_A(f, (1, 0), tri, 30.0)


def test_functional_A_zero_when_weights_vanish():
    # parity cancellation: every norm-25 vector has odd first-coordinate sum
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    x = np.array([0.15, 0.45])
    f = small_field(
        [1 / math.sqrt(2), 1 / math.sqrt(2)],
        [x, (x + [0.5, 0.5]) % 1.0],
        lam_norm=25.3,
    )
    on_shell = f.norms == 25
    assert np.max(np.abs(f.weights[on_shell])) < 1e-12
    assert functional_A(f, (2, 0), tri, 30.0) == pytest.approx(0.0, abs=1e-22)


def test_functional_B():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    assert (tri.prev, tri.center, tri.next) == (20, 25, 26)
    assert lex_first_shell_vector(2, 25) == (-5, 0)
    rng = np.random.default_rng(8)
    d = rng.normal(size=4) + 1j * rng.normal(size=4)
    d /= np.linalg.norm(d)
    f = small_field(d, rng.uniform(size=(4, 2)), lam_norm=25.3)
    b = functional_B(f, tri)
    w = f.weight_at((-5, 0))
    assert b == pytest.approx(abs(w) ** 2 / (FOUR_PI_SQ * (26 - 20)) ** 2, rel=1e-13)
    assert b <= 4.0 / tri.outer_gap**2 + 1e-20


def test_functional_B_zero_numerator():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    x = np.array([0.15, 0.45])
    f = small_field(
        [1 / math.sqrt(2), 1 / math.sqrt(2)],
        [x, (x + [0.5, 0.5]) % 1.0],
        lam_norm=25.3,
    )
    assert functional_B(f, tri) < 1e-28


def test_functional_C():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    rng = np.random.default_rng(44)
    d = rng.normal(size=2) + 1j * rng.normal(size=2)
    d /= np.linalg.norm(d)
    f = small_field(d, rng.uniform(size=(2, 2)), lam_norm=25.3)
    # annulus covering the whole ball leaves an empty complement
    assert functional_C(f, tri, FOUR_PI_SQ * 1000.0) == 0.0

    width = 30.0
    val = functional_C(f, tri, width)
    acc = 0.0
    for xi, m, w in zip(f.pts.tolist(), f.norms.tolist(), f.weights.tolist()):
        if FOUR_PI_SQ * abs(m - 25) <= width:
            continue
        if m < tri.center:
            c = 1.0 / (FOUR_PI_SQ * m - tri.n_center)
        elif m > tri.next:
            c = 1.0 / (FOUR_PI_SQ * m - tri.n_next)
        else:
            continue
        acc += c * c * abs(w) ** 2
    assert val == pytest.approx(acc, rel=1e-12)


def test_functional_C_unit_weights_equals_bare_sum():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    f = small_field([1.0], [[0.0, 0.0]], lam_norm=25.3)  # |w| = 1 everywhere
    width = 30.0
    val = functional_C(f, tri, width)
    mask = np.abs(FOUR_PI_SQ * (f.norms.astype(float) - 25)) > width
    low = f.norms[mask] < 25
    high = f.norms[mask] > 26
    bare = np.sum(
        1.0 / (FOUR_PI_SQ * f.norms[mask][low].astype(float) - tri.n_center) ** 2
    ) + np.sum(1.0 / (FOUR_PI_SQ * f.norms[mask][high].astype(float) - tri.n_next) ** 2)
    assert val == pytest.approx(float(bare), rel=1e-12)


def test_sigma_sum():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    width = 30.0
    val, bound = sigma_sum(table, tri, width, (2, 0))
    assert val > 0
    assert bound == pytest.approx(12 / width**2)
    assert val <= 4.0 * bound
    # central symmetry of the zero-shift annulus
    val_neg, _ = sigma_sum(table, tri, width, (-2, 0))
    assert val_neg == pytest.approx(val, rel=1e-14)
    with pytest.raises(ValidationError):
        sigma_sum(table, tri, width, (0, 0))
    # 4pi^2 * (233 - 25) <= width: the annulus is the whole |xi|^2 <= 233 ball
    big = enumerate_spectrum(2, 20000)
    width = FOUR_PI_SQ * 208
    _, bound = sigma_sum(big, big.gap_triple(25), width, (1, 0))
    assert bound == big.circle_count(233)[0] / width**2


def test_per_sample_chain_on_random_fields():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    width = FOUR_PI_SQ * 1.2  # covers both endpoint shells (gap is 1)
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d /= np.linalg.norm(d)
        lam_norm = 25.0 + float(rng.uniform(0.01, 0.99))
        f = small_field(d, rng.uniform(size=(n, 2)), lam_norm=lam_norm)
        annulus, remainder = split_annulus(f, 25, width)
        c_val = functional_C(f, tri, width)
        b_val = functional_B(f, tri)
        assert remainder <= c_val
        assert annulus >= b_val
        if b_val > 0:
            assert remainder / f.norm_sq <= c_val / b_val


def test_equidistribution_error():
    f = small_field([1.0], [[0.33, 0.71]], lam_norm=25.4)
    const = Observable({(0, 0): 2.5})
    err, env = equidistribution_error(f, const, 17.0 / 832.0, 0.0, 1)
    assert err == 0.0
    a = Observable({(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    err, env = equidistribution_error(f, a, 17.0 / 832.0, 0.0, 1)
    assert err <= 2.0 * a.l1_norm
    assert env == pytest.approx(
        2.0 * f.lam.physical ** (-17.0 / 832.0), rel=1e-12
    )


def test_equidistribution_envelope_frozen_value():
    # N = 4, l1 = 1, lambda = 4 pi^2 * 10^4, gamma = 17/832, eps = 0
    lam = SpectralParameter(10**4)
    env = 1.0 * math.sqrt(4) * lam.physical ** (-17.0 / 832.0)
    assert env == pytest.approx(1.5370263012755337, abs=1e-12)


def test_functional_report():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    rng = np.random.default_rng(55)
    d = rng.normal(size=2) + 1j * rng.normal(size=2)
    d /= np.linalg.norm(d)
    f = small_field(d, rng.uniform(size=(2, 2)), lam_norm=25.5)
    rep = functional_report(f, table, tri, 30.0, [(2, 0), (0, 2)])
    payload = rep.to_json()
    assert set(payload) == {"A", "B", "C", "sigma", "split"}
    assert set(payload["A"]) == {"2,0", "0,2"}
    assert payload["split"][0] + payload["split"][1] == pytest.approx(f.norm_sq)
    assert all(v >= 0 for v in payload["A"].values())
