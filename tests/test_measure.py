import dataclasses
import math

import numpy as np
import pytest

from deltatorus.errors import NonSPrimeError, ValidationError
from deltatorus.greens import ONE_THREAD_GEMM, ShellSums, SpectralParameter
from deltatorus.lattice import (
    FOUR_PI_SQ,
    annulus_points,
    annulus_range,
    enumerate_spectrum,
    shell_vectors,
)
from deltatorus.measure import (
    Observable,
    _box_dot,
    assemble_field,
    correlation_sum,
    equidistribution_error,
    functional_A,
    functional_B,
    functional_C,
    pair_with_observable,
    sigma_sum,
    split_annulus,
)


def small_field(d, positions, lam_norm=25.4, radius=200):
    return assemble_field(
        np.asarray(d, dtype=complex),
        np.asarray(positions, dtype=float),
        SpectralParameter(lam_norm),
        radius,
    )


def test_observable_basics():
    a = Observable({(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    assert a.l1_norm == 2.0
    assert a.mean == 1.0
    assert a.nonzero_shifts() == [(-1, 0), (1, 0)]
    with pytest.raises(ValidationError):
        Observable({(1, 0): 0.5})  # missing the conjugate partner
    with pytest.raises(ValidationError):
        Observable({})


def test_observable_json_round_trip():
    a = Observable({(0, 0): 1.0, (2, -1): 0.25 + 0.1j, (-2, 1): 0.25 - 0.1j})
    back = Observable.from_json(a.to_json())
    assert back.coeffs == a.coeffs


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


@pytest.mark.parametrize(
    "d,positions",
    [([1.0], [[0.1, 0.2], [0.5, 0.7]]), ([0.6, 0.8], [[0.1, 0.2]]),
     ([[0.6], [0.8]], [[0.1, 0.2], [0.5, 0.7]])],
    ids=["one_for_two", "two_for_one", "column"],
)
def test_field_requires_one_coefficient_per_position(d, positions):
    # a length-1 vector would otherwise broadcast over every scatterer
    with pytest.raises(ValidationError, match="one coefficient per position"):
        small_field(d, positions)


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
    assert a == pytest.approx(float(np.sum(np.abs(f.values[on_shell]) ** 2)), rel=1e-12)
    assert a + r == f.norm_sq  # exact by construction
    # annulus sticking out of the ball without swallowing it: rejected
    with pytest.raises(ValidationError):
        split_annulus(f, 150, FOUR_PI_SQ * 60.0)
    # on the |xi|^2 <= 27 ball, half-widths 2 and 2.5 (times 4pi^2) select
    # the same norms 23..27, inside the ball
    f27 = small_field(d, rng.uniform(size=(2, 2)), radius=27)
    assert split_annulus(f27, 25, 2.5 * FOUR_PI_SQ) == split_annulus(f27, 25, 2 * FOUR_PI_SQ)


def _check_against_direct_exponentials(d, x, lam, radius_sq):
    shells = ShellSums.get(x.shape[1], radius_sq)
    f = assemble_field(d, x, lam, radius_sq)
    assert f.shells is shells
    direct = np.exp(-2j * math.pi * (shells.pts @ x.T)) @ d
    assert np.max(np.abs(f.weights - direct)) <= 1e-12 * np.max(np.abs(direct))
    c = 1.0 / (FOUR_PI_SQ * shells.norms.astype(float) - lam.physical)
    assert np.max(np.abs(f.values - c * direct)) <= 1e-12 * np.max(np.abs(c * direct))
    w_sq = f.box_weights_sq[f.positions]
    assert np.max(np.abs(w_sq - np.abs(direct) ** 2)) <= 1e-12 * np.max(np.abs(direct) ** 2)
    # the stored rows hold D = 0 outside the ball
    outside = np.ones(f.box_values.size, dtype=bool)
    outside[f.positions] = False
    assert not np.any(f.box_values[outside])
    assert f.norm_sq == pytest.approx(float(np.sum(np.abs(f.values) ** 2)), rel=1e-13)
    return f


def test_field_matches_direct_exponentials():
    # the box assembly against e_xi(-x_j) summed point by point, for complex
    # and real coefficients; the d = 3 ball at R = 900 takes several row
    # blocks of one_thread_matmul
    rng = np.random.default_rng(8)
    for dim, radius_sq, n in ((2, 400, 1), (2, 400, 2), (2, 400, 3), (2, 400, 8), (3, 400, 3),
                              (3, 900, 8), (2, 16058, 8)):
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d /= np.linalg.norm(d)
        x = rng.uniform(size=(n, dim))
        if radius_sq == 900:
            side = ShellSums.get(dim, radius_sq).box_shape[-1]
            assert side ** (dim - 1) * 2 * side * 2 * n > 4 * ONE_THREAD_GEMM
        f = _check_against_direct_exponentials(d, x, SpectralParameter(9.4), radius_sq)
        shells = f.shells
        assert f.first == 0 and f.box_values.size == shells.box_size
        assert np.array_equal(f.positions, shells.ball_order())
        assert np.all(f.row_weights == 1.0)
        # real coefficients, as every solver root has, make the field
        # Hermitian: only the rows xi_0 >= 0 are stored, a point xi with
        # xi_0 < 0 reads the position of -xi, and a stored row other than
        # xi_0 = 0 stands for its mirror too; the stored row xi_0 = 0 is
        # its own mirror only to rounding
        real = d.real / np.linalg.norm(d.real)
        f = _check_against_direct_exponentials(real, x, SpectralParameter(9.4), radius_sq)
        half, side = shells.half, shells.box_shape[0]
        assert f.first == half and f.shape == (half + 1,) + (side,) * (dim - 1)
        assert f.box_values.size == f.box_weights_sq.size == (half + 1) * side ** (dim - 1)
        flip = f.pts[:, 0] < 0
        mirror = np.ravel_multi_index(tuple((half - f.pts[flip]).T), shells.box_shape)
        assert np.array_equal(f.positions[flip], mirror - half * side ** (dim - 1))
        stored = shells.ball_order()[~flip]
        assert np.array_equal(f.positions[~flip], stored - half * side ** (dim - 1))
        assert f.row_weights.ravel().tolist() == [1.0] + [2.0] * half
        row = f.box_values.reshape(half + 1, -1)[0]
        assert np.max(np.abs(row - np.conj(row[::-1]))) <= 1e-15 * np.max(np.abs(row))


def test_a_field_owns_its_box_arrays():
    # a field's arrays outlive the field object: the next field on the same
    # ball must not be written into them
    positions = np.array([[0.37, 0.11], [0.73, 0.52]])
    args = (np.array([0.6, 0.8j]), positions, SpectralParameter(25.4), 200)
    values = assemble_field(*args).box_values
    weights_sq = assemble_field(*args).box_weights_sq
    kept = values.copy()
    other = assemble_field(np.array([0.8, 0.6j]), np.array([[0.1, 0.2], [0.5, 0.9]]), *args[2:])
    assert not np.shares_memory(values, other.box_values)
    assert not np.shares_memory(weights_sq, other.box_weights_sq)
    assert np.array_equal(values, kept)


def _copy_at_offset(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of the flat array a whose data starts offset bytes past a
    64-byte boundary."""
    raw = np.empty(a.nbytes + 64 + offset, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start : start + a.nbytes].view(a.dtype)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def test_field_bits_do_not_depend_on_array_alignment():
    # the same field with its box arrays copied to 8, 16 and 48 bytes past a
    # 64-byte boundary: every number a trial reads from it must be the same
    # bits wherever its arrays live (thread-count reproducibility)
    rng = np.random.default_rng(31)
    for dim, radius_sq, n, real in ((2, 16058, 8, False), (3, 900, 8, False), (2, 16058, 8, True),
                                    (3, 900, 8, True)):
        d = rng.normal(size=n) + (0.0 if real else 1j * rng.normal(size=n))
        d /= np.linalg.norm(d)
        x = rng.uniform(size=(n, dim))
        # no unit shift of the annulus lands on an endpoint shell of these gaps
        tri = enumerate_spectrum(dim, radius_sq).gap_triple({2: 130, 3: 210}[dim])
        width = FOUR_PI_SQ * 3.5
        f = assemble_field(d, x, SpectralParameter(tri.center + 0.37), radius_sq)
        unit = [0] * (dim - 1)
        shifts = [(1, *unit), (0, *unit[:-1], 1), (0, *unit[:-1], -1), (2, *unit), (3, -2, *unit[1:]),
                  (-1, 2, *unit[1:]), (-3, -1, *unit[1:])]
        a_shifts = [(1, *unit), (0, *unit[:-1], 1)]

        def readings(g):
            rows = g.box_values.view(np.float64).reshape(*g.shape[:-1], 2 * g.shape[-1])
            return (
                _box_dot(rows, rows, g.row_weights),
                [correlation_sum(g, zeta) for zeta in shifts],
                split_annulus(g, tri.center, width),
                [functional_A(g, zeta, tri, width) for zeta in a_shifts],
                functional_B(g, tri),
                functional_C(g, tri, width),
            )

        want = readings(f)
        assert want[0] == f.norm_sq
        for offset in (8, 16, 48):
            moved = dataclasses.replace(f, box_values=_copy_at_offset(f.box_values, offset),
                                        box_weights_sq=_copy_at_offset(f.box_weights_sq, offset))
            assert readings(moved) == want


def test_correlation_sum_matches_ball_order_oracle():
    # complex coefficients store the whole box, real ones the rows xi_0 >= 0
    # (a Hermitian field), where zeta_0 >= 2 reads the band of rows below
    rng = np.random.default_rng(19)
    for dim, radius_sq, real in ((2, 200, False), (3, 60, False), (2, 200, True), (3, 60, True)):
        d = rng.normal(size=3) + (0.0 if real else 1j * rng.normal(size=3))
        d /= np.linalg.norm(d)
        f = small_field(d, rng.uniform(size=(3, dim)), lam_norm=25.4, radius=radius_sq)
        assert f.first == (f.shells.half if real else 0)
        lookup = {tuple(p): v for p, v in zip(f.pts.tolist(), f.values.tolist())}
        side = f.shells.box_shape[0]
        unit = [0] * (dim - 1)
        # inside the ball, across its edge, and beyond the box
        shifts = [(1, *unit), (2, -1, *unit[1:]), (0, *unit[:-1], 3), (side - 1, *unit),
                  (side - 3, 1, *unit[1:])]
        for zeta in shifts:
            acc = 0.0 + 0.0j
            scale = 0.0
            for p, v in lookup.items():
                q = tuple(a + b for a, b in zip(p, zeta))
                if q in lookup:
                    acc += v * np.conj(lookup[q])
                    scale += abs(v) * abs(lookup[q])
            assert scale > 0
            s = correlation_sum(f, zeta)
            assert abs(s - acc) <= 1e-12 * scale
            assert correlation_sum(f, tuple(-z for z in zeta)) == s.conjugate()
        for zeta in ((side, *unit), (0, *unit[:-1], -side), (3 * side, 1, *unit[1:])):
            assert correlation_sum(f, zeta) == 0.0
        assert correlation_sum(f, (0,) * dim) == f.norm_sq
        with pytest.raises(ValidationError):
            correlation_sum(f, (1,) * (dim + 1))


def _abs_correlation(f, zeta):
    """sum over xi of |D(xi)| |D(xi + zeta)|: the scale of S_zeta's rounding."""
    half, side = f.shells.half, f.shells.box_shape[0]
    box = np.zeros(f.shells.box_shape)
    box[tuple((f.pts + half).T)] = np.abs(f.values)
    src = tuple(slice(max(-z, 0), side - max(z, 0)) for z in zeta)
    dst = tuple(slice(max(z, 0), side - max(-z, 0)) for z in zeta)
    return float(np.sum(box[src] * box[dst]))


@pytest.mark.parametrize("dim,radius_sq,m_center,a_shifts", [(2, 200, 25, [(2, 0), (0, 2), (3, 0)]),
                                                             (3, 120, 50, [(3, 0, 0)])])
def test_global_phase_leaves_every_reading_unchanged(dim, radius_sq, m_center, a_shifts):
    # a real d stores the rows xi_0 >= 0 of its Hermitian field; e^{i pi/4} d
    # has the same |g| and the same correlations but stores the whole box,
    # so the two storages of one field must agree on everything read from it
    rng = np.random.default_rng(53 + dim)
    d = rng.normal(size=4)
    d /= np.linalg.norm(d)
    x = rng.uniform(size=(4, dim))
    tri = enumerate_spectrum(dim, radius_sq).gap_triple(m_center)
    lam = SpectralParameter(tri.center + 0.41)
    half_box = assemble_field(d, x, lam, radius_sq)
    full_box = assemble_field(np.exp(0.25j * math.pi) * d, x, lam, radius_sq)
    half, side = half_box.shells.half, half_box.shells.box_shape[0]
    assert (half_box.first, full_box.first) == (half, 0)

    def close(a, b, scale):
        assert abs(a - b) <= 1e-13 * scale

    norm = half_box.norm_sq
    close(norm, full_box.norm_sq, norm)
    width = 30.0
    for got, want in zip(split_annulus(half_box, tri.center, width),
                         split_annulus(full_box, tri.center, width)):
        close(got, want, norm)
    close(functional_B(half_box, tri), functional_B(full_box, tri), functional_B(full_box, tri))
    c = functional_C(full_box, tri, width)
    assert c > 0
    close(functional_C(half_box, tri, width), c, c)
    for zeta in a_shifts:
        a = functional_A(full_box, zeta, tri, width)
        assert a > 0
        close(functional_A(half_box, zeta, tri, width), a, a)

    unit = (0,) * (dim - 2)
    shifts = [
        (0, 1, *unit), (0, -2, *unit), (0, *unit, 3),  # zeta_0 = 0
        (1, 0, *unit), (1, -3, *unit),  # zeta_0 = 1
        (2, 1, *unit), (5, -2, *unit), (half, 1, *unit), (half + 1, 0, *unit),  # the band
        (-1, 0, *unit), (-3, 2, *unit), (0, -1, *unit),  # negative
        (side - 2, 1, *unit), (half + 2, -half, *unit), (2, side - 1, *unit),  # across the edge
    ]
    for zeta in shifts:
        scale = _abs_correlation(full_box, zeta)
        assert scale > 0
        s = correlation_sum(half_box, zeta)
        close(s, correlation_sum(full_box, zeta), scale)
        opposite = tuple(-z for z in zeta)
        assert correlation_sum(half_box, opposite) == s.conjugate()
        assert correlation_sum(full_box, opposite) == correlation_sum(full_box, zeta).conjugate()
    for zeta in ((side, 0, *unit), (0, -side, *unit), (-side - 1, 2, *unit), (3 * side, 1, *unit)):
        assert correlation_sum(half_box, zeta) == correlation_sum(full_box, zeta) == 0.0
    one = Observable({(0,) * dim: 1.0})
    assert pair_with_observable(half_box, one) == pair_with_observable(full_box, one) == 1.0


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
    # (0,5)+(1,0) has norm 26 = the upper endpoint shell; the landing is
    # cached with the shift's weights and raised on every call
    for field in (f, f, small_field([1.0], [[0.1, 0.2]], lam_norm=25.6)):
        with pytest.raises(NonSPrimeError):
            functional_A(field, (1, 0), tri, 30.0)
        functional_A(field, (2, 0), tri, 30.0)


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
    assert shell_vectors(2, 25)[0].tolist() == [-5, 0]
    # xi_0 is a shell's first ball point: the ball lists each shell in the
    # lexicographic order of shell_vectors
    for dim, radius_sq, ms in ((2, 200, (0, 25, 50, 200)), (3, 400, (0, 5, 101, 400))):
        shells = ShellSums.get(dim, radius_sq)
        for m in ms:
            s = int(np.searchsorted(shells.shell_ms, m))
            assert shells.pts[shells.starts[s]].tolist() == shell_vectors(dim, m)[0].tolist()
    rng = np.random.default_rng(8)
    d = rng.normal(size=4) + 1j * rng.normal(size=4)
    d /= np.linalg.norm(d)
    f = small_field(d, rng.uniform(size=(4, 2)), lam_norm=25.3)
    b = functional_B(f, tri)
    w = f.weights[f.pts.tolist().index([-5, 0])]
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


def _functional_A_oracle(f, zeta, tri, width):
    acc = 0.0
    for xi, m, w in zip(f.pts.tolist(), f.norms.tolist(), f.weights.tolist()):
        if FOUR_PI_SQ * abs(m - tri.center) > width:
            continue
        ms = sum((a + b) ** 2 for a, b in zip(xi, zeta))
        assert ms < tri.center or ms > tri.next, "unexpected endpoint landing"
        n_end = tri.n_center if ms < tri.center else tri.n_next
        acc += abs(w) ** 2 / (FOUR_PI_SQ * ms - n_end) ** 2
    return acc


def _functional_C_oracle(f, tri, width):
    acc = 0.0
    for m, w in zip(f.norms.tolist(), f.weights.tolist()):
        if FOUR_PI_SQ * abs(m - tri.center) <= width or tri.center <= m <= tri.next:
            continue
        n_end = tri.n_center if m < tri.center else tri.n_next
        acc += abs(w) ** 2 / (FOUR_PI_SQ * m - n_end) ** 2
    return acc


def test_cached_weights_serve_every_interval_and_width():
    # one ball, two (interval, width) pairs in turn, two fields: every A
    # and C read from the per-ball cache equals a fresh point-by-point sum
    table = enumerate_spectrum(2, 200)
    cases = [(table.gap_triple(25), 30.0, (2, 0)), (table.gap_triple(50), 45.0, (0, 3))]
    rng = np.random.default_rng(61)
    for _ in range(2):
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        d /= np.linalg.norm(d)
        pos = rng.uniform(size=(3, 2))
        for tri, width, zeta in cases + cases:
            f = small_field(d, pos, lam_norm=tri.center + 0.4)
            a_oracle = _functional_A_oracle(f, zeta, tri, width)
            assert functional_A(f, zeta, tri, width) == pytest.approx(a_oracle, rel=1e-12)
            c_oracle = _functional_C_oracle(f, tri, width)
            assert functional_C(f, tri, width) == pytest.approx(c_oracle, rel=1e-12)


def test_sigma_sum():
    table = enumerate_spectrum(2, 200)
    tri = table.gap_triple(25)
    shells = ShellSums.get(2, 200)
    width = 30.0
    val, bound = sigma_sum(shells, tri, width, (2, 0))
    assert val > 0
    assert bound == pytest.approx(12 / width**2)
    assert val <= 4.0 * bound
    # oracle: the two-branch weights summed over lattice.annulus_points
    shifted = ((annulus_points(table, 25, width) + (2, 0)) ** 2).sum(axis=1)
    terms = [
        1.0 / (FOUR_PI_SQ * m - FOUR_PI_SQ * (tri.center if m < tri.center else tri.next)) ** 2
        for m in shifted.tolist()
        if not tri.center <= m <= tri.next
    ]
    assert val == math.fsum(terms)
    # central symmetry of the zero-shift annulus
    val_neg, _ = sigma_sum(shells, tri, width, (-2, 0))
    assert val_neg == pytest.approx(val, rel=1e-14)
    with pytest.raises(ValidationError):
        sigma_sum(shells, tri, width, (0, 0))
    # 4pi^2 * (233 - 25) <= width: the annulus is the whole |xi|^2 <= 233 ball
    big = enumerate_spectrum(2, 20000)
    width = FOUR_PI_SQ * 208
    _, bound = sigma_sum(ShellSums.get(2, 20000), big.gap_triple(25), width, (1, 0))
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
    err, env = equidistribution_error(f, const, 17.0 / 832.0, 1)
    assert err == 0.0
    a = Observable({(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    err, env = equidistribution_error(f, a, 17.0 / 832.0, 1)
    assert err <= 2.0 * a.l1_norm
    assert env == pytest.approx(
        2.0 * f.lam.physical ** (-17.0 / 832.0), rel=1e-12
    )


def test_equidistribution_error_keeps_its_own_precision():
    # with ahat(+-1, 0) = 1e-20 the deviation is about 1e-20: adding the mean
    # 1 and subtracting it again would round it to exactly 0
    f = small_field([0.6, 0.8], [[0.33, 0.71], [0.12, 0.45]], lam_norm=25.4)
    a = Observable({(0, 0): 1.0, (1, 0): 1e-20, (-1, 0): 1e-20})
    terms = [v * correlation_sum(f, zeta) / f.norm_sq for zeta, v in a.coeffs.items() if any(zeta)]
    want = abs(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)))
    assert want > 1e-22
    err, _ = equidistribution_error(f, a, 17.0 / 832.0, 2)
    assert err == pytest.approx(want, rel=1e-14, abs=0.0)


def test_equidistribution_envelope_frozen_value():
    # N = 4, l1 = 1, lambda = 4 pi^2 * 10^4, gamma = 17/832
    lam = SpectralParameter(10**4)
    env = 1.0 * math.sqrt(4) * lam.physical ** (-17.0 / 832.0)
    assert env == pytest.approx(1.5370263012755337, abs=1e-12)
