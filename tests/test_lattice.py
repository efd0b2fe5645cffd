import math

import numpy as np
import pytest

from deltatorus.errors import OnSpectrumError, OutOfRangeError, ValidationError
from deltatorus.greens import ShellSums
from deltatorus.lattice import (
    FOUR_PI_SQ,
    GapTriple,
    SpectrumTable,
    annulus_norms,
    annulus_points,
    annulus_range,
    bad_set_test,
    enumerate_spectrum,
    shell_vectors,
)

from conftest import brute_counts_d2, brute_counts_d3


def test_enumeration_matches_brute_force_d2(table_d2_small):
    counts = brute_counts_d2(300)
    for m in range(301):
        assert table_d2_small.multiplicity(m) == counts[m]
    nonzero = np.nonzero(counts)[0]
    assert np.array_equal(table_d2_small.ms, nonzero)


def test_enumeration_matches_brute_force_d3(table_d3_small):
    counts = brute_counts_d3(60)
    for m in range(61):
        assert table_d3_small.multiplicity(m) == counts[m]


def test_small_table_examples():
    t = enumerate_spectrum(2, 10)
    assert t.ms.tolist() == [0, 1, 2, 4, 5, 8, 9, 10]
    assert t.rs.tolist() == [1, 4, 4, 4, 8, 4, 4, 8]

    t3 = enumerate_spectrum(3, 8)
    assert t3.ms.tolist() == [0, 1, 2, 3, 4, 5, 6, 8]
    assert t3.multiplicity(5) == 24

    t0 = enumerate_spectrum(2, 0)
    assert t0.ms.tolist() == [0] and t0.rs.tolist() == [1]


def test_enumeration_rejects_bad_dim():
    with pytest.raises(ValidationError):
        enumerate_spectrum(4, 10)


def test_multiplicity_queries(table_d2_small):
    assert table_d2_small.multiplicity(25) == 12
    assert table_d2_small.multiplicity(3) == 0
    assert table_d2_small.multiplicity(0) == 1
    with pytest.raises(OutOfRangeError):
        table_d2_small.multiplicity(301)


def test_circle_count(table_d2_small, table_d3_small):
    count, rem = table_d2_small.circle_count(100)
    assert count == 317
    assert rem == pytest.approx(317 - 100 * math.pi)

    count, rem = table_d2_small.circle_count(0)
    assert count == 1 and rem == 1.0

    count, rem = table_d3_small.circle_count(16)
    assert rem == pytest.approx(count - (4 * math.pi / 3) * 16**1.5)


def test_circle_remainder_envelope():
    # remainder well inside the coarse envelope built on the circle-law
    # exponent bumped up to 0.35
    t = enumerate_spectrum(2, 10**4)
    for x in (10**3, 10**4):
        _, rem = t.circle_count(x)
        assert abs(rem) <= 12.0 * x**0.35


def test_neighbors(table_d2_small):
    assert table_d2_small.neighbors(9.5) == GapTriple(8, 9, 10)
    assert table_d2_small.neighbors(2.5) == GapTriple(1, 2, 4)
    with pytest.raises(OnSpectrumError):
        table_d2_small.neighbors(9.0)
    with pytest.raises(OutOfRangeError):
        table_d2_small.neighbors(0.5)  # below the first usable gap
    with pytest.raises(OutOfRangeError):
        table_d2_small.neighbors(10**6)


def test_neighbors_triple_is_consecutive(table_d2_small):
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = float(rng.uniform(2.0, 290.0))
        if table_d2_small.contains(int(lam)) and lam == int(lam):
            continue
        tri = table_d2_small.neighbors(lam)
        assert tri.center < lam < tri.next
        between = table_d2_small.norms_in(tri.prev + 1, tri.next - 1)
        assert between.tolist() == [tri.center]


def test_gap_triple_requires_neighbors(table_d2_small):
    with pytest.raises(OutOfRangeError):
        table_d2_small.gap_triple(0)
    with pytest.raises(ValidationError):
        table_d2_small.gap_triple(3)


def test_annulus_points(table_d2_small):
    pts = annulus_points(table_d2_small, 25, 1.5 * FOUR_PI_SQ)
    assert pts.shape == (20, 2)
    assert sorted(set((pts**2).sum(axis=1).tolist())) == [25, 26]

    tight = annulus_points(table_d2_small, 25, 0.5 * FOUR_PI_SQ)
    assert tight.shape == (12, 2)
    assert set((tight**2).sum(axis=1).tolist()) == {25}

    with pytest.raises(ValidationError):
        annulus_points(table_d2_small, 25, 0.0)
    with pytest.raises(ValidationError):
        annulus_points(table_d2_small, 3, 1.5 * FOUR_PI_SQ)  # 3 is not a norm


def test_annulus_boundary_exactness(table_d2_small):
    # the last case has 25 + width / 4pi^2 = 232.99999999999997 < 233 in
    # floating point, although 4pi^2 * |233 - 25| <= width holds exactly
    cases = [(table_d2_small, 1.5 * FOUR_PI_SQ, range(20, 31)),
             (enumerate_spectrum(2, 20000), FOUR_PI_SQ * 208, range(0, 301))]
    for table, width, window in cases:
        inside = set(annulus_norms(table, 25, width).tolist())
        for m in table.norms_in(window.start, window.stop - 1).tolist():
            should = FOUR_PI_SQ * abs(m - 25) <= width
            assert (m in inside) == should, (width, m)
        # nothing just beyond the boundary sneaks in
        for m in inside:
            assert FOUR_PI_SQ * abs(m - 25) <= width
    assert 233 in inside


def test_annulus_points_in_ball_order():
    # ball order (by norm, then lexicographic) is the order of ShellSums.pts,
    # so the annulus is one contiguous slice of the truncation ball
    for dim, radius_sq, m_center, width in [
        (2, 16058, 10036, (FOUR_PI_SQ * 10036) ** 0.3),
        (2, 16058, 10036, 3.5 * FOUR_PI_SQ),
        (3, 400, 101, 3.0 * FOUR_PI_SQ),
    ]:
        shells = ShellSums.get(dim, radius_sq)
        lo, hi = annulus_range(shells.norms, m_center, width)
        pts = annulus_points(enumerate_spectrum(dim, radius_sq), m_center, width)
        assert pts.shape[0] > 0
        assert np.array_equal(pts, shells.pts[lo:hi])


def test_bad_set():
    assert bad_set_test((0, 7), (1, 0), 0.1) is True
    assert bad_set_test((5, 0), (1, 0), 0.1) is False
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        # (-b, a) is orthogonal to (a, b)
        assert bad_set_test((-b, a), (a, b), 0.25) is True
    with pytest.raises(ValidationError):
        bad_set_test((1, 2), (0, 0), 0.1)
    with pytest.raises(ValidationError):
        bad_set_test((1, 2), (1, 0), 0.6)


def test_cumulative_counts_match_brute(table_d2_small):
    counts = brute_counts_d2(300)
    cum = np.cumsum(counts)
    for x in (1, 2, 10, 77, 123, 300):
        assert table_d2_small.circle_count(x)[0] == cum[x]


def test_shell_vectors():
    v = shell_vectors(2, 25)
    assert v.shape == (12, 2)
    assert np.all((v**2).sum(axis=1) == 25)
    assert sorted(map(tuple, v.tolist())) == list(map(tuple, v.tolist()))
    assert shell_vectors(2, 3).shape == (0, 2)
    assert shell_vectors(3, 5).shape == (24, 3)


def test_round_trip_csv(tmp_path, table_d2_small):
    path = tmp_path / "spec.csv"
    table_d2_small.save_csv(path)
    loaded = SpectrumTable.load_csv(path, 2, 300)
    assert np.array_equal(loaded.ms, table_d2_small.ms)
    assert np.array_equal(loaded.rs, table_d2_small.rs)
    # bit-exact text round trip
    assert loaded.to_csv_text() == table_d2_small.to_csv_text()


def test_enumeration_is_deterministic():
    a = enumerate_spectrum(2, 500)
    b = enumerate_spectrum(2, 500)
    assert np.array_equal(a.ms, b.ms) and np.array_equal(a.rs, b.rs)


def test_density_corridor():
    # distinct-norm counting stays inside the coarse thin-sequence corridor
    t = enumerate_spectrum(2, 10**6)
    for x in (10**3, 10**4, 10**5, 10**6):
        count = int(np.searchsorted(t.ms, x, side="right"))
        ratio = count * math.sqrt(math.log(x)) / x
        assert 0.5 <= ratio <= 1.1, (x, ratio)
