import json
import math

import numpy as np
import pytest

from deltatorus import harness, scatterer
from deltatorus.errors import (
    DegenerateExtensionError,
    NumericError,
    OnSpectrumError,
    ValidationError,
)
from deltatorus.greens import ShellSums, SpectralParameter, regularized_pair
from deltatorus.harness import RunContext, TrialSpec, measure_config, sample_positions
from deltatorus.lattice import FOUR_PI_SQ, enumerate_spectrum
from deltatorus.scatterer import (
    NEAR_RATIO,
    ScattererConfig,
    SecularWorkspace,
    _gap_record,
    find_new_eigenvalues,
    secular_value,
)

R = 4000


def matrix_at(cfg, lam, radius_sq=R):
    """The N x N spectral matrix M[k, j] = R+(x_k, x_j) + e^{-i theta} R-(x_k, x_j)
    at one off-spectrum parameter, with R+- from the cosine path of
    ShellSums.weights (regularized_pair), entry by entry: the oracle for H."""
    x, n = cfg.positions, cfg.n_scatterers
    r_plus, r_minus = (
        np.array([[regularized_pair(x[k], x[j], lam, sign, radius_sq).value for j in range(n)]
                  for k in range(n)])
        for sign in (1, -1)
    )
    return r_plus + np.exp(-1j * cfg.theta) * r_minus


def workspace_at(cfg, x, radius_sq=R):
    """The workspace of cfg on the gap of the ball that holds the physical x."""
    shells = ShellSums.get(cfg.dim, radius_sq)
    m_k = shells.shell_ms[int(np.searchsorted(shells.ns_physical, x)) - 1]
    return SecularWorkspace(cfg, radius_sq, m_k)


def h_at(cfg, lam, radius_sq=R):
    """The real symmetric H of the workspace at one off-spectrum parameter."""
    return workspace_at(cfg, lam.physical, radius_sq).symmetric(lam.physical)[0]


def closed_form(shells: ShellSums, theta: float, lam_physical: float) -> float:
    """One-scatterer secular function: sum over shells of
    r(m) [ (n - lambda)^{-1} - (n - tan(theta/2)) / (n^2 + 1) ]."""
    ns = shells.ns_physical
    t = math.tan(theta / 2.0)
    return math.fsum(shells.mult * (1.0 / (ns - lam_physical) - (ns - t) / (ns**2 + 1.0)))


def closed_form_root(shells, theta, interval, rel_tol=1e-13):
    """Bisection on the strictly increasing secular function."""
    a = interval.n_center * (1.0 + 1e-12)
    b = interval.n_next * (1.0 - 1e-12)
    fa, fb = closed_form(shells, theta, a), closed_form(shells, theta, b)
    assert fa < 0 < fb, "secular function must ascend through the gap"
    while b - a > rel_tol * b:
        mid = 0.5 * (a + b)
        if closed_form(shells, theta, mid) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def one_scatterer(theta=0.0):
    return ScattererConfig(2, np.array([[0.37, 0.11]]), phases=np.array([theta]))


def test_symbolic_reduction_identity():
    # ((n - i)^{-1} + e^{-i t} (n + i)^{-1}) / (1 + e^{-i t})
    #   == (n - tan(t/2)) / (n^2 + 1)
    import sympy as sp

    n, t = sp.symbols("n t", real=True)
    lhs = (1 / (n - sp.I) + sp.exp(-sp.I * t) / (n + sp.I)) / (1 + sp.exp(-sp.I * t))
    rhs = (n - sp.tan(t / 2)) / (n**2 + 1)
    assert sp.simplify(sp.together(sp.expand_complex(lhs - rhs)).rewrite(sp.tan)) == 0


def test_config_validation():
    pos = [[0.1, 0.2], [0.3, 0.4]]
    with pytest.raises(ValidationError):
        ScattererConfig(2, np.array([[0.1, 0.2], [0.1, 0.2]]), phases=np.zeros(2))
    with pytest.raises(DegenerateExtensionError):
        ScattererConfig(2, np.array([[0.1, 0.2]]), phases=np.array([math.pi]))
    for positions, phases in (
        (pos, [0.0, 0.4]),  # distinct phases
        (pos, [0.0]), (pos, [0.0, 0.0, 0.0]), (pos, [[0.0, 0.0]]),  # one phase per scatterer
        (pos, [0.0, math.nan]), (pos, [math.inf, math.inf]), (pos, [True, True]),
        (pos, ["0", "0"]), (pos, None),
        ([[0.1, math.nan], [0.3, 0.4]], [0.0, 0.0]), ([[0.1, math.inf], [0.3, 0.4]], [0.0, 0.0]),
        ([[0.1, 0.2, 0.5], [0.3, 0.4, 0.6]], [0.0, 0.0]), ([[0.1, "x"], [0.3, 0.4]], [0.0, 0.0]),
        (np.zeros((0, 2)), []),
    ):
        with pytest.raises(ValidationError):
            ScattererConfig(2, positions, phases)
    with pytest.raises(ValidationError):
        ScattererConfig(2.0, pos, [0.0, 0.0])
    cfg = ScattererConfig(2, np.array(pos), phases=np.zeros(2))
    assert cfg.n_scatterers == 2 and cfg.theta == 0.0
    # theta is the angle of e^{i theta_0}; phases equal modulo 2 pi are one phase
    cfg = ScattererConfig(2, pos, [0.3 + 2 * math.pi, 0.3])
    assert cfg.theta == math.atan2(math.sin(0.3 + 2 * math.pi), math.cos(0.3 + 2 * math.pi))
    assert cfg.theta == pytest.approx(0.3, abs=1e-15)
    good = {"dim": 2, "positions": pos, "u": {"phases": [0.0, 0.0]}}
    assert ScattererConfig.from_json(good).theta == 0.0
    for bad in (
        {"dim": 2, "positions": pos},  # no "u"
        {"dim": 2, "positions": pos, "u": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}},
        {"dim": 2, "positions": pos, "u": {"phases": [0.0, 0.0], "matrix": None}},
        {"dim": 2, "positions": pos, "u": [0.0, 0.0]},
        {"dim": 2, "positions": pos, "u": {"phases": [0.0, 0.0]}, "extra": 1},
        {"positions": pos, "u": {"phases": [0.0, 0.0]}},
        [2, pos],
    ):
        with pytest.raises(ValidationError):
            ScattererConfig.from_json(bad)


def test_config_json_round_trip(tmp_path):
    cfg = ScattererConfig(2, np.array([[0.12, 0.9], [0.5, 0.25]]), phases=np.array([-0.4, -0.4]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
    back = ScattererConfig.load(path)
    assert np.array_equal(back.positions, cfg.positions)
    assert np.array_equal(back.phases, cfg.phases) and back.theta == cfg.theta
    assert back.to_json() == cfg.to_json()


@pytest.mark.parametrize("theta", [0.0, 0.7, -2.0])
def test_one_scatterer_matrix_matches_closed_form(theta):
    cfg = one_scatterer(theta)
    shells = ShellSums.get(2, 4000)
    for lam_norm in (9.4, 50.3, 120.7):
        lam = SpectralParameter(lam_norm)
        want = closed_form(shells, theta, lam.physical)
        m = matrix_at(cfg, lam)[0, 0]
        normalized = m / (1.0 + np.exp(-1j * theta))
        assert normalized.imag == pytest.approx(0.0, abs=1e-10 * abs(normalized))
        assert normalized.real == pytest.approx(want, rel=1e-12)
        assert h_at(cfg, lam)[0, 0] == pytest.approx(want, rel=1e-12)


def test_matrix_position_independent_for_one_scatterer():
    # a single scatterer only sees the coincidence value
    lam = SpectralParameter(9.4)
    m1 = h_at(one_scatterer(0.3), lam)
    cfg2 = ScattererConfig(2, np.array([[0.81, 0.64]]), phases=np.array([0.3]))
    m2 = h_at(cfg2, lam)
    assert m1[0, 0] == pytest.approx(m2[0, 0], rel=1e-14)


def test_swap_symmetry_identity_extension():
    lam = SpectralParameter(9.4)
    x1, x2 = [0.1, 0.3], [0.55, 0.82]
    a = h_at(ScattererConfig(2, np.array([x1, x2]), phases=np.zeros(2)), lam)
    b = h_at(ScattererConfig(2, np.array([x2, x1]), phases=np.zeros(2)), lam)
    perm = np.array([[0, 1], [1, 0]], dtype=float)
    assert np.allclose(perm @ a @ perm, b, rtol=1e-12, atol=1e-14)


def test_translation_invariance_of_entries():
    lam = SpectralParameter(9.4)
    pos = np.array([[0.1, 0.3], [0.55, 0.82]])
    shift = np.array([0.21, 0.43])
    a = h_at(ScattererConfig(2, pos, phases=np.zeros(2)), lam)
    b = h_at(ScattererConfig(2, pos + shift, phases=np.zeros(2)), lam)
    assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_secular_value_sign_flip_and_smin():
    table = enumerate_spectrum(2, 4000)
    cfg = one_scatterer(0.0)
    tri = table.gap_triple(100)
    shells = ShellSums.get(2, 4000)
    root = closed_form_root(shells, 0.0, tri)
    # det M = (1 + e^{-i theta}) H for one scatterer, and H is real
    scale = 1.0 + np.exp(-1j * cfg.phases[0])
    det_lo = secular_value(cfg, SpectralParameter((root - 1.0) / FOUR_PI_SQ), R)[0] / scale
    det_hi = secular_value(cfg, SpectralParameter((root + 1.0) / FOUR_PI_SQ), R)[0] / scale
    assert det_lo.real < 0 < det_hi.real
    assert abs(det_lo.imag) < 1e-10 * abs(det_lo)
    _, smin = secular_value(cfg, SpectralParameter(root / FOUR_PI_SQ), R)
    assert smin < 1e-10


@pytest.mark.parametrize("dim,radius_sq", [(2, 4000), (3, 400)])
def test_workspace_matrix_against_regularized_pair_oracle(dim, radius_sq):
    # (1 + e^{-i theta}) H[k, j] = R+[k, j] + e^{-i theta} R-[k, j], entry by
    # entry; H and its slope are symmetric, the slope is positive
    # semidefinite and is the derivative of H
    theta = 0.9
    rng = np.random.default_rng(40 + dim)
    cfg = ScattererConfig(dim, rng.uniform(size=(3, dim)), phases=np.full(3, theta))
    lam = SpectralParameter(9.4)
    ws = workspace_at(cfg, lam.physical, radius_sq)
    h, slope = ws.symmetric(lam.physical)
    assert np.array_equal(h, h.T) and np.array_equal(slope, slope.T)
    got = (1.0 + np.exp(-1j * theta)) * h
    want = matrix_at(cfg, lam, radius_sq)
    for k in range(3):
        for j in range(3):
            assert abs(got[k, j] - want[k, j]) <= 1e-12 * abs(want[k, j])
    assert np.linalg.eigvalsh(slope).min() >= -1e-12 * np.abs(slope).max()
    step = 1e-4
    diff = (ws.symmetric(lam.physical + step)[0] - ws.symmetric(lam.physical - step)[0]) / (2 * step)
    assert np.abs(diff - slope).max() <= 1e-6 * np.abs(slope).max()


@pytest.mark.parametrize(
    "dim,radius_sq,m_center", [(2, 16058, 10036), (2, 4000, 100), (3, 400, 101), (3, 2000, 1000)]
)
def test_split_form_against_the_plain_shell_sum(dim, radius_sq, m_center):
    # the near shells exactly plus the far moments give H = c_x @ W - Re G_{+i}
    # + tan(theta/2) Im G_{+i} to rounding across the gap, up to 1e-9 of the
    # gap from either pole, and the slope c_x^2 @ W, positive semidefinite
    theta = -1.3
    tri = enumerate_spectrum(dim, radius_sq).gap_triple(m_center)
    rng = np.random.default_rng(m_center)
    cfg = ScattererConfig(dim, rng.uniform(size=(5, dim)), phases=np.full(5, theta))
    ws = SecularWorkspace(cfg, radius_sq, m_center)
    ns = ws.shells.ns_physical
    rows, cols = np.triu_indices(5)
    w = np.empty((ns.size, rows.size))  # every pair k <= j: E_m(0) = mult_m on the diagonal
    w[:, rows != cols] = ws.shells.weights_many(cfg.positions)
    w[:, rows == cols] = ws.shells.mult[:, None]
    unpack = np.empty((5, 5), dtype=np.intp)
    unpack[rows, cols] = unpack[cols, rows] = np.arange(rows.size)
    g = (-ns / (ns * ns + 1.0)) @ w + math.tan(theta / 2.0) * ((1.0 / (ns * ns + 1.0)) @ w)
    a, b = tri.n_center, tri.n_next
    inner = np.linspace(a, b, 43)[1:-1]
    for x in [*inner, a + 1e-9 * (b - a), b - 1e-9 * (b - a)]:
        h, slope = ws.symmetric(x)
        c = 1.0 / (ns - x)
        assert np.all(np.abs(h - (c @ w + g)[unpack]) <= 1e-13 * (np.abs(c) @ np.abs(w))[unpack])
        assert np.all(np.abs(slope - ((c * c) @ w)[unpack]) <= 1e-13 * ((c * c) @ np.abs(w))[unpack])
        assert np.linalg.eigvalsh(slope).min() >= -1e-13 * np.abs(slope).max()
    for x in inner:
        step = 1e-5 * (b - a)
        diff = (ws.symmetric(x + step)[0] - ws.symmetric(x - step)[0]) / (2 * step)
        slope = ws.symmetric(x)[1]
        assert np.abs(diff - slope).max() <= 1e-6 * np.abs(slope).max()


@pytest.mark.parametrize("dim,radius_sq,m_center", [(2, 4000, 100), (3, 400, 101)])
def test_workspace_with_one_scatterer(dim, radius_sq, m_center):
    # N = 1 has no off-diagonal pair: H and its slope are the closed forms,
    # and the gap holds one root, the closed form's
    theta = 0.7
    cfg = ScattererConfig(dim, np.full((1, dim), 0.3), phases=[theta])
    shells = ShellSums.get(dim, radius_sq)
    tri = enumerate_spectrum(dim, radius_sq).gap_triple(m_center)
    ws = SecularWorkspace(cfg, radius_sq, m_center)
    ns = shells.ns_physical
    for frac in (0.1, 0.5, 0.9):
        x = tri.n_center + frac * (tri.n_next - tri.n_center)
        h, slope = ws.symmetric(x)
        assert h.shape == slope.shape == (1, 1)
        assert h[0, 0] == pytest.approx(closed_form(shells, theta, x), rel=1e-12)
        assert slope[0, 0] == pytest.approx(math.fsum(shells.mult / (ns - x) ** 2), rel=1e-12)
    roots = find_new_eigenvalues(cfg, tri, radius_sq, workspace=ws)
    assert len(roots) == 1
    assert roots[0].lambda_physical == pytest.approx(closed_form_root(shells, theta, tri), rel=1e-10)


def test_gap_rows_are_projected_once_per_ball_and_gap(monkeypatch):
    # the first workspace on a gap builds the gap's record and projects its
    # rows; the ball's memo keeps one record per gap, with the near shells'
    # orthant points and the box projection of the moments and G_{+i} in
    # d = 2, the near slice and the rows in d = 3, and the diagonal: the
    # near multiplicities, then the rows at E_m(0) = mult_m
    for dim, radius_sq, m_center in ((2, 4000, 100), (3, 400, 101)):
        fresh = ShellSums(dim, radius_sq)
        monkeypatch.setattr(ShellSums, "get", classmethod(lambda cls, d, r: fresh))
        project, builds = fresh.project, []
        monkeypatch.setattr(fresh, "project", lambda near, f: builds.append(1) or project(near, f))
        i = int(np.searchsorted(fresh.shell_ms, m_center))
        rng = np.random.default_rng(dim)
        for _ in range(3):
            cfg = ScattererConfig(dim, rng.uniform(size=(4, dim)), np.zeros(4))
            for m_k in (m_center, fresh.shell_ms[i - 1]):
                SecularWorkspace(cfg, radius_sq, m_k)
        assert len(builds) == 2
        kept = {k: v for k, v in fresh._memo.items() if isinstance(k, tuple) and k[0] == "secular"}
        assert set(kept) == {("secular", i), ("secular", i - 1)}
        side, s = fresh.half + 1, fresh.shell_ms.size
        ns, mult = fresh.ns_physical, fresh.mult.astype(np.float64)
        for x0, h, near, dscale, rows, diag in kept.values():
            a = int(np.searchsorted(ns, near[0]))
            assert np.array_equal(ns[a : a + near.size], near)
            r = dscale.size + 3  # P + 1 moments, Re and Im G_{+i}
            assert diag.shape == (near.size + r,)
            assert np.array_equal(diag[: near.size], mult[a : a + near.size])
            g = np.vstack((ns, np.ones(s))) / (ns * ns + 1.0)
            assert np.allclose(diag[-2:], g @ mult, rtol=1e-13, atol=0)
            if dim == 2:
                (coords, weight, starts), box = rows
                assert box.shape == (r * side, side)
                assert starts.size == near.size
                assert np.array_equal(np.add.reduceat(weight, starts), mult[a : a + near.size])
            else:
                assert rows[0] == slice(a, a + near.size) and rows[1].shape == (r, s)
                assert np.array_equal(diag[near.size :], rows[1] @ mult)


def test_acceptance_gap_record():
    # NEAR_RATIO sets the split: at m_k = 10036, R = 16058 the gap keeps 26
    # near shells on 81 orthant points and P = 11, so its box is 14 x 127 x 127
    shells = ShellSums.get(2, 16058)
    x0, h, near, dscale, rows, diag = _gap_record(shells, int(np.searchsorted(shells.shell_ms, 10036)))
    (coords, weight, starts), box = rows
    assert near.size == 26 and weight.size == 81 and dscale.size == 11
    assert box.shape == (14 * 127, 127) and diag.shape == (26 + 14,)
    assert np.all(np.abs(near - x0) <= h / NEAR_RATIO)


def test_split_form_needs_a_shell_on_either_side():
    # a workspace is built on a gap of the ball and read strictly inside it;
    # a parameter on a shell is on the spectrum before it is outside a gap
    cfg = one_scatterer(0.4)
    ws = SecularWorkspace(cfg, R, 0)
    top = ws.shells.ns_physical[-1]
    assert ws.gap == (0.0, FOUR_PI_SQ)
    for x in (-1.0, 0.0, FOUR_PI_SQ, 1.5 * FOUR_PI_SQ, top, top + 1.0, math.nan):
        with pytest.raises(ValidationError):
            ws.symmetric(x)
    for m_k in (ws.shells.shell_ms[-1], 3, -1, R + 1):  # the last shell, no shell
        with pytest.raises(ValidationError):
            SecularWorkspace(cfg, R, m_k)
    with pytest.raises(ValidationError):
        secular_value(cfg, SpectralParameter(-0.5), R)
    for m in (0, 100, 101):
        with pytest.raises(OnSpectrumError):
            secular_value(cfg, SpectralParameter(float(m)), R)


def test_solver_rejects_a_foreign_workspace():
    # a workspace holds one configuration's pair weights on one gap of one
    # ball; any other configuration, radius or gap would get other roots
    tri = enumerate_spectrum(2, 400).gap_triple(100)
    a = ScattererConfig(2, np.array([[0.13, 0.71], [0.42, 0.09]]), phases=np.zeros(2))
    b = ScattererConfig(2, np.array([[0.31, 0.17], [0.24, 0.9]]), phases=np.zeros(2))
    twin = ScattererConfig(2, a.positions, phases=np.zeros(2))
    ws = SecularWorkspace(a, 400, 100)
    x = np.array([[0.1, 0.2, 0.3], [0.6, 0.5, 0.4]])
    ws3 = SecularWorkspace(ScattererConfig(3, x, phases=np.zeros(2)), 400, 100)
    for cfg, radius_sq, workspace in (
        (b, 400, ws), (twin, 400, ws), (a, 401, ws), (a, 400, SecularWorkspace(a, 401, 100)),
        (ScattererConfig(2, x[:, :2], phases=np.zeros(2)), 400, ws3),
        (a, 400, SecularWorkspace(a, 400, 101)), (a, 400, SecularWorkspace(a, 400, 98)),
    ):
        with pytest.raises(ValidationError):
            find_new_eigenvalues(cfg, tri, radius_sq, workspace=workspace)
    own = find_new_eigenvalues(a, tri, 400)
    assert own and [r.lambda_norm for r in find_new_eigenvalues(a, tri, 400, workspace=ws)] == [
        r.lambda_norm for r in own
    ]


def test_solver_radius_must_pass_the_upper_pole():
    # R >= m_{k+1} + 1 on both paths, with or without a prebuilt workspace
    cfg = one_scatterer(0.0)
    tri = enumerate_spectrum(2, 200).gap_triple(100)
    assert tri.next == 101
    with pytest.raises(ValidationError):
        find_new_eigenvalues(cfg, tri, 101)
    with pytest.raises(ValidationError):
        find_new_eigenvalues(cfg, tri, 101, workspace=SecularWorkspace(cfg, 101, 100))
    assert len(find_new_eigenvalues(cfg, tri, 102)) == 1


def test_determinant_continuity_under_refinement():
    cfg = one_scatterer(0.5)
    table = enumerate_spectrum(2, 4000)
    tri = table.gap_triple(100)
    ws = SecularWorkspace(cfg, 4000, 100)
    lams = np.linspace(tri.n_center + 2.0, tri.n_next - 2.0, 9)
    coarse = [ws.symmetric(x)[0][0, 0] for x in lams]
    for i, x in enumerate(lams):
        fine = ws.symmetric(x + 1e-7)[0][0, 0]
        assert abs(fine - coarse[i]) < 1e-4 * max(1.0, abs(coarse[i]))


def test_n1_secular_derivative_positive():
    # derivative sum of c_lambda(xi)^2 > 0: the secular function ascends
    shells = ShellSums.get(2, 4000)
    table = enumerate_spectrum(2, 4000)
    tri = table.gap_triple(100)
    for frac in (0.2, 0.5, 0.8):
        lam = tri.n_center + frac * (tri.n_next - tri.n_center)
        h = 1e-4
        d = (closed_form(shells, 0.3, lam + h) - closed_form(shells, 0.3, lam - h)) / (2 * h)
        assert d > 0


@pytest.mark.parametrize("theta", [0.0, math.pi / 3, -math.pi / 3])
def test_root_matches_closed_form(theta):
    table = enumerate_spectrum(2, 4000)
    cfg = one_scatterer(theta)
    shells = ShellSums.get(2, 4000)
    for m_k in (98, 100, 101):
        tri = table.gap_triple(m_k)
        roots = find_new_eigenvalues(cfg, tri, R, solver_tol=1e-8)
        assert len(roots) == 1
        expected = closed_form_root(shells, theta, tri)
        assert roots[0].lambda_physical == pytest.approx(expected, rel=1e-10)
        assert roots[0].residual <= 1e-8


def test_root_count_bounded_by_rank():
    table = enumerate_spectrum(2, 2000)
    rng = np.random.default_rng(5)
    one_root_always = True
    for trial in range(100):
        n = int(rng.integers(1, 5))
        pos = rng.uniform(size=(n, 2))
        cfg = ScattererConfig(2, pos, phases=np.zeros(n))
        m_k = int(rng.choice([100, 101, 104, 106]))
        tri = table.gap_triple(m_k)
        roots = find_new_eigenvalues(cfg, tri, 2000)
        assert 0 <= len(roots) <= n
        if n == 1 and len(roots) != 1:
            one_root_always = False
        for r in roots:
            assert tri.center < r.lambda_norm < tri.next
            assert abs(float(np.sum(np.abs(r.d) ** 2)) - 1.0) < 1e-12
    assert one_root_always


def _acceptance_gap_fractions(trial_index, n):
    # the acceptance spec: m_k = 10036, R = ceil(1.6 m_k), zero phases
    tri = enumerate_spectrum(2, 16058).gap_triple(10036)
    cfg = ScattererConfig(2, sample_positions(5, trial_index, n, 2), phases=np.zeros(n))
    roots = find_new_eigenvalues(cfg, tri, 16058)
    length = tri.n_next - tri.n_center
    return [(r.lambda_physical - tri.n_center) / length for r in roots]


def test_two_roots_closer_than_a_grid_cell():
    fracs = _acceptance_gap_fractions(12, 4)
    assert len(fracs) == 4
    assert fracs == sorted(fracs)
    assert fracs[2] == pytest.approx(0.98408, abs=5e-6)
    assert fracs[3] == pytest.approx(0.98499, abs=5e-6)


def test_root_next_to_the_upper_pole():
    fracs = _acceptance_gap_fractions(0, 8)
    assert len(fracs) == 8
    assert fracs[-1] == pytest.approx(0.99941, abs=5e-6)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_default_roots_lie_within_tolerance_of_tight_roots(n):
    # acceptance spec: the stopping rule at the default solver_tol leaves
    # every root within solver_tol of the gap length from a 1e-12 solve
    radius = 16058  # ceil(1.6 * 10036)
    tri = enumerate_spectrum(2, radius).gap_triple(10036)
    length = tri.next - tri.center
    for trial in range(4):
        cfg = ScattererConfig(2, sample_positions(11, trial, n, 2), phases=np.zeros(n))
        ws = SecularWorkspace(cfg, radius, tri.center)
        loose = find_new_eigenvalues(cfg, tri, radius, workspace=ws)
        tight = find_new_eigenvalues(cfg, tri, radius, solver_tol=1e-12, workspace=ws)
        assert loose and len(loose) == len(tight)
        for a, b in zip(loose, tight):
            assert abs(a.lambda_norm - b.lambda_norm) <= 1e-8 * length


def test_eigen_solves_per_root_search(monkeypatch):
    # mean eigen-solves per root search on fixed acceptance-spec trials, two
    # of them the inertia count.  The call itself solves only the count and
    # the lowest root, all a trial reads (7.0 / 7.0 / 6.3 here); iterating
    # every root bounds the full search (10.1 / 16.7 / 32.8, where plain
    # Newton steps took 15.0 / 24.8 / 49.2)
    radius = 16058
    tri = enumerate_spectrum(2, radius).gap_triple(10036)
    solves = []
    symmetric = SecularWorkspace.symmetric
    monkeypatch.setattr(
        SecularWorkspace, "symmetric", lambda ws, x: solves.append(x) or symmetric(ws, x)
    )
    for n, budget in ((2, 11), (4, 18), (8, 35)):
        in_call = every_root = 0
        for seed in (5, 11):
            for trial in range(16):
                cfg = ScattererConfig(2, sample_positions(seed, trial, n, 2), phases=np.zeros(n))
                solves.clear()
                roots = find_new_eigenvalues(cfg, tri, radius)
                in_call += len(solves)
                assert len(list(roots)) == n
                every_root += len(solves)
        assert in_call / 32 <= 8, (n, in_call / 32)
        assert every_root / 32 <= budget, (n, every_root / 32)


def _bits(root):
    return (
        np.array([root.lambda_norm, root.residual, root.second_smin]).tobytes(),
        root.d.tobytes(),
        root.near_degenerate,
    )


def _inertia_drop(ws, interval):
    # the count of negative eigenvalues of H a few ulps above n_k minus the
    # count a few ulps below n_{k+1}
    a, b = interval.n_center, interval.n_next
    floor = 4.0 * float(np.spacing(b))
    lo, hi = (np.linalg.eigvalsh(ws.symmetric(x)[0]) for x in (a + floor, b - floor))
    return int(np.count_nonzero(lo < 0.0)) - int(np.count_nonzero(hi < 0.0))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_roots_have_the_same_bits_in_any_read_order(n, monkeypatch):
    # acceptance spec: a fresh sequence read in ascending order is the
    # reference for a read that starts at the last root, for the roots of a
    # trial's sequence read after measure_config took root 0, and for two
    # sequences on one workspace read in turn
    spec = TrialSpec(dim=2, n_scatterers=n, m_center=10036, seed=5, trials=3)
    ctx = RunContext.build(spec)
    tri, radius = ctx.interval, ctx.radius_sq
    taken = []

    def keep(*args, **kwargs):
        taken.append(find_new_eigenvalues(*args, **kwargs))
        return taken[-1]

    monkeypatch.setattr(harness, "find_new_eigenvalues", keep)
    for trial in range(spec.trials):
        cfg = spec.config_for(sample_positions(spec.seed, trial, n, 2))
        want = [_bits(r) for r in find_new_eigenvalues(cfg, tri, radius)]
        tight = [_bits(r) for r in find_new_eigenvalues(cfg, tri, radius, solver_tol=1e-12)]
        ws = SecularWorkspace(cfg, radius, tri.center)
        assert len(want) == len(tight) == _inertia_drop(ws, tri)

        roots = find_new_eigenvalues(cfg, tri, radius)
        last = _bits(roots[-1])
        assert [_bits(roots[i]) for i in reversed(range(n))] == want[::-1]
        assert last == want[-1] and len(roots) == len(want)

        result = measure_config(spec, cfg, ctx, trial)
        assert result.root_count == len(want)
        assert [_bits(r) for r in taken[-1]] == want

        loose = find_new_eigenvalues(cfg, tri, radius, workspace=ws)
        strict = find_new_eigenvalues(cfg, tri, radius, solver_tol=1e-12, workspace=ws)
        pairs = [(_bits(loose[i]), _bits(strict[i])) for i in range(len(want))]
        assert pairs == list(zip(want, tight))


def test_a_later_root_search_fails_when_that_root_is_read(monkeypatch):
    # the call solves the count and root 0; with no steps left, branch 1
    # fails at its first read and at every read from it on, and root 0 stays
    radius = 16058
    tri = enumerate_spectrum(2, radius).gap_triple(10036)
    cfg = ScattererConfig(2, sample_positions(5, 0, 4, 2), phases=np.zeros(4))
    roots = find_new_eigenvalues(cfg, tri, radius)
    first = _bits(roots[0])
    monkeypatch.setattr(scatterer, "MAX_BRANCH_STEPS", 0)
    assert len(roots) == 4
    for read in (lambda: roots[1], lambda: roots[3], lambda: list(roots), lambda: roots[1]):
        with pytest.raises(NumericError, match="did not converge on branch 2"):
            read()
    assert _bits(roots[0]) == first
    with pytest.raises(NumericError, match="did not converge on branch 3"):
        find_new_eigenvalues(cfg, tri, radius)


def test_roots_with_a_common_nonzero_phase():
    # every root is a root of the complex matrix M, by its own SVD
    theta = -1.3
    cfg = ScattererConfig(
        2, np.array([[0.13, 0.71], [0.42, 0.09], [0.88, 0.55]]), phases=np.full(3, theta)
    )
    tri = enumerate_spectrum(2, 4000).gap_triple(100)
    roots = find_new_eigenvalues(cfg, tri, R)
    assert roots
    for r in roots:
        m = matrix_at(cfg, SpectralParameter(r.lambda_norm))
        sigma = np.linalg.svd(m, compute_uv=False)
        assert sigma[-1] <= 1e-8
        # the same quantity, up to the cancellation next to a root
        assert abs(r.residual - sigma[-1]) <= 1e-10
        assert np.abs(m @ r.d).max() <= 1e-8


def test_config_rejects_non_scalar_extension():
    # distinct phases and the full-matrix form never reach the solver: they
    # fail when the config or the spec is built
    pos = np.array([[0.13, 0.71], [0.42, 0.09]])
    tri = enumerate_spectrum(2, 4000).gap_triple(100)
    with pytest.raises(ValidationError):
        ScattererConfig(2, pos, phases=np.array([0.0, 0.4]))
    phase = [math.cos(0.25), math.sin(0.25)]
    swap = {"dim": 2, "positions": pos.tolist(),
            "u": {"matrix": [[[0, 0], phase], [phase, [0, 0]]]}}
    with pytest.raises(ValidationError):
        ScattererConfig.from_json(swap)
    spec = dict(dim=2, n_scatterers=2, m_center=100, seed=1, trials=1)
    for extra in ({"phases": [0.0, 0.4]}, {"phases": [0.0]},
                  {"u_matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}):
        with pytest.raises(ValidationError):
            TrialSpec.from_json({**spec, **extra})
    # phases equal modulo 2 pi are the common phase they stand for
    common = ScattererConfig(2, pos, phases=np.full(2, 0.6))
    wrapped = ScattererConfig(2, pos, phases=np.array([0.6, 0.6 - 2 * math.pi]))
    want = [r.lambda_norm for r in find_new_eigenvalues(common, tri, R)]
    assert want and [r.lambda_norm for r in find_new_eigenvalues(wrapped, tri, R)] == want


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8])
def test_solver_tol_must_be_finite_and_positive(tol):
    # an infinite tolerance would accept the first bracket midpoint as a root
    cfg = ScattererConfig(2, np.array([[0.13, 0.71], [0.42, 0.09]]), phases=np.zeros(2))
    tri = enumerate_spectrum(2, 2000).gap_triple(100)
    with pytest.raises(ValidationError):
        find_new_eigenvalues(cfg, tri, 2000, solver_tol=tol)


def test_simplicity_certificate():
    table = enumerate_spectrum(2, 2000)
    cfg = ScattererConfig(2, np.array([[0.13, 0.71], [0.42, 0.09]]), phases=np.zeros(2))
    tri = table.gap_triple(100)
    roots = find_new_eigenvalues(cfg, tri, 2000)
    for r in roots:
        if not r.near_degenerate:
            assert r.second_smin > 1e3 * r.residual


@pytest.mark.parametrize(
    "seed,trial,theta",
    [(5, 0, -1.3), (11, 19, 0.0), (11, 37, 0.0)],
    ids=["seed5_t0_theta-1.3", "seed11_t19", "seed11_t37"],
)
def test_reported_residual_holds_at_the_reported_lambda(seed, trial, theta):
    # acceptance spec, N = 8: each case has a root next to a pole, where one
    # ulp of lambda moves sigma_min by about the tolerance
    radius = 16058  # ceil(1.6 * 10036)
    cfg = ScattererConfig(2, sample_positions(seed, trial, 8, 2), phases=[theta] * 8)
    interval = enumerate_spectrum(2, radius).gap_triple(10036)
    for root in find_new_eigenvalues(cfg, interval, radius, solver_tol=1e-8):
        _, smin = secular_value(cfg, SpectralParameter(root.lambda_norm), radius)
        if root.residual <= 1e-8:
            assert smin <= 1e-8
        # the same quantity, up to eigen-solver rounding next to the pole
        assert smin == pytest.approx(root.residual, rel=1e-4, abs=1e-13)


def _count_margin(ws, interval):
    # min |mu| / (N u max |mu|) over the two count points, u = 2^-53
    a, b = interval.n_center, interval.n_next
    floor = 4.0 * float(np.spacing(b))
    n = ws.config.n_scatterers
    margins = []
    for x in (a + floor, b - floor):
        mu = np.abs(np.linalg.eigvalsh(ws.symmetric(x)[0]))
        margins.append(mu.min() / (n * 2.0**-53 * mu.max()))
    return min(margins)


def test_count_factor_at_the_acceptance_gap():
    # 6 pi sqrt(2 * 10037) + 3 * 2 + 16 + (26 near + 12 moments) + 13
    cfg = ScattererConfig(2, sample_positions(11, 0, 2, 2), phases=np.zeros(2))
    ws = SecularWorkspace(cfg, 16058, 10036)
    assert ws.count_factor == pytest.approx(6 * math.pi * math.sqrt(2 * 10037) + 73)


def test_uncertified_root_count_raises():
    # the gap (1, 2): both poles have multiplicity 4, so at N = 5 an
    # eigenvalue of H at each count point is of order 1 while the pole term
    # is of order 1e13, below eigh's own rounding
    tri = enumerate_spectrum(2, 10).gap_triple(1)
    pos = np.array([[0.12, 0.57], [0.81, 0.33], [0.45, 0.91], [0.66, 0.05], [0.27, 0.24]])
    cfg = ScattererConfig(2, pos, phases=np.zeros(5))
    ws = SecularWorkspace(cfg, 10, 1)
    assert _count_margin(ws, tri) < 1.0 < ws.count_factor
    with pytest.raises(NumericError, match="not certified"):
        find_new_eigenvalues(cfg, tri, 10, workspace=ws)
    # four scatterers on the same gap keep a certified count
    cfg4 = ScattererConfig(2, pos[:4], phases=np.zeros(4))
    roots = find_new_eigenvalues(cfg4, tri, 10)
    assert roots.margin >= SecularWorkspace(cfg4, 10, 1).count_factor


def test_n32_count_on_a_small_ball():
    # d = 3, R = 150: the gap (17, 18) has pole multiplicities 48 and 36,
    # both above N = 32, so the count is certified with a wide margin
    rng = np.random.default_rng(32)
    cfg = ScattererConfig(3, rng.uniform(size=(32, 3)), phases=np.zeros(32))
    tri = enumerate_spectrum(3, 150).gap_triple(17)
    ws = SecularWorkspace(cfg, 150, 17)
    roots = find_new_eigenvalues(cfg, tri, 150, workspace=ws)
    assert len(roots) == _inertia_drop(ws, tri) == 32
    # eigh and eigvalsh round the smallest |mu| apart
    assert roots.margin == pytest.approx(_count_margin(ws, tri), rel=1e-6)
    assert roots.margin >= ws.count_factor
    lams = [r.lambda_norm for r in roots]
    assert lams == sorted(lams) and tri.center < lams[0] and lams[-1] < tri.next
    assert max(r.residual for r in roots) <= 1e-8
    # the same count is refused once the factor exceeds its margin
    ws.count_factor = 2.0 * roots.margin
    with pytest.raises(NumericError, match="not certified"):
        find_new_eigenvalues(cfg, tri, 150, workspace=ws)
