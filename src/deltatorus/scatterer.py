"""Spectral matrix of N point scatterers and its roots.

For a configuration of N distinct points x_j and the extension parameter
U = e^{i theta} Id, one phase common to every scatterer, the matrix

    M(lambda)[k, j] = (G_lambda - G_{+i})(x_k, x_j)
                      + e^{-i theta} (G_lambda - G_{-i})(x_k, x_j)

is M = (1 + e^{-i theta}) H with the real symmetric

    H(lambda) = c_lambda @ W - Re G_{+i} + tan(theta/2) Im G_{+i}.

New eigenvalues are the parameters lambda strictly between consecutive
unperturbed eigenvalues where H is singular.

Entries are assembled from shell sums: the pair weights E_m(x_k - x_j)
depend only on the positions and are symmetric in the pair, an
(S, N*(N-1)/2) array W over the pairs k < j.  Every scatterer has the
same self-interaction, E_m(0) = mult_m, so H's diagonal is one function
of lambda per gap.  Inside one gap only the shells at and next to its ends
are singular.  A SecularWorkspace is one configuration's H on one gap: it
keeps the shells near the gap as exact terms and sums every other shell
through a power series in lambda about the midpoint of the gap, so H
reads W only through the near shells' rows and a few fixed per-shell
functionals of the gap: the series' moments and the two rows of G_{+i}.
The ball keeps them once per gap with their values on the diagonal
(``_gap_record``), and one ShellSums.weights_many call in the workspace's
constructor gives their values on the pairs; in d = 2 it never forms W.
H at each lambda in the gap is then one small product over the near rows
and the moments, whatever the size S of the ball, unpacked to N x N.

The derivative c_lambda^2 @ W of H is positive semidefinite, so every
ordered eigenvalue of H is nondecreasing across a gap.  The number of roots
in a gap is the drop in the count of negative eigenvalues of H from one end
to the other (Sylvester inertia), each root is the zero of one eigenvalue
branch, and its superposition coefficients d are that branch's unit
eigenvector ((Id + U) v is a multiple of v).  A U with distinct eigenvalues
in general does not preserve the deficiency Gram matrix Im G_{+i}, so it
defines no self-adjoint operator in this parametrization, and a config
with distinct phases is rejected when it is built.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateExtensionError,
    NumericError,
    ValidationError,
)
from .greens import ShellSums, SpectralParameter, check_radius, pair_columns
from .lattice import FOUR_PI_SQ, GapTriple, _check_dim

COMMON_PHASE_TOL = 1e-10
DEGENERACY_TOL = 1e-9

#: steps a root search may take on one branch; bisection alone needs about 60
MAX_BRANCH_STEPS = 200

#: a shell within h / NEAR_RATIO of the midpoint of a gap of half width h
#: enters H exactly; every farther one through a series in NEAR_RATIO
NEAR_RATIO = 0.01

#: largest solver_tol.  At 1/2 the first midpoint passes the step test
#: whatever the root; and a root accepted with a residual near solver_tol
#: reads ``near_degenerate`` (second |mu| below 1e3 times the residual)
#: whenever that second value is below 1e3 * solver_tol, while it is of
#: order 0.1 to 1 at well separated roots.  1e-4 keeps that at 0.1.
MAX_SOLVER_TOL = 1e-4


def check_solver_tol(solver_tol: float) -> None:
    """Reject a root-search tolerance outside (0, MAX_SOLVER_TOL]."""
    if not 0 < solver_tol <= MAX_SOLVER_TOL:
        raise ValidationError(f"solver_tol must be in (0, {MAX_SOLVER_TOL}], got {solver_tol!r}")


def pair_distances(positions: np.ndarray) -> np.ndarray:
    """Torus distance of every pair a < b of the (N, d) positions, in
    np.triu_indices(N, 1) order."""
    rows, cols = pair_columns(positions.shape[0])
    d = np.abs(positions[rows] - positions[cols])
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=1))


def _real_array(name: str, value, shape: tuple) -> np.ndarray:
    """value as a float64 array of the given shape with finite real entries."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.shape != shape:
        raise ValidationError(f"{name} must be {shape} real numbers, got {value!r}")
    arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return arr


def common_phase(phases, n: int) -> float:
    """theta of U = e^{i theta} Id from one phase per scatterer, all equal.

    Phases that differ by more than COMMON_PHASE_TOL in e^{i theta_j}
    raise ValidationError, a phase with e^{i theta_j} = -1
    DegenerateExtensionError; theta is atan2 of e^{i theta_0}.  A trial
    config repeats its spec's phases, so the check runs once per distinct
    phase vector (keyed by its bits).
    """
    return _common_phase(_real_array("phases", phases, (n,)).tobytes())


@lru_cache(maxsize=16)
def _common_phase(phases: bytes) -> float:
    eigs = np.exp(1j * np.frombuffer(phases))
    if np.min(np.abs(1.0 + eigs)) < DEGENERACY_TOL:
        raise DegenerateExtensionError("a phase puts -1 in the spectrum of U")
    z = complex(eigs[0])
    if np.linalg.norm(eigs - z) > COMMON_PHASE_TOL:
        raise ValidationError(
            "U must be one common phase, U = exp(i theta) Id: distinct phases do "
            "not preserve the deficiency Gram matrix Im G_{+i}"
        )
    return math.atan2(z.imag, z.real)


@dataclass
class ScattererConfig:
    """N scatterer positions on the unit torus plus the extension parameter.

    U = e^{i theta} Id is given as one phase per scatterer, all equal;
    common_phase sets theta, the angle of e^{i theta_0}, from them, and the
    phases are kept for the JSON form.
    """

    dim: int
    positions: np.ndarray
    phases: np.ndarray
    theta: float = field(init=False)

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral):
            raise ValidationError(f"dim must be an integer, got {self.dim!r}")
        _check_dim(self.dim)
        pos = np.atleast_2d(np.asarray(self.positions))
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValidationError("positions must be an (N, dim) array with N >= 1")
        self.positions = np.mod(_real_array("positions", pos, (pos.shape[0], self.dim)), 1.0)
        n = self.positions.shape[0]
        coincide = np.flatnonzero(pair_distances(self.positions) <= 0.0)
        if coincide.size:
            rows, cols = pair_columns(n)
            a, b = rows[coincide[0]], cols[coincide[0]]
            raise ValidationError(f"positions {a} and {b} coincide")
        self.theta = common_phase(self.phases, n)
        self.phases = np.asarray(self.phases, dtype=np.float64)

    @property
    def n_scatterers(self) -> int:
        return self.positions.shape[0]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "positions": self.positions.tolist(),
            "u": {"phases": self.phases.tolist()},
        }

    @classmethod
    def from_json(cls, obj) -> "ScattererConfig":
        if not isinstance(obj, dict) or set(obj) != {"dim", "positions", "u"}:
            got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
            raise ValidationError(f"a config has exactly the keys dim, positions and u; got {got}")
        if not isinstance(obj["u"], dict) or set(obj["u"]) != {"phases"}:
            raise ValidationError(
                f'"u" must be {{"phases": [...]}}, one common phase; got {obj["u"]!r}'
            )
        return cls(obj["dim"], obj["positions"], obj["u"]["phases"])

    @classmethod
    def load(cls, path) -> "ScattererConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(json.load(f))


def _count_factor(shells: ShellSums, i: int, terms: int) -> float:
    """The least count margin that certifies a root count on the gap
    (n_i, n_{i+1}) whose H sums ``terms`` rows: see ``find_new_eigenvalues``.

    At a count point, 4 ulp from the pole n_* (mult_*, m_* <= m_{i+1}),
    H is its pole term c_* W_* up to a part below 1e-6 of it (1e-10 at
    the acceptance gap, while |tan(theta/2)| stays below 1e4).  The
    computed eigenvalues of the computed H then lie within N u ||H||_2
    times the sum of these terms of those of H, u = 2^-53:
      * 6 pi sqrt(d m_*) + 3 d: a weight E_{m_*} sums products of d
        cosines cos(2 pi xi_c z_c), and the three roundings of each phase
        (z_c, 2 pi xi_c and their product) move a product by at most
        6 pi u sum_c xi_c |z_c| <= 6 pi u sqrt(d m_*), as |z_c| < 1; the
        cosines and the products round 3 d times more;
      * mult_*: the weight sums at most mult_* products one by one;
      * terms + 4: c_*, its product with W_*, the sum over the rows and
        the two G_{+i} terms;
      * 8: eigh's backward error, taken as at most 8 N u ||H||_2;
      * 1: the rest of H, the series' truncation of 2^-53 / n_{i+1} per
        entry included, with like relative errors on a part below 1e-6.
    """
    m, mult = int(shells.shell_ms[i + 1]), int(shells.mult[i : i + 2].max())
    return 6.0 * math.pi * math.sqrt(shells.dim * m) + 3 * shells.dim + mult + terms + 13


def _gap_record(shells: ShellSums, i: int) -> tuple:
    """(x0, h, near norms, (1..P) / h, projected rows, diagonal): H's split
    form on the gap (n_i, n_{i+1}) of the ball's shells, built once per
    ball and gap and kept in its ``memo``.

    With x0 the midpoint of the gap and h its half width, a shell is near
    when |n_s - x0| <= h / NEAR_RATIO; H keeps the near shells as exact
    terms.  For a far shell and tau = (x - x0) / h in (-1, 1),

        1 / (n_s - x) = sum_{p >= 0} tau^p h^p / (n_s - x0)^{p+1},

    with terms that shrink by at least NEAR_RATIO each.  As |E_m| <= mult_m,
    the terms from p = P on move an entry of H by at most

        sum_far mult_s / |n_s - x0| * NEAR_RATIO^P / (1 - NEAR_RATIO)

    for any positions, and P = p is the least count that puts this below
    2^-53 / n_{i+1}: shell 0 (E_0 = 1 for every pair) alone gives each
    entry an absolute sum |c_x| @ |W| above 1 / n_{i+1}.

    The rows are what H reads off the diagonal, as
    ``ShellSums.project(near, F)`` forms them: the near shells' rows
    W[a:b], read in d = 2 by a gather over their orthant points, and F @ W
    for the (P + 3, S) matrix F that stacks the P + 1 moments, whose row p
    is h^p / (n_s - x0)^{p+1} on the far shells and 0 on the near ones
    (row P keeps the slope's series, one term shorter than the value's, to
    the same order), on the rows n_s / (n_s^2 + 1) and 1 / (n_s^2 + 1) of
    Re and Im G_{+i}, as
    G_{+i} = sum_s W_s / (n_s - i) = sum_s W_s (n_s + i) / (n_s^2 + 1).
    The diagonal is the same rows at E_m(0) = mult_m, for every
    scatterer: mult[a:b] stacked on F @ mult.  At NEAR_RATIO = 0.01 the
    acceptance gap (m_k = 10036, R = 16058) has 26 near shells and P = 11,
    so its d = 2 box holds 14 rows.
    """

    def build():
        ns = shells.ns_physical
        x0, h = 0.5 * (ns[i] + ns[i + 1]), 0.5 * (ns[i + 1] - ns[i])
        a = int(np.searchsorted(ns, x0 - h / NEAR_RATIO))
        b = int(np.searchsorted(ns, x0 + h / NEAR_RATIO, side="right"))
        inv = 1.0 / (ns - x0)
        inv[a:b] = 0.0
        bound = float(shells.mult @ np.abs(inv)) / (1.0 - NEAR_RATIO)
        p = 0
        while bound > 2.0**-53 / ns[i + 1]:
            bound *= NEAR_RATIO
            p += 1
        table = np.cumprod(np.vstack((inv, np.broadcast_to(h * inv, (p, ns.size)))), axis=0)
        f = np.vstack((table, ns / (ns * ns + 1.0), 1.0 / (ns * ns + 1.0)))
        mult = shells.mult.astype(np.float64)
        diag = np.r_[mult[a:b], f @ mult]
        return x0, h, ns[a:b], np.arange(1, p + 1) / h, shells.project(slice(a, b), f), diag

    return shells.memo(("secular", i), build)


@lru_cache(maxsize=16)
def _unpack(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of ``SecularWorkspace``'s rows are the pairs k <= j of
    np.triu_indices(N).  Returns the (2, N, N) positions of the H and slope
    entries in the flat (2, columns) product of ``symmetric`` ([0, k, j] =
    [0, j, k] is the column of {k, j}, [1] the same plus the column count),
    the columns of the pairs k < j and those of the diagonal.  Read-only."""
    rows, cols = np.triu_indices(n)
    unpack = np.empty((n, n), dtype=np.intp)
    unpack[rows, cols] = unpack[cols, rows] = np.arange(rows.size)
    both = np.stack((unpack, unpack + rows.size))
    off, diag = np.flatnonzero(rows != cols), np.flatnonzero(rows == cols)
    for a in (both, off, diag):
        a.flags.writeable = False
    return both, off, diag


class SecularWorkspace:
    """One configuration's split form of H on one gap, for fast evaluation.

    The gap is (n_k, n_{k+1}) of the ball |xi|^2 <= radius_sq, with m_k,
    the lower shell's norm, given.  H reads the pair weights W[s, t] =
    E_{m_s}(x_k - x_j), for the pair k < j in column t of pair_columns(N),
    only through the rows of ``_gap_record``: the shells near the gap
    exactly, every other shell through P + 1 moments, and the
    lambda-independent deficiency sum G_{+i}(x_k, x_j).  The constructor
    reads their values on the pairs with one ``ShellSums.weights_many``
    call, which in d = 2 never forms W, and writes them with the record's
    diagonal into the columns of the pairs k <= j (``_unpack``).  H and its
    slope at each lambda in the gap are then one small product over those
    near rows and moments, whatever the size of the ball, unpacked to
    N x N through a fixed index map.
    """

    def __init__(self, config: ScattererConfig, radius_sq: int, m_k: int):
        self.config = config
        self.shells = ShellSums.get(config.dim, radius_sq)
        ms, ns = self.shells.shell_ms, self.shells.ns_physical
        i = int(np.searchsorted(ms, m_k))
        if not (i + 1 < ms.size and ms[i] == m_k):
            raise ValidationError(f"{m_k!r} is not a shell of the ball below its last one")
        self.gap = (float(ns[i]), float(ns[i + 1]))
        self._x0, self._h, self._near, self._dscale, rows, diag = _gap_record(self.shells, i)
        # H sums the near rows and the P + 1 moments
        self.count_factor = _count_factor(self.shells, i, self._near.size + self._dscale.size + 1)
        self._unpack2, off, on = _unpack(config.n_scatterers)
        values = np.empty((diag.size, off.size + on.size))
        values[:, off] = self.shells.weights_many(config.positions, rows)
        values[:, on] = diag[:, None]
        unpack = self._unpack2[0]
        self._stacked = values[:-2]
        self._re_g = values[-2][unpack]
        self._tan_im_g = math.tan(config.theta / 2.0) * values[-1][unpack]

    def symmetric(self, lam_physical: float) -> tuple[np.ndarray, np.ndarray]:
        """H and dH/dlambda at one parameter strictly inside the gap.

        With tau = (lambda - x0) / h on the gap of midpoint x0 and half
        width h, H = sum_near W_s / (n_s - lambda) + sum_p M_p tau^p
        - Re G_{+i} + tan(theta/2) Im G_{+i}, and dH/dlambda =
        sum_near W_s / (n_s - lambda)^2 + sum_p p M_p tau^{p-1} / h.
        """
        if not self.gap[0] < lam_physical < self.gap[1]:
            raise ValidationError(f"lambda {lam_physical!r} is not strictly inside the gap {self.gap}")
        near, stacked = self._near, self._stacked
        k = near.size
        # row 0: c_near then tau^p; row 1: c_near^2 then p tau^{p-1} / h
        coef = np.empty((2, stacked.shape[0]))
        c, powers = coef[0, :k], coef[0, k:]
        np.subtract(near, lam_physical, out=c)
        np.reciprocal(c, out=c)
        np.square(c, out=coef[1, :k])
        powers[0], powers[1:] = 1.0, (lam_physical - self._x0) / self._h
        np.cumprod(powers, out=powers)
        coef[1, k] = 0.0
        np.multiply(self._dscale, powers[:-1], out=coef[1, k + 1 :])
        h_mat, slope = (coef @ stacked).take(self._unpack2)
        return h_mat - self._re_g + self._tan_im_g, slope


def secular_value(
    config: ScattererConfig, lam: SpectralParameter, radius_sq: int
) -> tuple[complex, float]:
    """(det M, smallest singular value of M) at one parameter.

    Both come from the eigenvalues mu of H: det M = (1 + e^{-i theta})^N det H
    and sigma_min(M) = |1 + e^{-i theta}| min |mu|.
    """
    radius_sq = check_radius(radius_sq, lam)
    shells = ShellSums.get(config.dim, radius_sq)
    shells.pole_check(lam)
    # the shell below lambda; a lambda below every shell takes shell 0, whose
    # gap does not hold it, so ``symmetric`` raises ValidationError
    i = max(int(np.searchsorted(shells.ns_physical, lam.physical)) - 1, 0)
    ws = SecularWorkspace(config, radius_sq, shells.shell_ms[i])
    mu = np.linalg.eigvalsh(ws.symmetric(lam.physical)[0])
    factor = 1.0 + np.exp(-1j * config.theta)
    return complex(factor ** mu.size * np.prod(mu)), float(abs(factor) * np.abs(mu).min())


@dataclass
class NewEigenvalue:
    """A root of the spectral equation inside one gap."""

    lambda_norm: float
    d: np.ndarray
    residual: float
    second_smin: float
    near_degenerate: bool

    @property
    def lambda_physical(self) -> float:
        return FOUR_PI_SQ * self.lambda_norm


class Roots(Sequence):
    """The roots of one gap, ascending, each solved the first time it is read.

    len() is the certified root count, and ``margin`` the count margin
    that certifies it.  ``find_new_eigenvalues`` solves the
    lowest root before it returns; reading root i > 0, by index or by
    iteration, solves every root up to i that is not solved yet, in
    ascending order, so a root's bits do not depend on when or in what order
    it is read.  A branch whose search fails raises NumericError at the read
    that runs it, and again at every read of it or of a later root.
    """

    def __init__(self, count: int, branches: Iterator[NewEigenvalue], margin: float):
        self._count = count
        self.margin = margin
        self._branches = branches
        self._solved: list[NewEigenvalue] = []
        self._error: str | None = None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index) -> NewEigenvalue:
        i = operator.index(index)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError(f"root index {index} out of range for {self._count} roots")
        while len(self._solved) <= i:
            if self._error is not None:
                raise NumericError(self._error)
            try:
                self._solved.append(next(self._branches))
            except NumericError as exc:
                self._error = str(exc)
                raise
        return self._solved[i]


def find_new_eigenvalues(
    config: ScattererConfig,
    interval: GapTriple,
    radius_sq: int,
    solver_tol: float = 1e-8,
    workspace: SecularWorkspace | None = None,
) -> Roots:
    """The spectral-equation roots in the open gap (n_k, n_{k+1}), ascending.

    M = (1 + e^{-i theta}) H with H real symmetric and every ordered
    eigenvalue of H nondecreasing in lambda.  The root count is the number
    of negative eigenvalues of H 4 ulp above n_k minus the number 4 ulp
    below n_{k+1}; it is the returned sequence's len(), and only
    the lowest root is solved in this call (``Roots``).  The count is
    certified when no eigenvalue at either point can have its sign
    flipped by H's evaluation error or eigh's rounding: its margin, the
    least min|mu| / (N u max|mu|) over the two points (u = 2^-53), must be
    at least the workspace's ``count_factor`` (``_count_factor``), else
    NumericError.  Root i, counted
    from the left, is the zero of eigenvalue branch n_lo - 1 - i.  Each
    step on that branch goes to the root of the one-pole model
    c + r / (p - lambda) matched to mu and its slope mu' = v^T H' v at the
    iterate x, with p = n_{k+1} when mu < 0 and p = n_k otherwise (the
    rational step of secular-equation solvers, R.-C. Li, LAPACK Working
    Note 89): the Newton step on the slope raised by |mu| / |p - x|, which
    stops short of p, where most roots crowd.  A step is kept inside the
    branch's sign bracket, with bisection whenever it leaves the bracket or
    fails to halve.  Every branch after the first starts from that model's
    root at the last eigen-solve of the branch before it, when that point
    is inside its bracket, else from the bracket midpoint.  Each
    eigen-solve tightens the brackets of every branch.  The inertia count
    and the stopping rule do not depend on the step: a root is accepted
    once the Newton step |mu / mu'| or its bracket is at most solver_tol
    times the gap length and the residual |1 + e^{-i theta}| |mu| is at
    most solver_tol, or once its bracket reaches the floating-point floor;
    the latter keeps a root that sits so close to a pole that float64
    cannot reach the residual, and reports the residual it measured.
    solver_tol must lie in (0, MAX_SOLVER_TOL].  A branch that takes
    MAX_BRANCH_STEPS steps raises NumericError: for the lowest root in
    this call, for a later one when it is first read.  A
    prebuilt workspace must be the one for this config, radius_sq and gap;
    the sequence keeps using it for the roots it solves later.
    """
    check_solver_tol(solver_tol)
    radius_sq = check_radius(radius_sq, SpectralParameter(float(interval.next)))
    a, b = interval.n_center, interval.n_next
    if workspace is not None and (
        workspace.config is not config
        or workspace.shells.radius_sq != radius_sq
        or workspace.gap != (a, b)
    ):
        raise ValidationError("the workspace was built for another config, radius_sq or gap")
    scale = 2.0 * abs(math.cos(config.theta / 2.0))  # |1 + e^{-i theta}|
    n = config.n_scatterers
    ws = workspace if workspace is not None else SecularWorkspace(config, radius_sq, interval.center)
    floor = 4.0 * float(np.spacing(b))
    width = max(solver_tol * (b - a), floor)
    x_lo, x_hi = a + floor, b - floor
    lo, hi = [x_lo] * n, [x_hi] * n  # sign bracket of each branch

    def eigen(x):
        h, slope = ws.symmetric(x)
        mu, vecs = np.linalg.eigh(h)
        # for N <= a few dozen, a loop over floats costs less than array calls
        for k, m in enumerate(mu.tolist()):
            if m < 0.0:
                lo[k] = max(lo[k], x)
            else:
                hi[k] = min(hi[k], x)
        return mu, vecs, slope

    def pole_step(x, mu_j, deriv):
        # the root of c + r / (p - lambda) matched to mu_j and its slope at
        # x, with p the pole the branch's root lies toward: a Newton step on
        # the slope raised by |mu_j| / |p - x|, so it stops short of p
        to_pole = b - x if mu_j < 0.0 else x - a
        return -mu_j / (deriv + abs(mu_j) / to_pole) if deriv > 0.0 else math.inf

    def branches():
        for i in range(n_lo - n_hi):
            j = n_lo - 1 - i
            x, last_step = 0.5 * (lo[j] + hi[j]), math.inf
            if i > 0:  # warm start from the last eigen-solve, at the previous root
                v = vecs[:, j]
                start = x_prev + pole_step(x_prev, float(mu[j]), float(v @ slope @ v))
                if lo[j] < start < hi[j]:
                    x = start
            for _ in range(MAX_BRANCH_STEPS):
                # evaluate where the reported lambda_norm = t puts it, 4 pi^2 t,
                # so that the residual is the one a caller sees at that lambda
                t = x / FOUR_PI_SQ
                x = FOUR_PI_SQ * t
                mu, vecs, slope = eigen(x)
                v = vecs[:, j]
                mu_j = float(mu[j])
                residual = scale * abs(mu_j)
                deriv = float(v @ slope @ v)
                newton = -mu_j / deriv if deriv > 0.0 else math.inf
                bracket = hi[j] - lo[j]
                if residual <= solver_tol and min(abs(newton), bracket) <= width:
                    break
                if bracket <= floor:
                    break
                step = pole_step(x, mu_j, deriv)
                if lo[j] < x + step < hi[j] and abs(step) <= 0.5 * last_step:
                    x, last_step = x + step, abs(step)
                else:
                    x, last_step = 0.5 * (lo[j] + hi[j]), 0.5 * bracket
            else:
                raise NumericError(f"root search did not converge on branch {j}")
            x_prev = x
            others = np.abs(np.delete(mu, j))
            s2 = scale * float(others.min()) if others.size else math.inf
            yield NewEigenvalue(
                lambda_norm=t,
                d=v.astype(np.complex128),
                residual=residual,
                second_smin=s2,
                near_degenerate=bool(s2 < 1e3 * residual),
            )

    counts, margin = [], math.inf
    for x in (x_lo, x_hi):
        mu = eigen(x)[0]
        counts.append(int(np.count_nonzero(mu < 0.0)))
        size = np.abs(mu)
        margin = min(margin, float(size.min()) / (n * 2.0**-53 * float(size.max())))
    if not margin >= ws.count_factor:
        raise NumericError(
            f"root count not certified: count margin {margin:.3g} is below "
            f"{ws.count_factor:.4g} on the gap ({interval.center}, {interval.next})"
        )
    n_lo, n_hi = counts
    roots = Roots(max(n_lo - n_hi, 0), branches(), margin)
    if roots:
        roots[0]  # the lowest root is solved in this call
    return roots
