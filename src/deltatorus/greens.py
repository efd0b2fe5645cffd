"""Torus Green's functions as truncated Fourier lattice sums.

Convention: e_xi(x) = exp(2*pi*i*<xi, x>), so -Laplace e_xi = 4*pi^2*|xi|^2 e_xi
and the resolvent kernel has Fourier coefficients c_lambda(xi) =
(4*pi^2*|xi|^2 - lambda)^{-1}.

Raw Green's sums are conditionally convergent; the differences
c_lambda - c_{+-i} decay like |xi|^{-4} and admit a rigorous tail bound
(see tail_estimate).  Sums are accumulated shell-by-shell in ascending
|xi|^2 with exact (fsum) accumulation so results are reproducible to the
last bit for a fixed truncation set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericError, OnSpectrumError, ValidationError
from .lattice import FOUR_PI_SQ, _check_dim, ball_points

#: hard ceiling on enumerated lattice points when resolving a tolerance
MAX_POINTS_DEFAULT = 8_000_000


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral parameter in normalized units (physical value / 4*pi^2)."""

    lambda_norm: float

    @property
    def physical(self) -> float:
        return FOUR_PI_SQ * self.lambda_norm

    @classmethod
    def from_physical(cls, lam: float) -> "SpectralParameter":
        return cls(lam / FOUR_PI_SQ)


def _points_estimate(dim: int, radius_sq: float) -> float:
    if dim == 2:
        return math.pi * radius_sq
    return (4.0 * math.pi / 3.0) * radius_sq**1.5


@dataclass(frozen=True)
class TruncationPolicy:
    """How to truncate a lattice sum: fixed ball or target tail bound.

    mode "radius": include |xi|^2 <= radius_sq.
    mode "tol": pick the smallest radius whose rigorous regularized-tail
    bound is below tol; raises NumericError when that radius would exceed
    max_points enumerated lattice points.
    """

    mode: str = "tol"
    radius_sq: int | None = None
    tol: float | None = 1e-8
    max_points: int = MAX_POINTS_DEFAULT

    def __post_init__(self):
        if self.mode not in ("radius", "tol"):
            raise ValidationError(f"unknown truncation mode {self.mode!r}")
        if self.mode == "radius":
            if self.radius_sq is None or self.radius_sq < 1:
                raise ValidationError("by-radius policy needs radius_sq >= 1")
        else:
            if self.tol is None or not self.tol > 0:
                raise ValidationError("by-tolerance policy needs tol > 0")

    @classmethod
    def by_radius(cls, radius_sq: int) -> "TruncationPolicy":
        return cls(mode="radius", radius_sq=int(radius_sq), tol=None)

    def resolve(self, lam: SpectralParameter, dim: int) -> int:
        """Radius-squared cutoff R for this policy at spectral parameter lam."""
        _check_dim(dim)
        if self.mode == "radius":
            r = int(self.radius_sq)
            if r < lam.lambda_norm + 1:
                raise ValidationError(
                    f"radius_sq {r} is below lambda_norm + 1 = {lam.lambda_norm + 1}"
                )
            return r
        # invert tail_estimate: C(lam, d) * R^{-(4-d)/2} <= tol
        c = _tail_constant(lam, dim)
        if dim == 2:
            r = c / self.tol
        else:
            r = (c / self.tol) ** 2
        r = max(16.0, 2.0 * lam.lambda_norm + 1.0, lam.lambda_norm + 1.0, r)
        if _points_estimate(dim, r) > self.max_points:
            raise NumericError(
                f"tolerance {self.tol} needs radius_sq ~ {r:.3g} "
                f"(~{_points_estimate(dim, r):.3g} lattice points, cap {self.max_points}); "
                "pass a by-radius policy instead"
            )
        return int(math.ceil(r))


class _ShellData(NamedTuple):
    pts: np.ndarray  # (P, d) int32, ordered by (norm, lexicographic)
    norms: np.ndarray  # (P,) int64
    shell_ms: np.ndarray  # (S,) int64 distinct norms ascending
    starts: np.ndarray  # (S,) first point index of each shell
    mult: np.ndarray  # (S,) int64 shell sizes


@lru_cache(maxsize=6)
def _shell_data(dim: int, radius_sq: int) -> _ShellData:
    if _points_estimate(dim, radius_sq) > 4 * MAX_POINTS_DEFAULT:
        raise NumericError(f"truncation ball |xi|^2 <= {radius_sq} is too large to enumerate")
    coords, norms = ball_points(dim, radius_sq)
    # a stable sort keeps the lexicographic order within each shell
    order = np.argsort(norms, kind="stable")
    coords = np.ascontiguousarray(coords[order].astype(np.int32))
    norms = norms[order]
    boundary = np.flatnonzero(np.r_[True, np.diff(norms) > 0])
    shell_ms = norms[boundary]
    mult = np.diff(np.r_[boundary, norms.size])
    return _ShellData(coords, norms, shell_ms, boundary, mult)


class ShellSums:
    """Lattice points of a fixed truncation ball grouped by shells.

    The per-shell exponential sums E_m(z) = sum_{|xi|^2 = m} cos(2*pi*<xi,z>)
    are the lambda-independent part of every Green's evaluation; grouping by
    shell makes repeated evaluations at many spectral parameters cheap.
    ``weights`` evaluates them directly from cosines over the whole ball at
    one difference vector; ``weights_many`` gets every unordered pair of a
    configuration from the nonnegative orthant of the ball and 1-D cosine
    tables.  ``phase_table`` builds e_xi(-x_j) on the whole ball for field
    assembly.
    """

    def __init__(self, dim: int, radius_sq: int):
        _check_dim(dim)
        self.dim = dim
        self.radius_sq = int(radius_sq)
        data = _shell_data(dim, self.radius_sq)
        self.pts = data.pts
        self.norms = data.norms
        self.shell_ms = data.shell_ms
        self.starts = data.starts
        self.mult = data.mult
        self.ns_physical = FOUR_PI_SQ * self.shell_ms.astype(np.float64)
        self._grid = None
        self._index = None
        self._orthant_index = None
        self._partners: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    @lru_cache(maxsize=6)
    def get(cls, dim: int, radius_sq: int) -> "ShellSums":
        return cls(dim, radius_sq)

    def weights(self, z) -> np.ndarray:
        """E_m(z) for every shell m <= radius_sq, as a real vector."""
        t = self.pts @ np.asarray(z, dtype=np.float64)
        np.multiply(t, 2.0 * math.pi, out=t)
        np.cos(t, out=t)
        return np.add.reduceat(t, self.starts)

    def phase_table(self, positions) -> np.ndarray:
        """phi[j, p] = e_xi(-x_j) = exp(-2*pi*i*<xi_p, x_j>), as an (N, P) array.

        Built from one 1-D table per axis, exp(-2*pi*i*a*x_{j,c}) for the
        integer coordinates a of the ball, multiplied by lookup: N*d*(2*sqrt(R)+1)
        exponentials instead of N*P.
        """
        positions = self._positions(positions)
        a = math.isqrt(self.radius_sq)
        coords = np.arange(-a, a + 1, dtype=np.float64)
        axes = [
            np.exp((-2j * math.pi) * np.outer(positions[:, c], coords)) for c in range(self.dim)
        ]
        index = self._axis_index()
        phi = np.empty((positions.shape[0], self.pts.shape[0]), dtype=np.complex128)
        factor = np.empty(self.pts.shape[0], dtype=np.complex128)
        # every index lies in [0, 2a], so mode="clip" only skips the buffered
        # copy that the default bounds-checking mode makes of ``out``
        for j, row in enumerate(phi):
            np.take(axes[0][j], index[0], out=row, mode="clip")
            for c in range(1, self.dim):
                np.take(axes[c][j], index[c], out=factor, mode="clip")
                row *= factor
        return phi

    def weights_many(self, positions) -> np.ndarray:
        """E_m(x_k - x_j) for every unordered pair of a configuration.

        Returns W of shape (S, N*(N+1)/2) whose column t holds the pair
        (k, j) = (np.triu_indices(N)[0][t], np.triu_indices(N)[1][t]).  A
        shell is invariant under flipping the sign of any coordinate, and the
        2^d flips of xi sum to prod_c 2*cos(2*pi*xi_c*z_c), so with z = x_k - x_j

            E_m(z) = sum over xi in shell m with every xi_c >= 0 of
                     2^{#nonzero xi_c} * prod_c cos(2*pi*xi_c*z_c),

        read from one 1-D cosine table per axis over the orthant points of
        the ball (``_orthant``) and reduced into the shells by one bincount
        per pair.  The diagonal columns are the exact shell multiplicities.
        """
        positions = self._positions(positions)
        coords, weight, shell = self._orthant()
        s = self.shell_ms.size
        rows, cols = np.triu_indices(positions.shape[0])
        w = np.empty((rows.size, s), dtype=np.float64)
        steps = (2.0 * math.pi) * np.arange(math.isqrt(self.radius_sq) + 1, dtype=np.float64)
        product = np.empty(weight.size, dtype=np.float64)
        factor = np.empty(weight.size, dtype=np.float64)
        for t, (k, j) in enumerate(zip(rows, cols)):
            if k == j:
                w[t] = self.mult
                continue
            tables = np.cos(np.outer(positions[k] - positions[j], steps))
            # every coordinate lies in [0, sqrt(R)]: see phase_table on "clip"
            np.take(tables[0], coords[0], out=product, mode="clip")
            for c in range(1, self.dim):
                np.take(tables[c], coords[c], out=factor, mode="clip")
                product *= factor
            product *= weight
            w[t] = np.bincount(shell, weights=product, minlength=s)
        return w.T

    def coeffs(self, lam_physical: float) -> np.ndarray:
        """c_lambda on each shell: (4*pi^2*m - lambda)^{-1}."""
        return 1.0 / (self.ns_physical - lam_physical)

    def _positions(self, positions) -> np.ndarray:
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if positions.ndim != 2 or positions.shape[1] != self.dim:
            raise ValidationError(f"positions must be {self.dim}-vectors")
        return positions

    def _orthant(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ball points with every coordinate >= 0, in point order:
        coordinates as a (d, Q) index into the 1-D cosine tables, the number
        of sign flips 2^{#nonzero xi_c} each one stands for, and shell ids."""
        if self._orthant_index is None:
            inside = np.flatnonzero(np.all(self.pts >= 0, axis=1))
            coords = np.ascontiguousarray(self.pts[inside].T, dtype=np.intp)
            weight = np.ldexp(1.0, np.count_nonzero(coords, axis=0))
            shell = np.repeat(np.arange(self.shell_ms.size), self.mult)[inside]
            self._orthant_index = (coords, weight, shell)
        return self._orthant_index

    def _axis_index(self) -> np.ndarray:
        """(d, P) offsets xi_c + a of the ball points into the 1-D phase tables."""
        if self._index is None:
            a = math.isqrt(self.radius_sq)
            self._index = np.ascontiguousarray((self.pts + a).T, dtype=np.intp)
        return self._index

    def _coord_grid(self) -> np.ndarray:
        if self._grid is None:
            a = math.isqrt(self.radius_sq)
            grid = np.full((2 * a + 1,) * self.dim, -1, dtype=np.int64)
            grid[tuple((self.pts + a).T)] = np.arange(self.pts.shape[0])
            self._grid = grid
        return self._grid

    def index_of(self, xi) -> int:
        """Position of a lattice vector in the point order, or -1."""
        xi = np.asarray(xi, dtype=np.int64)
        a = math.isqrt(self.radius_sq)
        if np.any(np.abs(xi) > a):
            return -1
        return int(self._coord_grid()[tuple(xi + a)])

    def shift_partners(self, zeta: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(source indices, partner indices) of pairs (xi, xi + zeta) both
        inside the ball.  Cached per shift; lambda-independent."""
        zeta = tuple(int(z) for z in zeta)
        cached = self._partners.get(zeta)
        if cached is not None:
            return cached
        a = math.isqrt(self.radius_sq)
        shifted = self.pts.astype(np.int64) + np.asarray(zeta, dtype=np.int64)
        inside = np.flatnonzero(np.all(np.abs(shifted) <= a, axis=1))
        idx = self._coord_grid()[tuple((shifted[inside] + a).T)]
        ok = idx >= 0
        pair = (inside[ok], idx[ok])
        self._partners[zeta] = pair
        return pair

    def pole_check(self, lam: SpectralParameter) -> None:
        ln = lam.lambda_norm
        if ln == int(ln):
            i = int(np.searchsorted(self.shell_ms, int(ln)))
            if i < self.shell_ms.size and self.shell_ms[i] == int(ln):
                raise OnSpectrumError(
                    f"lambda_norm {ln} hits the shell |xi|^2 = {int(ln)} exactly"
                )


def coefficient(xi, lam: SpectralParameter) -> float:
    """c_lambda(xi) = (4*pi^2*|xi|^2 - lambda)^{-1}."""
    m = int(sum(int(c) * int(c) for c in xi))
    if lam.lambda_norm == m:
        raise OnSpectrumError(f"pole: lambda_norm equals |xi|^2 = {m}")
    return 1.0 / (FOUR_PI_SQ * m - lam.physical)


class GreenValue(NamedTuple):
    value: float
    tail_bound: float


class RegularizedValue(NamedTuple):
    value: complex
    tail_bound: float


def _tail_constant(lam: SpectralParameter, dim: int) -> float:
    """C in the tail bound C * R^{-(4-d)/2} for the regularized summand.

    For |xi|^2 > R >= max(16, 2*lambda_norm) and n = 4*pi^2*|xi|^2:
    |c_lambda - c_{+-i}| = |lambda -+ i| / (|n - lambda| |n -+ i|)
                        <= 2*(|lambda|+1) / n^2,
    and sum_{|xi|^2 > R} |xi|^{-4} <= 16/R (d=2) or 32/sqrt(R) (d=3) by
    comparison with the integral over unit cells around each lattice point.
    """
    lam_abs = abs(lam.physical)
    if dim == 2:
        return 2.0 * (lam_abs + 1.0) / math.pi**4
    return 4.0 * (lam_abs + 1.0) / math.pi**4


def tail_estimate(policy: TruncationPolicy, lam: SpectralParameter, dim: int) -> float:
    """Rigorous bound on the omitted tail of a regularized-difference sum."""
    _check_dim(dim)
    r = policy.resolve(lam, dim)
    if r <= 2.0 * lam.lambda_norm or r < 16:
        raise ValidationError(
            f"radius_sq {r} too small for a tail bound (need > max(16, 2*lambda_norm))"
        )
    return _tail_constant(lam, dim) * r ** (-(4 - dim) / 2.0)


def green_tail_envelope(radius_sq: int, lam: SpectralParameter, dim: int) -> float:
    """Statistical envelope for the omitted tail of the raw Green's sum.

    The raw sum is only conditionally convergent, so no absolute bound
    exists.  Over positions z uniform on the torus the omitted tail has
    mean square exactly sum_{|xi|^2 > R} c_lambda(xi)^2 <= 4/(pi^4 R) for
    d = 2 (8/(pi^4 sqrt(R)) for d = 3, same lattice comparison as
    tail_estimate); the envelope is 10x that RMS.
    """
    _check_dim(dim)
    if radius_sq <= 2.0 * lam.lambda_norm or radius_sq < 16:
        raise ValidationError("radius_sq too small for the raw-sum envelope")
    if dim == 2:
        ms = 4.0 / (math.pi**4 * radius_sq)
    else:
        ms = 8.0 / (math.pi**4 * math.sqrt(radius_sq))
    return 10.0 * math.sqrt(ms)


def _as_diff(x, y, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (dim,) or y.shape != (dim,):
        raise ValidationError(f"points must be {dim}-vectors")
    return x - y


def green_sum(x, y, lam: SpectralParameter, policy: TruncationPolicy) -> GreenValue:
    """Truncated G_lambda(x, y) = sum_{|xi|^2 <= R} c_lambda(xi) e_xi(x - y).

    Shells are accumulated in ascending |xi|^2 with exact accumulation; the
    +-xi pairing makes every shell contribution real.  Rejects coincident
    points, where the raw sum diverges (use regularized_pair there).
    """
    dim = len(x)
    z = _as_diff(x, y, dim)
    frac = z - np.round(z)
    if float(np.max(np.abs(frac))) < 1e-12:
        raise ValidationError(
            "x and y coincide on the torus; the raw Green's sum diverges there"
        )
    r = policy.resolve(lam, dim)
    shells = ShellSums.get(dim, r)
    shells.pole_check(lam)
    terms = shells.coeffs(lam.physical) * shells.weights(z)
    if r > max(16, 2.0 * lam.lambda_norm):
        tail = green_tail_envelope(r, lam, dim)
    else:
        tail = math.inf  # no envelope this close to the cutoff
    return GreenValue(math.fsum(terms), tail)


def regularized_pair(
    x, y, lam: SpectralParameter, sign: int, policy: TruncationPolicy
) -> RegularizedValue:
    """Truncated sum of [c_lambda(xi) - (4*pi^2*|xi|^2 - sign*i)^{-1}] e_xi(x-y).

    The summand decays like |xi|^{-4}, so coincident points are allowed and
    the reported tail bound is rigorous.
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    dim = len(x)
    z = _as_diff(x, y, dim)
    r = policy.resolve(lam, dim)
    shells = ShellSums.get(dim, r)
    shells.pole_check(lam)
    w = shells.weights(z)
    dc = shells.coeffs(lam.physical) - 1.0 / (shells.ns_physical - 1j * sign)
    terms = dc * w
    value = complex(math.fsum(terms.real), math.fsum(terms.imag))
    if r > max(16, 2.0 * lam.lambda_norm):
        tail = _tail_constant(lam, dim) * r ** (-(4 - dim) / 2.0)
    else:
        tail = math.inf  # rigorous bound needs R > max(16, 2*lambda_norm)
    return RegularizedValue(value, tail)
