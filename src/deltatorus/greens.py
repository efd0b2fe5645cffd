"""Torus Green's functions as truncated Fourier lattice sums.

Convention: e_xi(x) = exp(2*pi*i*<xi, x>), so -Laplace e_xi = 4*pi^2*|xi|^2 e_xi
and the resolvent kernel has Fourier coefficients c_lambda(xi) =
(4*pi^2*|xi|^2 - lambda)^{-1}.

Every sum runs over one fixed ball |xi|^2 <= radius_sq, the only
truncation input; ShellSums.get holds one instance per ball, with its
points grouped by shell and its coordinate box for field data.  The
differences c_lambda - c_{+-i} decay like |xi|^{-4}, so regularized_pair
reports a rigorous tail bound; it accumulates shell-by-shell with exact
(fsum) accumulation, reproducible to the last bit for a fixed ball.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericError, OnSpectrumError, ValidationError
from .lattice import FOUR_PI_SQ, MAX_BALL_POINTS, _check_dim, _points_estimate, ball_points

#: largest m * n * k of a matrix product that OpenBLAS (0.3.31, x86-64) runs
#: on its single-threaded small-matrix path; a larger one wakes its threads
ONE_THREAD_GEMM = 10**6


def one_thread_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b for 2-D arrays, in row blocks of a whose product stays
    within ONE_THREAD_GEMM, so that no BLAS worker thread wakes and
    concurrent trials do not contend for cores.  The blocks depend on the
    shapes alone, so equal inputs give equal bits."""
    step = max(1, ONE_THREAD_GEMM // (b.shape[0] * b.shape[1]))
    for r in range(0, a.shape[0], step):
        np.matmul(a[r : r + step], b, out=out[r : r + step])
    return out


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral parameter in normalized units (physical value / 4*pi^2)."""

    lambda_norm: float

    @property
    def physical(self) -> float:
        return FOUR_PI_SQ * self.lambda_norm


def check_radius(radius_sq: int, lam: SpectralParameter) -> int:
    """radius_sq as an int, once the ball |xi|^2 <= radius_sq reaches past
    lambda: radius_sq >= lambda_norm + 1."""
    if isinstance(radius_sq, bool) or not isinstance(radius_sq, numbers.Integral):
        raise ValidationError(f"radius_sq must be an integer, got {radius_sq!r}")
    radius_sq = int(radius_sq)
    if radius_sq < lam.lambda_norm + 1:
        raise ValidationError(
            f"radius_sq {radius_sq} is below lambda_norm + 1 = {lam.lambda_norm + 1}"
        )
    return radius_sq


class TruncationPolicy:
    """Compatibility shim whose only caller is ``perfbench/run.py``.

    Truncation is the integer radius_sq alone; ``by_radius`` checks it and
    returns it unchanged.
    """

    @staticmethod
    def by_radius(radius_sq: int) -> int:
        radius_sq = int(radius_sq)
        if radius_sq < 1:
            raise ValidationError("by-radius policy needs radius_sq >= 1")
        return radius_sq


class ShellSums:
    """Lattice points of a fixed truncation ball grouped by shells.

    The per-shell exponential sums E_m(z) = sum_{|xi|^2 = m} cos(2*pi*<xi,z>)
    are the lambda-independent part of every Green's evaluation; grouping by
    shell makes repeated evaluations at many spectral parameters cheap.
    ``weights`` evaluates them directly from cosines over the whole ball at
    one difference vector; ``weights_many`` gets every unordered pair of a
    configuration from the nonnegative orthant of the ball and 1-D cosine
    tables.

    Fourier fields live on the coordinate box |xi_c| <= half = isqrt(R),
    flat in C order with xi at index xi + half.  The
    ball keeps what every field on it shares: ``physical_box``, the
    lambda-free data ``memo`` stores for ``measure``, and a pool of
    box-sized arrays (``take``/``give``) so that trials reuse memory
    instead of faulting in fresh pages.
    """

    def __init__(self, dim: int, radius_sq: int):
        _check_dim(dim)
        self.dim = dim
        self.radius_sq = int(radius_sq)
        if _points_estimate(dim, self.radius_sq) > MAX_BALL_POINTS:
            raise NumericError(f"truncation ball |xi|^2 <= {radius_sq} is too large to enumerate")
        coords, norms = ball_points(dim, self.radius_sq)
        # pts ordered by (norm, lexicographic): a stable sort keeps the
        # lexicographic order within each shell
        order = np.argsort(norms, kind="stable")
        self.pts = np.ascontiguousarray(coords[order].astype(np.int32))
        self.norms = norms[order]
        self.starts = np.flatnonzero(np.r_[True, np.diff(self.norms) > 0])
        self.shell_ms = self.norms[self.starts]  # distinct norms ascending
        self.mult = np.diff(np.r_[self.starts, self.norms.size])
        self.ns_physical = FOUR_PI_SQ * self.shell_ms.astype(np.float64)
        # the coordinate box |xi_c| <= half holds the ball; xi sits at xi + half
        self.half = math.isqrt(self.radius_sq)
        self.box_shape = (2 * self.half + 1,) * dim
        self.box_size = math.prod(self.box_shape)
        self._orthant_index = None
        self._memo: dict = {}
        self._free = {np.dtype(np.float64): [], np.dtype(np.complex128): []}

    @classmethod
    @lru_cache(maxsize=6)
    def get(cls, dim: int, radius_sq: int) -> "ShellSums":
        """The one shared instance per ball; every caller builds it here."""
        return cls(dim, radius_sq)

    def weights(self, z) -> np.ndarray:
        """E_m(z) for every shell m <= radius_sq, as a real vector."""
        t = self.pts @ np.asarray(z, dtype=np.float64)
        np.multiply(t, 2.0 * math.pi, out=t)
        np.cos(t, out=t)
        return np.add.reduceat(t, self.starts)

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
        steps = (2.0 * math.pi) * np.arange(self.half + 1, dtype=np.float64)
        product = np.empty(weight.size, dtype=np.float64)
        factor = np.empty(weight.size, dtype=np.float64)
        for t, (k, j) in enumerate(zip(rows, cols)):
            if k == j:
                w[t] = self.mult
                continue
            tables = np.cos(np.outer(positions[k] - positions[j], steps))
            # every index lies in [0, sqrt(R)], so mode="clip" only skips the
            # buffered copy that the default bounds-checking mode makes of ``out``
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

    def index_of(self, xi) -> int:
        """Flat position of a lattice vector in the coordinate box, or -1
        outside the ball."""
        xi = np.asarray(xi, dtype=np.int64)
        if xi.shape != (self.dim,) or int((xi * xi).sum()) > self.radius_sq:
            return -1
        return int(np.ravel_multi_index(tuple(xi + self.half), self.box_shape))

    def ball_order(self) -> np.ndarray:
        """Flat box positions of the ball points, in point order."""
        return np.ravel_multi_index(tuple((self.pts + self.half).T), self.box_shape)

    def physical_box(self) -> np.ndarray:
        """4*pi^2*|xi|^2 on the flat coordinate box, +inf outside the ball, so
        that 1/(n - lambda) is exactly 0 there.  Built once per ball."""

        def build():
            box = np.full(self.box_size, np.inf)
            box[self.ball_order()] = FOUR_PI_SQ * self.norms.astype(np.float64)
            return box

        return self.memo("physical_box", build)

    def memo(self, key, build):
        """Lambda-free data of this ball: ``build()`` once per key, then the
        stored value.  The table is per process: a forked trial worker
        starts with the entries its parent had filled and keeps its own."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def take(self, dtype) -> np.ndarray:
        """A flat box-sized array of dtype (contents undefined) from this
        ball's pool; hand it back with ``give`` to reuse its memory.  Each
        process has its own pool and runs one trial at a time."""
        try:
            return self._free[np.dtype(dtype)].pop()
        except IndexError:
            return np.empty(self.box_size, dtype=dtype)

    def give(self, *arrays: np.ndarray) -> None:
        for arr in arrays:
            self._free[arr.dtype].append(arr)

    def pole_check(self, lam: SpectralParameter) -> None:
        ln = lam.lambda_norm
        if ln == int(ln):
            i = int(np.searchsorted(self.shell_ms, int(ln)))
            if i < self.shell_ms.size and self.shell_ms[i] == int(ln):
                raise OnSpectrumError(
                    f"lambda_norm {ln} hits the shell |xi|^2 = {int(ln)} exactly"
                )


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


def _as_diff(x, y, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (dim,) or y.shape != (dim,):
        raise ValidationError(f"points must be {dim}-vectors")
    return x - y


def regularized_pair(
    x, y, lam: SpectralParameter, sign: int, radius_sq: int
) -> RegularizedValue:
    """Sum over |xi|^2 <= radius_sq of [c_lambda(xi) - (4*pi^2*|xi|^2 - sign*i)^{-1}] e_xi(x-y).

    The summand decays like |xi|^{-4}, so coincident points are allowed and
    the reported tail bound is rigorous.  Evaluated from cosines at one
    difference vector (ShellSums.weights), it is the entry-by-entry test
    oracle for SecularWorkspace.symmetric: (1 + e^{-i theta}) H[k, j] =
    R_+(x_k, x_j) + e^{-i theta} R_-(x_k, x_j).
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    dim = len(x)
    z = _as_diff(x, y, dim)
    r = check_radius(radius_sq, lam)
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
