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

from .errors import OnSpectrumError, ValidationError
from .lattice import FOUR_PI_SQ, _check_dim, ball_points

#: largest m * n * k of a matrix product that OpenBLAS (0.3.31, x86-64) runs
#: on its single-threaded small-matrix path; a larger one wakes its threads
ONE_THREAD_GEMM = 10**6


def one_thread_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b for 2-D arrays, in blocks whose product stays within
    ONE_THREAD_GEMM, so that no BLAS worker thread wakes and concurrent
    trials do not contend for cores.  b is split into blocks of
    ONE_THREAD_GEMM // (64 * b.shape[0]) columns, so that a row block of a
    has about 64 rows or more, and a into row blocks sized to each column
    block.  The blocks depend on the shapes alone, so equal inputs give
    equal bits."""
    width = max(1, ONE_THREAD_GEMM // max(1, 64 * b.shape[0]))
    for c in range(0, b.shape[1], width):
        block = b[:, c : c + width]
        step = max(1, ONE_THREAD_GEMM // max(1, block.shape[0] * block.shape[1]))
        for r in range(0, a.shape[0], step):
            np.matmul(a[r : r + step], block, out=out[r : r + step, c : c + width])
    return out


@lru_cache(maxsize=16)
def pair_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), read-only: column t of the pair weights of
    N = n points holds the pair (rows[t], cols[t]), rows[t] < cols[t]."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


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
    one difference vector; ``weights_many`` gets every pair k < j of a
    configuration, or a few shells of them and fixed linear functionals of
    the pairs' shell sums, from the nonnegative orthant of the ball and 1-D
    cosine tables.

    Fourier fields live on the coordinate box |xi_c| <= half = isqrt(R),
    flat in C order with xi at index xi + half; a Hermitian field stores
    the rows xi_0 >= 0 alone.  The ball keeps what every field on it
    shares: ``physical_box`` and the lambda-free data ``memo`` stores for
    ``measure`` and for the secular workspace.  Each field owns its arrays.
    """

    def __init__(self, dim: int, radius_sq: int):
        _check_dim(dim)
        self.dim = dim
        self.radius_sq = int(radius_sq)
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
        self._memo: dict = {}

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

    def weights_many(self, positions, rows=None) -> np.ndarray:
        """E_m(x_k - x_j) for every pair k < j of a configuration, or a few
        shells' rows of them and fixed linear functionals of them.

        With rows None, returns W of shape (S, N*(N-1)/2) whose column t
        holds the pair (k, j) = (pair_columns(N)[0][t], pair_columns(N)[1][t]).
        A shell is invariant under flipping the sign of any coordinate, and
        the 2^d flips of xi sum to prod_c 2*cos(2*pi*xi_c*z_c), so with
        z = x_k - x_j

            E_m(z) = sum over xi in shell m with every xi_c >= 0 of
                     2^{#nonzero xi_c} * prod_c cos(2*pi*xi_c*z_c),

        read from the pairs' 1-D cosine tables (``_cosine_tables``) over the
        orthant points of the ball (``_orthant``) and reduced into the
        shells by one bincount per pair.  A pair k = j would read E_m(0) =
        mult_m for any positions, so W has no column for it.

        With rows = ``project(near, f)`` for a slice near of the shells and
        an (r, S) matrix F of per-shell functionals, returns W[near] stacked
        on F @ W, of shape (near size + r, N*(N-1)/2); in d = 2 without
        forming W.
        """
        positions = self._positions(positions)
        tables = self._cosine_tables(positions)
        if rows is None:
            return self._pair_weights(tables)
        if self.dim == 2:
            return self._box_product(tables, *rows)
        near, f = rows
        w = self._pair_weights(tables)
        return np.vstack((w[near], one_thread_matmul(f, w, np.empty((f.shape[0], w.shape[1])))))

    def project(self, near: slice, f: np.ndarray) -> tuple:
        """The lambda-free form in which ``weights_many`` reads the shells
        near = slice(a, b), 0 <= a < b <= S, and the rows of an (r, S)
        matrix F.

        In d = 2 it is (near orthant points, box).  The near shells'
        orthant points are a run of ``_orthant`` in shell order: their
        coordinates (a, b), their weights 2^{#nonzero of a, b} and the
        offset of each shell's first point in the run.  A pair t with
        T_c[a, t] = cos(2*pi*a*z_c) reads a near shell as the sum over its
        points of weight * T_0[a, t] * T_1[b, t], one gather for every
        pair.  The box projection of F, box[r, a, b] = F[r, shell(a, b)] *
        2^{#nonzero of a, b} over the orthant box 0 <= a, b <= isqrt(R),
        zero outside the ball, is kept as r * (isqrt(R) + 1) rows of
        isqrt(R) + 1; a pair then reads F @ W as
        sum_{a, b} box[r, a, b] T_0[a, t] T_1[b, t], one blocked product of
        the box with T_1 and one reduction against T_0 for all pairs.  A
        d = 2 shell holds about 3 orthant points, so the box is a few times
        the size of F.  A d = 3 shell holds about 80, and the box would have
        (isqrt(R) + 1)^3 entries per row: 73 MB at R = 4000 and about
        0.5 GB at R = 16000, per process.  So in d = 3 the form is
        (near, F): W is formed, its near rows are the slice W[near], and
        F @ W is one blocked product.
        """
        if self.dim == 3:
            return near, f
        coords, weight, shell = self._orthant()
        lo, hi = np.searchsorted(shell, (near.start, near.stop))
        starts = np.searchsorted(shell[lo:hi], np.arange(near.start, near.stop))
        side = self.half + 1
        box = np.zeros((f.shape[0], side * side))
        box[:, coords[0] * side + coords[1]] = f[:, shell] * weight
        return (coords[:, lo:hi], weight[lo:hi], starts), box.reshape(-1, side)

    def _cosine_tables(self, positions: np.ndarray) -> np.ndarray:
        """T[c, a, t] = cos(2*pi*a*z_c) for 0 <= a <= isqrt(R) and the pair
        t of pair_columns(N), z = x_k - x_j: shape (d, isqrt(R) + 1, pairs)."""
        rows, cols = pair_columns(positions.shape[0])
        z = (positions[rows] - positions[cols]).T
        steps = (2.0 * math.pi) * np.arange(self.half + 1, dtype=np.float64)
        return np.cos(z[:, None, :] * steps[:, None])

    def _pair_weights(self, tables: np.ndarray) -> np.ndarray:
        """W from the pairs' cosine tables: one gather and bincount per pair."""
        coords, weight, shell = self._orthant()
        s = self.shell_ms.size
        w = np.empty((tables.shape[2], s), dtype=np.float64)
        product = np.empty(weight.size, dtype=np.float64)
        factor = np.empty(weight.size, dtype=np.float64)
        for t in range(w.shape[0]):
            # every index lies in [0, sqrt(R)], so mode="clip" only skips the
            # buffered copy that the default bounds-checking mode makes of ``out``
            np.take(tables[0, :, t], coords[0], out=product, mode="clip")
            for c in range(1, self.dim):
                np.take(tables[c, :, t], coords[c], out=factor, mode="clip")
                product *= factor
            product *= weight
            w[t] = np.bincount(shell, weights=product, minlength=s)
        return w.T

    def _box_product(self, tables: np.ndarray, points: tuple, box: np.ndarray) -> np.ndarray:
        """W[near] stacked on F @ W in d = 2 from the pairs' cosine tables,
        the near shells' orthant points and the box projection of F."""
        coords, weight, starts = points
        side, pairs = tables.shape[1:]
        near = tables[0][coords[0]] * tables[1][coords[1]]
        near *= weight[:, None]
        y = one_thread_matmul(box, tables[1], np.empty((box.shape[0], pairs)))
        return np.vstack((
            np.add.reduceat(near, starts, axis=0),
            np.einsum("rat,at->rt", y.reshape(box.shape[0] // side, side, pairs), tables[0]),
        ))

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

        def build():
            inside = np.flatnonzero(np.all(self.pts >= 0, axis=1))
            coords = np.ascontiguousarray(self.pts[inside].T, dtype=np.intp)
            weight = np.ldexp(1.0, np.count_nonzero(coords, axis=0))
            shell = np.repeat(np.arange(self.shell_ms.size), self.mult)[inside]
            return coords, weight, shell

        return self.memo("orthant", build)

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
