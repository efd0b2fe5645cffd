"""Eigenfunction Fourier data and the per-configuration functionals.

A new eigenfunction with coefficients d_j at positions x_j has Fourier data
D(xi) = c_lambda(xi) * w(xi), where w(xi) = sum_j d_j e_xi(-x_j) is the
position-dependent phase sum.  Everything here is a finite sum over a fixed
truncation ball.  A field is stored once, on the ball's coordinate box
(ShellSums): w factors over the coordinates, so it is one real matrix product
written into the box, in row blocks that keep OpenBLAS on one core.  Real
coefficients, as every solver root has, make the field Hermitian,
D(-xi) = conj D(xi): only the box rows xi_0 >= 0 are computed and stored,
while complex coefficients store the whole box.  Every reader goes through
two per-ball tables: the stored position of each ball point (that of -xi
where the row of xi is not stored) and the row weights (2 on a stored row
whose mirror row is not stored, else 1).  The field is then queried
read-only; the norm, the correlations and the complement functional are
each one row-wise dot along the last box axis summed over the stored rows
with their weights, the rest are gathers at fixed stored positions:

  * observable pairings  <e_zeta g, g> = sum_xi D(xi) conj(D(xi+zeta)),
  * the annulus split of the L^2 mass around the interval center,
  * the two-branch annulus functional (per shift zeta), the gap functional
    built on a fixed center-shell vector xi_0, the annulus-complement
    functional, and the deterministic shifted-coefficient sum with its
    count/width bound.

The annulus is the one ``lattice`` defines, |m - m_k| <= K for the integer
half-width K of L_0: on a field it is the contiguous range
``lattice.annulus_range`` of the norm-sorted ball points, read through their
stored positions.  The lambda-free weights of A (per shift) and C (in ball
order, and on the stored rows) are built once per ball, interval and width
and kept on the ShellSums instance; the deterministic sum sigma_zeta is the
exact sum of A's weights, and the closed-form C column that of C's.

The two-branch sums freeze the coefficient at an interval endpoint, so
they dominate or minorize the lambda-dependent quantities uniformly over
the gap; that is what makes the per-sample inequality chain exact.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonSPrimeError, ValidationError
from .greens import ShellSums, SpectralParameter, check_radius, one_thread_matmul
from .lattice import (
    FOUR_PI_SQ,
    GapTriple,
    annulus_half_width,
    annulus_range,
)


@dataclass
class Observable:
    """Finitely supported real-valued trigonometric polynomial
    sum_zeta ahat(zeta) e_zeta, so ahat(-zeta) = conj(ahat(zeta))."""

    coeffs: dict[tuple, complex]

    def __post_init__(self):
        clean = {}
        for zeta, v in self.coeffs.items():
            value = complex(v)
            if not cmath.isfinite(value):
                raise ValidationError(f"observable coefficient at {zeta} must be finite, got {v!r}")
            clean[tuple(int(z) for z in zeta)] = value
        self.coeffs = clean
        if not self.coeffs:
            raise ValidationError("observable needs at least one coefficient")
        for zeta, v in self.coeffs.items():
            neg = tuple(-z for z in zeta)
            w = self.coeffs.get(neg, 0.0)
            if abs(np.conj(v) - w) > 1e-12 * max(1.0, abs(v)):
                raise ValidationError(
                    f"real-valued observable needs ahat(-zeta) = conj(ahat(zeta)); "
                    f"violated at {zeta}"
                )

    @property
    def l1_norm(self) -> float:
        return math.fsum(abs(v) for v in self.coeffs.values())

    @property
    def mean(self) -> complex:
        zero = tuple(0 for _ in next(iter(self.coeffs)))
        return self.coeffs.get(zero, 0.0 + 0.0j)

    def nonzero_shifts(self) -> list[tuple]:
        return sorted(z for z in self.coeffs if any(c != 0 for c in z))

    def to_json(self) -> dict:
        return {
            ",".join(str(c) for c in z): [v.real, v.imag] for z, v in sorted(self.coeffs.items())
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Observable":
        if not isinstance(obj, dict):
            raise ValidationError(f"an observable maps modes to [re, im] pairs, got {obj!r}")
        coeffs = {}
        for key, value in obj.items():
            if not (
                isinstance(value, (list, tuple))
                and len(value) == 2
                and all(isinstance(t, numbers.Real) and not isinstance(t, bool) for t in value)
            ):
                raise ValidationError(
                    f"observable value at {key!r} must be an [re, im] pair, got {value!r}"
                )
            re, im = value
            zeta = tuple(int(t) for t in key.split(","))
            coeffs[zeta] = complex(re, im)
        return cls(coeffs)

    @classmethod
    def load(cls, path) -> "Observable":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(json.load(f))


@dataclass(eq=False)
class FourierField:
    """Fourier data of one superposition on the coordinate box of its ball.

    The box arrays are flat in C order and hold the box rows from ``first``
    on, shape ``(side - first, side, ...)``: every row (first = 0) for
    complex coefficients, the rows xi_0 >= 0 (first = half) for real ones,
    whose field is Hermitian, D(-xi) = conj D(xi) and |w(-xi)| = |w(xi)|.
    D is exactly 0 outside the ball.  ``positions`` maps the ball order to
    stored positions, ``row_weights`` counts the box rows each stored row
    stands for.  The arrays come from the ball's array pool, and the field
    owns them: only ``harness.measure_config``, after its last read, hands
    them back with ``shells.give``.  ``weights`` and ``values`` are
    ball-order copies made when read, for callers off the trial path;
    ``weights`` is D / c_lambda.
    """

    lam: SpectralParameter
    shells: ShellSums
    first: int  # box row of xi_0 = first - half, the first stored row
    positions: np.ndarray  # ball order -> stored position, _stored_positions
    row_weights: np.ndarray  # box rows per stored row, _row_weights
    box_values: np.ndarray  # complex, D(xi) = c_lambda(xi) * w(xi)
    box_weights_sq: np.ndarray  # real, |w(xi)|^2
    norm_sq: float

    @property
    def dim(self) -> int:
        return self.shells.dim

    @property
    def radius_sq(self) -> int:
        return self.shells.radius_sq

    @property
    def pts(self) -> np.ndarray:
        return self.shells.pts

    @property
    def norms(self) -> np.ndarray:
        return self.shells.norms

    @property
    def shape(self) -> tuple:
        """Shape of the stored rows of the box."""
        box = self.shells.box_shape
        return (box[0] - self.first, *box[1:])

    @property
    def weights(self) -> np.ndarray:
        order = self.shells.ball_order()
        return self.values * (self.shells.physical_box()[order] - self.lam.physical)

    @property
    def values(self) -> np.ndarray:
        v = self.box_values[self.positions]
        # a point whose row is not stored reads D(xi) = conj D(-xi)
        np.conjugate(v, out=v, where=self.pts[:, 0] < self.first - self.shells.half)
        return v


def _stored_positions(shells: ShellSums, first: int) -> np.ndarray:
    """Ball order -> flat position in the box rows from ``first`` on: that of
    xi, or of -xi where the row of xi is not stored.  With first = 0 these
    are the box positions of the ball points.  Built once per ball and
    first row, from the ball's points."""

    def build():
        pts = shells.pts
        q = np.where(pts[:, :1] < first - shells.half, -pts, pts) + shells.half
        q[:, 0] -= first
        box = shells.box_shape
        return np.ravel_multi_index(tuple(q.T), (box[0] - first, *box[1:]))

    return shells.memo(("positions", first), build)


def _row_weights(shells: ShellSums, first: int) -> np.ndarray:
    """Per stored row xi_0 (box rows from ``first`` on): 2 where the mirror
    row -xi_0 is not stored, else 1.  Shaped (rows, 1, ...) to broadcast
    against the row dots of a stored array; built once per ball and first
    row."""

    def build():
        xi0 = np.arange(first, shells.box_shape[0]) - shells.half
        w = np.where(-xi0 < first - shells.half, 2.0, 1.0)
        return w.reshape((-1,) + (1,) * (shells.dim - 2))

    return shells.memo(("row weights", first), build)


def _abs_sq(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _box_dot(x: np.ndarray, y: np.ndarray, weights):
    """sum of weights * conj(x) * y over two box arrays of one shape: one
    vecdot along the last axis, each row dot times its row's weight (1 or
    2, so exactly), then a pairwise sum over the rows.  Each row is one dot
    of fixed length, so the bits depend on the shape alone."""
    return np.add.reduce(np.vecdot(x, y) * weights, axis=None)


def assemble_field(
    d_coeffs: np.ndarray,
    positions: np.ndarray,
    lam: SpectralParameter,
    radius_sq: int,
) -> FourierField:
    """Evaluate D(xi) on the ball |xi|^2 <= radius_sq for given coefficients/positions.

    The phase e_xi(-x_j) factors over the coordinates, so
    w = sum_j (d_j A_j) (x) B_j [(x) C_j] with the 1-D tables
    exp(-2*pi*i*a*x_{j,c}), a = -half..half.  That is one real matrix
    product written straight into the float64 view of a pooled array:
    rows are every box axis but the last (the per-scatterer product of the
    first tables in d = 3), the inner dimension is re and im of d_j times
    those rows (k = 2N), and the columns are the last table interleaved
    re/im.  It runs in row blocks through ``one_thread_matmul``, so OpenBLAS
    stays on one core.  |w|^2 is kept and w is scaled in place into D;
    c_lambda is 1/(n - lambda) on ``physical_box``, exactly 0 outside the
    ball, and norm_sq is the weighted sum of the row dots of D with itself.

    Real coefficients (every solver root) make the field Hermitian,
    w(-xi) = conj w(xi), and c_lambda is even.  Then only the box rows
    xi_0 >= 0 are computed, first table included, and stored: the rows
    xi_0 < 0 are read through ``positions`` and counted by
    ``row_weights``.  Complex coefficients build the whole box.
    """
    d_coeffs = np.asarray(d_coeffs, dtype=np.complex128)
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    dim = positions.shape[1]
    if d_coeffs.shape != (positions.shape[0],):
        raise ValidationError(
            f"need one coefficient per position, got shape {d_coeffs.shape} "
            f"for {positions.shape[0]} positions"
        )
    total = float(np.sum(np.abs(d_coeffs) ** 2))
    if not abs(total - 1.0) <= 1e-9:  # so that a NaN sum fails too
        raise ValidationError(f"coefficients must be normalized, got sum {total}")
    shells = ShellSums.get(dim, check_radius(radius_sq, lam))
    shells.pole_check(lam)
    half, side = shells.half, shells.box_shape[0]
    # the first stored row of the box: xi_0 = 0 for real d, else -half
    first = half if not d_coeffs.imag.any() else 0
    coords = np.arange(-half, half + 1, dtype=np.float64)
    tables = [
        np.exp((-2j * math.pi) * np.outer(positions[:, c], coords[first:] if c == 0 else coords))
        for c in range(dim)
    ]
    head = tables[0] * d_coeffs[:, None]
    for table in tables[1:-1]:
        head = (head[:, :, None] * table[:, None, :]).reshape(d_coeffs.size, -1)
    # real form of head.T @ last: [Re, Im] of head against the rows
    # [last; i * last] read as interleaved (re, im) pairs
    left = np.ascontiguousarray(np.concatenate((head.real, head.imag)).T)
    right = np.concatenate((tables[-1], 1j * tables[-1])).view(np.float64)
    size = left.shape[0] * side
    values, w_sq, c = (shells.take(t, size) for t in (np.complex128, np.float64, np.float64))
    one_thread_matmul(left, right, out=values.view(np.float64).reshape(left.shape[0], -1))
    np.multiply(values.real, values.real, out=w_sq)
    np.multiply(values.imag, values.imag, out=c)
    w_sq += c
    np.subtract(shells.physical_box()[shells.box_size - size :], lam.physical, out=c)
    np.divide(1.0, c, out=c)
    values *= c
    shells.give(c)
    row_weights = _row_weights(shells, first)
    rows = values.view(np.float64).reshape(side - first, *shells.box_shape[1:-1], 2 * side)
    return FourierField(
        lam=lam, shells=shells, first=first, positions=_stored_positions(shells, first),
        row_weights=row_weights, box_values=values, box_weights_sq=w_sq,
        norm_sq=float(_box_dot(rows, rows, row_weights)),
    )


def _shift(zeta, dim: int) -> tuple:
    zeta = tuple(map(int, zeta))
    if len(zeta) != dim:
        raise ValidationError(f"shift {zeta} needs {dim} components")
    return zeta


def correlation_sum(field: FourierField, zeta) -> complex:
    """sum_xi D(xi) conj(D(xi + zeta)); missing xi + zeta contributes zero.

    A shift whose first nonzero component is negative is the conjugate of
    its opposite, so S_{-zeta} == conj(S_zeta) holds exactly, and S_0 is
    norm_sq.  Otherwise zeta_0 >= 0, and the sum is one weighted row-wise
    dot of two overlapping slices of the stored rows, weighted by the row
    of xi + zeta, plus a band.  On the whole box the weights are 1 and the
    band is empty.  On a Hermitian field the term at xi equals the term at
    -xi - zeta, so

        zeta_0 = 0:   S = 2 sum_{xi_0 > 0} + sum_{xi_0 = 0},
        zeta_0 >= 1:  S = 2 sum_{xi_0 >= 0} + sum_{-zeta_0 < xi_0 < 0},

    and the band rows -zeta_0 < xi_0 < 0 read D(xi) = conj D(-xi) as the
    conjugate of the stored rows 1 .. zeta_0 - 1, reversed along every axis.
    """
    zeta = _shift(zeta, field.dim)
    if all(z == 0 for z in zeta):
        return complex(field.norm_sq, 0.0)
    if next(z for z in zeta if z != 0) < 0:
        return correlation_sum(field, tuple(-z for z in zeta)).conjugate()
    half, side = field.shells.half, field.shells.box_shape[0]
    if any(abs(z) >= side for z in zeta):
        return 0j
    box = field.box_values.reshape(field.shape)
    z0, low, rows = zeta[0], field.first - half, box.shape[0]
    src = (slice(None),) + tuple(slice(max(-z, 0), side - max(z, 0)) for z in zeta[1:])
    dst = (slice(None),) + tuple(slice(max(z, 0), side - max(-z, 0)) for z in zeta[1:])
    total = _box_dot(box[z0:][dst], box[: max(rows - z0, 0)][src], field.row_weights[z0:])
    # the band: rows xi_0 = -eta, a <= eta <= b, below the first stored row,
    # whose D(xi) is conj D(-xi) and whose xi + zeta lies in a stored row
    a, b = max(1 - low, z0 - half), min(z0 - 1, half)
    if a <= b:
        band = np.conjugate(box[a - low : b - low + 1][(slice(None, None, -1),) * field.dim])
        total += _box_dot(box[z0 - b - low : z0 - a - low + 1][dst], band[src], 1.0)
    return complex(total)


def pair_with_observable(field: FourierField, a: Observable) -> complex:
    """<a g, g> for the normalized field: sum_zeta ahat(zeta) S_zeta / |g|^2.

    Each +-zeta pair is summed once (S_{-zeta} = conj(S_zeta)).  With only
    the zero mode this is exactly 1 (the same stored sum divided by itself).
    """
    if field.norm_sq == 0.0:
        raise ValidationError("field has zero norm")
    sums: dict[tuple, complex] = {}
    acc = 0.0 + 0.0j
    for zeta, v in sorted(a.coeffs.items()):
        opposite = sums.get(tuple(-z for z in zeta))
        s = correlation_sum(field, zeta) if opposite is None else opposite.conjugate()
        sums[zeta] = s
        acc += v * (s / field.norm_sq)
    return acc


def _annulus_span(shells: ShellSums, m_center: int, width: float) -> tuple[int, int]:
    """The annulus as the range lo:hi of the ball order, built once per ball,
    center and width."""
    return shells.memo(("annulus", m_center, width),
                       lambda: annulus_range(shells.norms, m_center, width))


def split_annulus(field: FourierField, m_center: int, width: float) -> tuple[float, float]:
    """(annulus mass, complement mass) of |D|^2; parts reassemble exactly.

    The complement part is derived as norm_sq minus the annulus part so the
    two components always sum to the stored norm bit-for-bit.
    """
    if not width > 0:
        raise ValidationError("width must be positive")
    # the annulus |n - m_center| <= K may leave the ball only by swallowing it
    k = annulus_half_width(width, field.radius_sq + abs(m_center))
    if m_center + k > field.radius_sq and k < m_center:
        raise ValidationError(
            f"truncation ball |xi|^2 <= {field.radius_sq} does not cover the annulus"
        )
    lo, hi = _annulus_span(field.shells, m_center, width)
    if hi - lo == field.pts.shape[0]:
        # an empty complement has mass exactly 0, as functional_C is then 0
        return field.norm_sq, 0.0
    annulus = float(np.add.reduce(_abs_sq(field.box_values[field.positions[lo:hi]])))
    return annulus, field.norm_sq - annulus


def _branch_weights(
    shifted_norms: np.ndarray, interval: GapTriple
) -> tuple[np.ndarray, np.ndarray]:
    """Squared endpoint coefficients for the below-gap / above-gap branches."""
    low = shifted_norms < interval.center
    high = shifted_norms > interval.next
    w = np.zeros(shifted_norms.shape, dtype=np.float64)
    nlow = FOUR_PI_SQ * shifted_norms[low].astype(np.float64) - interval.n_center
    nhigh = FOUR_PI_SQ * shifted_norms[high].astype(np.float64) - interval.n_next
    w[low] = 1.0 / nlow**2
    w[high] = 1.0 / nhigh**2
    return w, ~(low | high)


def _shift_weights(shells: ShellSums, zeta: tuple, interval: GapTriple, width: float):
    """(two-branch weights at xi + zeta for the annulus points xi in ball
    order, endpoint norms that xi + zeta lands on), built once per ball,
    shift, interval and width."""

    def build():
        lo, hi = _annulus_span(shells, interval.center, width)
        shifted_norms = ((shells.pts[lo:hi].astype(np.int64) + zeta) ** 2).sum(axis=1)
        w, in_gap = _branch_weights(shifted_norms, interval)
        return w, sorted(set(shifted_norms[in_gap].tolist()))

    return shells.memo(("A", zeta, interval, width), build)


def functional_A(
    field: FourierField, zeta, interval: GapTriple, width: float
) -> float:
    """Two-branch shifted-coefficient sum over the annulus.

    Every annulus vector xi contributes c_{n_k}(xi+zeta)^2 |w(xi)|^2 when
    |xi+zeta|^2 < m_k and c_{n_{k+1}}(xi+zeta)^2 |w(xi)|^2 when
    |xi+zeta|^2 > m_{k+1}.  A shifted vector landing exactly on either
    endpoint shell is a configuration the window conditions exclude;
    it raises NonSPrimeError (on every call) rather than being dropped
    silently.
    """
    zeta = _shift(zeta, field.dim)
    if not any(zeta):
        raise ValidationError("zeta must be nonzero")
    w, landed = _shift_weights(field.shells, zeta, interval, width)
    if landed:
        raise NonSPrimeError(f"shift {zeta} lands on endpoint shells {landed}")
    if w.size == 0:
        return 0.0
    lo, hi = _annulus_span(field.shells, interval.center, width)
    return float(np.add.reduce(w * field.box_weights_sq[field.positions[lo:hi]]))


def functional_B(field: FourierField, interval: GapTriple) -> float:
    """|w(xi_0)|^2 / (n_{k+1} - n_{k-1})^2 with xi_0 the lexicographically
    first vector on the center shell, the shell's first point in the ball's
    (norm, lexicographic) order."""
    shells = field.shells

    def build():
        s = int(np.searchsorted(shells.shell_ms, interval.center))
        if s == shells.shell_ms.size or shells.shell_ms[s] != interval.center:
            return -1
        return int(shells.starts[s])

    i = shells.memo(("xi0", interval.center), build)
    if i < 0:
        raise ValidationError(f"center shell {interval.center} outside the truncation set")
    return float(field.box_weights_sq[field.positions[i]]) / interval.outer_gap**2


def _complement_weights(shells: ShellSums, interval: GapTriple, width: float) -> np.ndarray:
    """Two-branch endpoint weights in ball order: nonzero on the points
    outside the annulus and off the endpoint shells."""
    lo, hi = _annulus_span(shells, interval.center, width)
    # a weight depends on |xi|^2 alone, so it is built per shell; complement
    # vectors on the endpoint shells fall in neither branch and carry weight
    # zero by the strict inequalities
    w = np.repeat(_branch_weights(shells.shell_ms, interval)[0], shells.mult)
    w[lo:hi] = 0.0
    return w


def functional_C(field: FourierField, interval: GapTriple, width: float) -> float:
    """Two-branch endpoint-coefficient sum over the annulus complement
    (within the truncation ball)."""
    shells = field.shells

    def build():
        # on the stored rows, built once per ball, interval, width and first
        # row; xi and -xi write the same weight
        box = np.zeros(field.box_weights_sq.size)
        box[field.positions] = _complement_weights(shells, interval, width)
        return box

    weights = shells.memo(("C", interval, width, field.first), build)
    return float(_box_dot(weights.reshape(field.shape),
                          field.box_weights_sq.reshape(field.shape), field.row_weights))


def sigma_sum(
    shells: ShellSums, interval: GapTriple, width: float, zeta
) -> tuple[float, float]:
    """Deterministic shifted two-branch sum over the annulus, plus the
    count bound #A / width^2.

    The sum is the exact (math.fsum) sum of the weights functional_A reads
    for this shift, so it covers the same points of the same ball.
    """
    zeta = _shift(zeta, shells.dim)
    if not any(zeta):
        raise ValidationError("zeta must be nonzero")
    w = _shift_weights(shells, zeta, interval, width)[0]
    return math.fsum(w), w.size / width**2


def equidistribution_error(
    field: FourierField,
    a: Observable,
    gamma_d: float,
    n_scatterers: int,
) -> tuple[float, float]:
    """(deviation of <a g, g> from the observable mean, theory envelope).

    The envelope is l1(ahat) * sqrt(N) * lambda^{-gamma_d}; only the ratio
    is meaningful, no constant is asserted.
    """
    err = abs(pair_with_observable(field, a) - a.mean)
    envelope = a.l1_norm * math.sqrt(n_scatterers) * field.lam.physical ** -gamma_d
    return float(err), float(envelope)
