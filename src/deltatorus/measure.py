"""Eigenfunction Fourier data and the per-configuration functionals.

A new eigenfunction with coefficients d_j at positions x_j has Fourier data
D(xi) = c_lambda(xi) * w(xi), where w(xi) = sum_j d_j e_xi(-x_j) is the
position-dependent phase sum.  Everything here is a finite sum over a fixed
truncation ball.  A field is stored once, on the ball's coordinate box
(ShellSums): w factors over the coordinates, so it is one real matrix product
written into the box, in row blocks that keep OpenBLAS on one core.  Real
coefficients, as every solver root has, make the field Hermitian: only
the box rows xi_0 >= 0 are computed and the rows xi_0 < 0 are their
conjugate mirror, while complex coefficients build the whole box.  The
field is then queried read-only; the norm, the correlations and the
complement functional are each one row-wise dot along the last box axis
summed over the rows, the rest are gathers at fixed box positions:

  * observable pairings  <e_zeta g, g> = sum_xi D(xi) conj(D(xi+zeta)),
  * the annulus split of the L^2 mass around the interval center,
  * the two-branch annulus functional (per shift zeta), the gap functional
    built on a fixed center-shell vector xi_0, the annulus-complement
    functional, and the deterministic shifted-coefficient sum with its
    count/width bound.

The annulus is the one ``lattice`` defines, |m - m_k| <= K for the integer
half-width K of L_0: on a field it is the contiguous range
``lattice.annulus_range`` of the norm-sorted ball points, read through their
box positions.  The lambda-free weights of A (per shift) and C (on the box)
are built once per ball, interval and width and kept on the ShellSums
instance; the deterministic sum sigma_zeta is the exact sum of A's weights,
and the closed-form C column that of C's.

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

    The box arrays are flat in the C order of ``ShellSums.box_shape``; D is
    exactly 0 outside the ball.  They come from the ball's array pool, and
    the field owns them: only ``harness.measure_config``, after its last
    read, hands them back with ``shells.give``.  ``weights`` and ``values``
    are ball-order copies made when read, for callers off the trial path;
    ``weights`` is D / c_lambda.
    """

    lam: SpectralParameter
    shells: ShellSums
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
    def weights(self) -> np.ndarray:
        order = self.shells.ball_order()
        return self.box_values[order] * (self.shells.physical_box()[order] - self.lam.physical)

    @property
    def values(self) -> np.ndarray:
        return self.box_values[self.shells.ball_order()]


def _abs_sq(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _box_dot(x: np.ndarray, y: np.ndarray):
    """sum of conj(x) * y over two box arrays of one shape: one vecdot along
    the last axis, then a pairwise sum over the rows.  Each row is one dot
    of fixed length, so the bits depend on the shape alone."""
    return np.sum(np.vecdot(x, y))


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
    product written straight into the float64 view of a pooled box array:
    rows are every box axis but the last (the per-scatterer product of the
    first tables in d = 3), the inner dimension is re and im of d_j times
    those rows (k = 2N), and the columns are the last table interleaved
    re/im.  It runs in row blocks through ``one_thread_matmul``, so OpenBLAS
    stays on one core.  |w|^2 is kept and w is scaled in place into D;
    c_lambda is 1/(n - lambda) on ``physical_box``, exactly 0 outside the
    ball, and norm_sq is the row-wise dot of D with itself over the box.

    Real coefficients (every solver root) make the field Hermitian,
    w(-xi) = conj w(xi), and c_lambda is even.  Then only the box rows
    xi_0 >= 0 are computed, first table included, and the rows xi_0 < 0
    are their mirror: the conjugate of D and a copy of |w|^2 with every
    coordinate negated.  Complex coefficients build the whole box.
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
    # the first computed row of the box: xi_0 = 0 for real d, else -half
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
    values, w_sq, c = shells.take(np.complex128), shells.take(np.float64), shells.take(np.float64)
    lo = first * side ** (dim - 1)
    part, part_sq, part_c = values[lo:], w_sq[lo:], c[lo:]
    one_thread_matmul(left, right, out=part.view(np.float64).reshape(left.shape[0], -1))
    np.multiply(part.real, part.real, out=part_sq)
    np.multiply(part.imag, part.imag, out=part_c)
    part_sq += part_c
    np.subtract(shells.physical_box()[lo:], lam.physical, out=part_c)
    np.divide(1.0, part_c, out=part_c)
    part *= part_c
    shells.give(c)
    if first:
        # row -a is row a reversed along every trailing axis as well
        box, box_sq = values.reshape(side, -1), w_sq.reshape(side, -1)
        np.conjugate(box[first + 1 :][::-1, ::-1], out=box[:first])
        np.copyto(box_sq[:first], box_sq[first + 1 :][::-1, ::-1])
    rows = values.view(np.float64).reshape(-1, 2 * side)
    return FourierField(
        lam=lam, shells=shells, box_values=values, box_weights_sq=w_sq,
        norm_sq=float(_box_dot(rows, rows)),
    )


def _shift(zeta, dim: int) -> tuple:
    zeta = tuple(int(z) for z in zeta)
    if len(zeta) != dim:
        raise ValidationError(f"shift {zeta} needs {dim} components")
    return zeta


def correlation_sum(field: FourierField, zeta) -> complex:
    """sum_xi D(xi) conj(D(xi + zeta)); missing xi + zeta contributes zero.

    One row-wise dot of two overlapping slices of the box.  A shift whose first
    nonzero component is negative is the conjugate of its opposite, so
    S_{-zeta} == conj(S_zeta) holds exactly.
    """
    zeta = _shift(zeta, field.dim)
    if all(z == 0 for z in zeta):
        return complex(field.norm_sq, 0.0)
    if next(z for z in zeta if z != 0) < 0:
        return correlation_sum(field, tuple(-z for z in zeta)).conjugate()
    shells = field.shells
    side = shells.box_shape[0]
    if any(abs(z) >= side for z in zeta):
        return 0j
    box = field.box_values.reshape(shells.box_shape)
    src = tuple(slice(max(-z, 0), side - max(z, 0)) for z in zeta)
    dst = tuple(slice(max(z, 0), side - max(-z, 0)) for z in zeta)
    return complex(_box_dot(box[dst], box[src]))


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


def _annulus_index(shells: ShellSums, m_center: int, width: float) -> np.ndarray:
    """Flat box positions of the annulus points, in ball order."""

    def build():
        lo, hi = annulus_range(shells.norms, m_center, width)
        return shells.ball_order()[lo:hi]

    return shells.memo(("annulus", m_center, width), build)


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
    index = _annulus_index(field.shells, m_center, width)
    if index.size == field.pts.shape[0]:
        # an empty complement has mass exactly 0, as functional_C is then 0
        return field.norm_sq, 0.0
    annulus = float(np.sum(_abs_sq(field.box_values[index])))
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
    """(annulus box positions, two-branch weights at xi + zeta, endpoint
    norms that xi + zeta lands on), built once per ball, shift, interval and
    width."""

    def build():
        lo, hi = annulus_range(shells.norms, interval.center, width)
        shifted_norms = ((shells.pts[lo:hi].astype(np.int64) + zeta) ** 2).sum(axis=1)
        w, in_gap = _branch_weights(shifted_norms, interval)
        landed = sorted(set(shifted_norms[in_gap].tolist()))
        return _annulus_index(shells, interval.center, width), w, landed

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
    index, w, landed = _shift_weights(field.shells, zeta, interval, width)
    if landed:
        raise NonSPrimeError(f"shift {zeta} lands on endpoint shells {landed}")
    if index.size == 0:
        return 0.0
    return float(np.sum(w * field.box_weights_sq[index]))


def functional_B(field: FourierField, interval: GapTriple) -> float:
    """|w(xi_0)|^2 / (n_{k+1} - n_{k-1})^2 with xi_0 the lexicographically
    first vector on the center shell, the shell's first point in the ball's
    (norm, lexicographic) order."""
    shells = field.shells

    def build():
        s = int(np.searchsorted(shells.shell_ms, interval.center))
        if s == shells.shell_ms.size or shells.shell_ms[s] != interval.center:
            return -1
        return int(shells.ball_order()[shells.starts[s]])

    i = shells.memo(("xi0", interval.center), build)
    if i < 0:
        raise ValidationError(f"center shell {interval.center} outside the truncation set")
    return float(field.box_weights_sq[i]) / interval.outer_gap**2


def _complement_weights(shells: ShellSums, interval: GapTriple, width: float) -> np.ndarray:
    """Two-branch endpoint weights on the box: nonzero on the ball points
    outside the annulus and off the endpoint shells.  Built once per ball,
    interval and width."""

    def build():
        lo, hi = annulus_range(shells.norms, interval.center, width)
        # complement vectors on the endpoint shells fall in neither branch and
        # carry weight zero by the strict inequalities
        w = _branch_weights(shells.norms, interval)[0]
        w[lo:hi] = 0.0
        box = np.zeros(shells.box_size)
        box[shells.ball_order()] = w
        return box

    return shells.memo(("C", interval, width), build)


def functional_C(field: FourierField, interval: GapTriple, width: float) -> float:
    """Two-branch endpoint-coefficient sum over the annulus complement
    (within the truncation ball)."""
    shells = field.shells
    rows = (-1, shells.box_shape[-1])
    weights = _complement_weights(shells, interval, width).reshape(rows)
    return float(_box_dot(weights, field.box_weights_sq.reshape(rows)))


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
    w = _shift_weights(shells, zeta, interval, width)[1]
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
