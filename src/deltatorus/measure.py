"""Eigenfunction Fourier data and the per-configuration functionals.

A new eigenfunction with coefficients d_j at positions x_j has Fourier data
D(xi) = c_lambda(xi) * w(xi), where w(xi) = sum_j d_j e_xi(-x_j) is the
position-dependent phase sum.  Everything here is a finite sum over a fixed
truncation ball, stored once and then queried read-only:

  * observable pairings  <e_zeta g, g> = sum_xi D(xi) conj(D(xi+zeta)),
  * the annulus split of the L^2 mass around the interval center,
  * the two-branch annulus functional (per shift zeta), the gap functional
    built on a fixed center-shell vector xi_0, the annulus-complement
    functional, and the deterministic shifted-coefficient sum with its
    count/width bound.

The annulus is the one ``lattice`` defines, |m - m_k| <= K for the integer
half-width K of L_0: on a field it is the contiguous range
``lattice.annulus_range`` of the norm-sorted ball points, and sigma_sum runs
over ``lattice.annulus_points``, the same points in the same order.

The two-branch sums freeze the coefficient at an interval endpoint, so
they dominate or minorize the lambda-dependent quantities uniformly over
the gap; that is what makes the per-sample inequality chain exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonSPrimeError, ValidationError
from .greens import ShellSums, SpectralParameter, TruncationPolicy
from .lattice import (
    FOUR_PI_SQ,
    GapTriple,
    SpectrumTable,
    annulus_half_width,
    annulus_points,
    annulus_range,
    shell_vectors,
)


@dataclass
class Observable:
    """Finitely supported trigonometric polynomial sum_zeta ahat(zeta) e_zeta."""

    coeffs: dict[tuple, complex]
    real_valued: bool = True

    def __post_init__(self):
        clean = {}
        for zeta, v in self.coeffs.items():
            clean[tuple(int(z) for z in zeta)] = complex(v)
        self.coeffs = clean
        if not self.coeffs:
            raise ValidationError("observable needs at least one coefficient")
        if self.real_valued:
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

    def truncated(self, shift_bound: float) -> "Observable":
        """Drop every mode with |zeta| > shift_bound (the zero mode stays)."""
        kept = {
            z: v
            for z, v in self.coeffs.items()
            if sum(c * c for c in z) <= shift_bound * shift_bound
        }
        if not kept:
            raise ValidationError(f"no modes survive |zeta| <= {shift_bound}")
        return Observable(kept, real_valued=self.real_valued)

    def to_json(self) -> dict:
        return {
            ",".join(str(c) for c in z): [v.real, v.imag] for z, v in sorted(self.coeffs.items())
        }

    @classmethod
    def from_json(cls, obj: dict, real_valued: bool = True) -> "Observable":
        coeffs = {}
        for key, (re, im) in obj.items():
            zeta = tuple(int(t) for t in key.split(","))
            coeffs[zeta] = complex(re, im)
        return cls(coeffs, real_valued=real_valued)

    @classmethod
    def load(cls, path, real_valued: bool = True) -> "Observable":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(json.load(f), real_valued=real_valued)


@dataclass
class FourierField:
    """Fourier data of one superposition over a truncation ball."""

    lam: SpectralParameter
    shells: ShellSums
    weights: np.ndarray  # (P,) complex, the phase sums w(xi)
    values: np.ndarray  # (P,) complex, D(xi) = c_lambda(xi) * w(xi)
    norm_sq: float = field(init=False)

    def __post_init__(self):
        # np.sum is single-threaded pairwise reduction: deterministic for a
        # fixed truncation set regardless of worker-thread counts
        self.abs_sq = np.abs(self.values) ** 2
        self.norm_sq = float(np.sum(self.abs_sq))

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

    def weight_at(self, xi) -> complex:
        i = self.shells.index_of(xi)
        if i < 0:
            raise ValidationError(f"{tuple(xi)} outside the truncation set")
        return complex(self.weights[i])


def assemble_field(
    d_coeffs: np.ndarray,
    positions: np.ndarray,
    lam: SpectralParameter,
    policy: TruncationPolicy,
    shells: ShellSums | None = None,
) -> FourierField:
    """Evaluate D(xi) on the truncation ball for given coefficients/positions.

    w = sum_j d_j phi_j over the positions' phase table phi_j(xi) = e_xi(-x_j)
    (ShellSums.phase_table), built here and released on return.
    """
    d_coeffs = np.asarray(d_coeffs, dtype=np.complex128)
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    dim = positions.shape[1]
    total = float(np.sum(np.abs(d_coeffs) ** 2))
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"coefficients must be normalized, got sum {total}")
    if shells is None:
        shells = ShellSums.get(dim, policy.resolve(lam, dim))
    shells.pole_check(lam)
    phi = shells.phase_table(positions)
    # one row at a time: a threaded BLAS product of this shape costs more
    # in thread wake-up than in arithmetic and makes concurrent trials contend
    w = phi[0] * d_coeffs[0]
    term = np.empty_like(w)
    for dj, row in zip(d_coeffs[1:], phi[1:]):
        np.multiply(row, dj, out=term)
        w += term
    c = 1.0 / (FOUR_PI_SQ * shells.norms.astype(np.float64) - lam.physical)
    return FourierField(lam=lam, shells=shells, weights=w, values=c * w)


def correlation_sum(field: FourierField, zeta) -> complex:
    """sum_xi D(xi) conj(D(xi + zeta)); missing xi + zeta contributes zero."""
    zeta = tuple(int(z) for z in zeta)
    if all(z == 0 for z in zeta):
        return complex(field.norm_sq, 0.0)
    src, dst = field.shells.shift_partners(zeta)
    terms = field.values[src] * np.conj(field.values[dst])
    return complex(np.sum(terms))


def pair_with_observable(field: FourierField, a: Observable) -> complex:
    """<a g, g> for the normalized field: sum_zeta ahat(zeta) S_zeta / |g|^2.

    With only the zero mode this is exactly 1 (the same stored sum divided
    by itself).
    """
    if field.norm_sq == 0.0:
        raise ValidationError("field has zero norm")
    acc = 0.0 + 0.0j
    for zeta, v in sorted(a.coeffs.items()):
        s = correlation_sum(field, zeta)
        acc += v * (s / field.norm_sq)
    return acc


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
    lo, hi = annulus_range(field.norms, m_center, width)
    annulus = float(np.sum(field.abs_sq[lo:hi]))
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


def functional_A(
    field: FourierField, zeta, interval: GapTriple, width: float
) -> float:
    """Two-branch shifted-coefficient sum over the annulus.

    Every annulus vector xi contributes c_{n_k}(xi+zeta)^2 |w(xi)|^2 when
    |xi+zeta|^2 < m_k and c_{n_{k+1}}(xi+zeta)^2 |w(xi)|^2 when
    |xi+zeta|^2 > m_{k+1}.  A shifted vector landing exactly on either
    endpoint shell is a configuration the window conditions exclude;
    it raises NonSPrimeError rather than being dropped silently.
    """
    zeta = np.asarray([int(z) for z in zeta], dtype=np.int64)
    if not np.any(zeta):
        raise ValidationError("zeta must be nonzero")
    lo, hi = annulus_range(field.norms, interval.center, width)
    if lo == hi:
        return 0.0
    pts = field.pts[lo:hi].astype(np.int64)
    shifted_norms = ((pts + zeta) ** 2).sum(axis=1)
    w, in_gap = _branch_weights(shifted_norms, interval)
    if np.any(in_gap):
        bad = shifted_norms[in_gap]
        raise NonSPrimeError(
            f"shift {tuple(zeta)} lands on endpoint shells {sorted(set(bad.tolist()))}"
        )
    contrib = w * np.abs(field.weights[lo:hi]) ** 2
    return float(np.sum(contrib))


def lex_first_shell_vector(dim: int, m: int) -> tuple:
    vecs = shell_vectors(dim, m)
    if vecs.shape[0] == 0:
        raise ValidationError(f"{m} is not representable in dimension {dim}")
    return tuple(int(c) for c in vecs[0])


def functional_B(field: FourierField, interval: GapTriple) -> float:
    """|w(xi_0)|^2 / (n_{k+1} - n_{k-1})^2 with xi_0 the lexicographically
    first vector on the center shell."""
    xi0 = lex_first_shell_vector(field.dim, interval.center)
    w = field.weight_at(xi0)
    return abs(w) ** 2 / interval.outer_gap**2


def functional_C(field: FourierField, interval: GapTriple, width: float) -> float:
    """Two-branch endpoint-coefficient sum over the annulus complement
    (within the truncation ball)."""
    lo, hi = annulus_range(field.norms, interval.center, width)
    norms = np.concatenate((field.norms[:lo], field.norms[hi:]))
    w, in_gap = _branch_weights(norms, interval)
    # complement vectors on the endpoint shells fall in neither branch and
    # carry weight zero by the strict inequalities
    w[in_gap] = 0.0
    weights = np.concatenate((field.weights[:lo], field.weights[hi:]))
    contrib = w * np.abs(weights) ** 2
    return float(np.sum(contrib))


def sigma_sum(
    table: SpectrumTable, interval: GapTriple, width: float, zeta
) -> tuple[float, float]:
    """Deterministic shifted two-branch sum over the annulus, plus the
    count bound #A / width^2.

    The annulus is ``lattice.annulus_points``: the same points, in the same
    order, that functional_A reads from the field.
    """
    zeta = np.asarray([int(z) for z in zeta], dtype=np.int64)
    if not np.any(zeta):
        raise ValidationError("zeta must be nonzero")
    pts = annulus_points(table, interval.center, width)
    if pts.shape[0] == 0:
        return 0.0, 0.0
    shifted_norms = ((pts + zeta) ** 2).sum(axis=1)
    w, _ = _branch_weights(shifted_norms, interval)
    return math.fsum(w), pts.shape[0] / width**2


def equidistribution_error(
    field: FourierField,
    a: Observable,
    gamma_d: float,
    eps: float,
    n_scatterers: int,
) -> tuple[float, float]:
    """(deviation of <a g, g> from the observable mean, theory envelope).

    The envelope is l1(ahat) * sqrt(N) * lambda^{-gamma_d + eps}; only the
    ratio is meaningful, no constant is asserted.
    """
    if not a.real_valued:
        raise ValidationError("equidistribution error needs a real observable")
    err = abs(pair_with_observable(field, a) - a.mean)
    envelope = a.l1_norm * math.sqrt(n_scatterers) * field.lam.physical ** (-gamma_d + eps)
    return float(err), float(envelope)


@dataclass
class FunctionalReport:
    """All per-configuration functionals for one field and interval."""

    a_vals: dict[tuple, float]
    b_val: float
    c_val: float
    sigma: dict[tuple, float]
    split: tuple[float, float]

    def to_json(self) -> dict:
        key = lambda z: ",".join(str(c) for c in z)
        return {
            "A": {key(z): v for z, v in sorted(self.a_vals.items())},
            "B": self.b_val,
            "C": self.c_val,
            "sigma": {key(z): v for z, v in sorted(self.sigma.items())},
            "split": list(self.split),
        }


def functional_report(
    field: FourierField,
    table: SpectrumTable,
    interval: GapTriple,
    width: float,
    shifts,
) -> FunctionalReport:
    a_vals = {}
    sig = {}
    for zeta in shifts:
        zt = tuple(int(z) for z in zeta)
        a_vals[zt] = functional_A(field, zt, interval, width)
        sig[zt] = sigma_sum(table, interval, width, zt)[0]
    return FunctionalReport(
        a_vals=a_vals,
        b_val=functional_B(field, interval),
        c_val=functional_C(field, interval, width),
        sigma=sig,
        split=split_annulus(field, interval.center, width),
    )
