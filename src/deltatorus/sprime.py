"""Finite windows of the small-gap / small-coefficient subsequence.

A norm m_k is accepted into a window when two checkable conditions hold
with explicit constants:

  (i)  the physical double gap n_{k+1} - n_{k-1} is at most
       c_gap * n_k^{eps_prime};
  (ii) for every nonzero shift |zeta| <= n_k^eps and every annulus vector
       xi (annulus half-width L_0 = n_k^delta around n_k), the distance
       from 4*pi^2*|xi+zeta|^2 to the whole closed interval [n_k, n_{k+1}]
       is at least L_0 / c_coeff, i.e. |c_lambda(xi+zeta)| <= c_coeff/L_0
       uniformly in lambda.

Both checks are exhaustive over the finite index sets, so acceptance is
deterministic.  The annulus is ``lattice.annulus_points``, the point set the
Monte Carlo functionals use, and the shifts are the nonzero points of a
``lattice.ball_points`` ball; ``recheck_conclusion`` enumerates the annulus
again, shell by shell, as an independent check of the scan.

The asymptotic theory needs delta inside (theta/2, 1/2 - theta), with
theta = THETA the circle-law remainder exponent; finite windows are often
more interesting outside that range, so the range is recorded as a flag
rather than enforced.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRangeError, ValidationError
from .lattice import (
    FOUR_PI_SQ,
    SpectrumTable,
    annulus_norms,
    annulus_points,
    ball_points,
    shell_vectors,
)

#: circle-law remainder exponent (best known, used only for parameter bookkeeping)
THETA = 133.0 / 416.0


def epsilon_from_delta(delta: float) -> float:
    """The shift-range exponent (1/2 - THETA - delta) / 2."""
    eps = (0.5 - THETA - delta) / 2.0
    if not eps > 0:
        raise ValidationError(
            f"delta {delta} admits no positive shift exponent at theta {THETA}"
        )
    return eps


@dataclass(frozen=True)
class SPrimeParams:
    """Constants for the window conditions.

    eps defaults to the derived value (1/2 - THETA - delta)/2 when that is
    positive; for larger delta it must be supplied explicitly.
    """

    delta: float = 0.1
    eps: float | None = None
    eps_prime: float | None = None
    c_gap: float = 10.0
    c_coeff: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValidationError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not (self.c_gap > 0 and self.c_coeff > 0):
            raise ValidationError(
                f"condition constants must be positive, got {self.c_gap}, {self.c_coeff}"
            )
        if self.eps is None:
            object.__setattr__(self, "eps", epsilon_from_delta(self.delta))
        elif not 0 < self.eps < math.inf:
            raise ValidationError(f"eps must be finite and positive, got {self.eps}")
        if self.eps_prime is None:
            object.__setattr__(self, "eps_prime", self.eps)
        elif not 0 < self.eps_prime < math.inf:
            raise ValidationError(f"eps_prime must be finite and positive, got {self.eps_prime}")

    @property
    def delta_in_paper_range(self) -> bool:
        return THETA / 2.0 < self.delta < 0.5 - THETA

    def l0(self, m_center: int) -> float:
        """Annulus half-width L_0 = (4*pi^2*m_k)^delta."""
        return (FOUR_PI_SQ * m_center) ** self.delta

    def shift_bound(self, m_center: int) -> float:
        """Largest |zeta| tested: (4*pi^2*m_k)^eps."""
        return _n_power(m_center, self.eps, "eps")


def _n_power(m_center: int, exponent: float, name: str) -> float:
    """(4*pi^2*m_k)^exponent, or ValidationError where float64 overflows."""
    try:
        return (FOUR_PI_SQ * m_center) ** exponent
    except OverflowError:
        raise ValidationError(
            f"(4 pi^2 m_k)^{name} overflows float64 at m_k = {m_center}, {name} = {exponent}"
        ) from None


def shift_vectors(dim: int, bound: float) -> np.ndarray:
    """All nonzero integer vectors with |zeta| <= bound, lexicographic order.

    The bound varies slowly across a window, so the read-only array is
    cached per dimension and integer radius-squared.  A bound whose ball
    is too large for ``ball_points`` raises ValidationError."""
    radius_sq = bound * bound
    if not math.isfinite(radius_sq):
        raise ValidationError(f"the shift ball |zeta| <= {bound} is too large to enumerate")
    return _shift_vectors_cached(dim, math.floor(radius_sq))


@lru_cache(maxsize=64)
def _shift_vectors_cached(dim: int, radius_sq: int) -> np.ndarray:
    pts, norms = ball_points(dim, radius_sq)
    shifts = pts[norms > 0]
    shifts.flags.writeable = False
    return shifts


def gap_condition(table: SpectrumTable, m_center: int, params: SPrimeParams) -> bool:
    """Condition (i): 4*pi^2*(m_{k+1} - m_{k-1}) <= c_gap * n_k^{eps_prime}."""
    triple = table.gap_triple(m_center)
    return triple.outer_gap <= params.c_gap * _n_power(m_center, params.eps_prime, "eps_prime")


def _coeff_check(
    points: np.ndarray, shifts: np.ndarray, n_lo: float, n_hi: float, threshold: float
) -> bool:
    """Exhaustive scan: every |xi+zeta|^2, scaled by 4*pi^2, must keep
    distance >= threshold from [n_lo, n_hi].  The (shift, point) pairs go
    in blocks of about 2^20, which bounds the memory for a large eps."""
    step = max(1, (1 << 20) // max(1, points.shape[0]))
    for i in range(0, shifts.shape[0], step):
        block = shifts[i : i + step]
        m = sum((block[:, k, None] + points[None, :, k]) ** 2 for k in range(points.shape[1]))
        n = FOUR_PI_SQ * m
        if np.any(np.maximum(np.maximum(n_lo - n, n - n_hi), 0.0) < threshold):
            return False
    return True


def coeff_condition(table: SpectrumTable, m_center: int, params: SPrimeParams) -> bool:
    """Condition (ii), checked exhaustively over annulus points and shifts.

    The distance |4*pi^2*|xi+zeta|^2 - lambda| is monotone in lambda on
    either side of the interval, so the minimum over the closed interval is
    attained at an endpoint (or is zero when the shifted norm falls inside).
    An empty annulus makes the condition vacuously true.
    """
    triple = table.gap_triple(m_center)
    l0 = params.l0(m_center)
    points = annulus_points(table, m_center, l0)
    if points.shape[0] == 0:
        return True
    shifts = shift_vectors(table.dim, params.shift_bound(m_center))
    threshold = 0.0 if math.isinf(params.c_coeff) else l0 / params.c_coeff
    return _coeff_check(points, shifts, triple.n_center, triple.n_next, threshold)


@dataclass
class SPrimeWindow:
    params: SPrimeParams
    dim: int
    m_range: tuple[int, int]
    members: list[int]  # all spectrum norms scanned (both neighbors in table)
    gap_ok: list[bool]
    coeff_ok: list[bool]

    @property
    def heuristic_d3(self) -> bool:
        return self.dim == 3

    @property
    def accepted(self) -> list[int]:
        return [
            m
            for m, g, c in zip(self.members, self.gap_ok, self.coeff_ok)
            if g and c
        ]

    @property
    def density(self) -> float:
        if not self.members:
            return 0.0
        return len(self.accepted) / len(self.members)

    def sub_window(self, m_lo: int, m_hi: int) -> "SPrimeWindow":
        """``build_window`` over [m_lo, m_hi], a range inside this window's,
        on the same table: its members and their verdicts, read from this
        window instead of checked again.  Raises as build_window does."""
        if not m_lo < m_hi:
            raise ValidationError("need m_lo < m_hi")
        a, b = bisect.bisect_left(self.members, m_lo), bisect.bisect_right(self.members, m_hi)
        if a == b:
            raise ValidationError(f"no checkable spectrum members in [{m_lo}, {m_hi}]")
        return SPrimeWindow(self.params, self.dim, (m_lo, m_hi), self.members[a:b],
                            self.gap_ok[a:b], self.coeff_ok[a:b])

    def rows(self):
        for m, g, c in zip(self.members, self.gap_ok, self.coeff_ok):
            yield {"m_k": m, "gap_ok": g, "coeff_ok": c, "accepted": g and c}

    def summary(self) -> dict:
        p = self.params
        return {
            "params": {
                "delta": p.delta,
                "theta": THETA,
                "eps": p.eps,
                "eps_prime": p.eps_prime,
                "c_gap": p.c_gap,
                "c_coeff": p.c_coeff,
                "delta_in_paper_range": p.delta_in_paper_range,
            },
            "dim": self.dim,
            "range": list(self.m_range),
            "scanned": len(self.members),
            "accepted": len(self.accepted),
            "density": self.density,
            "heuristic_d3": self.heuristic_d3,
        }


def build_window(
    table: SpectrumTable, m_lo: int, m_hi: int, params: SPrimeParams
) -> SPrimeWindow:
    """Scan all spectrum members in [m_lo, m_hi] against both conditions.

    Members whose neighbor triple is not fully tabulated are skipped (they
    cannot be checked).  Deterministic: output depends only on the inputs.
    """
    if not m_lo < m_hi:
        raise ValidationError("need m_lo < m_hi")
    if m_hi > table.m_max:
        raise OutOfRangeError(f"window end {m_hi} exceeds table limit {table.m_max}")
    members, gaps, coeffs = [], [], []
    for m in table.norms_in(m_lo, m_hi).tolist():
        try:
            table.gap_triple(m)
        except OutOfRangeError:
            continue
        members.append(int(m))
        gaps.append(gap_condition(table, m, params))
        coeffs.append(coeff_condition(table, m, params))
    if not members:
        raise ValidationError(f"no checkable spectrum members in [{m_lo}, {m_hi}]")
    return SPrimeWindow(
        params=params,
        dim=table.dim,
        m_range=(m_lo, m_hi),
        members=members,
        gap_ok=gaps,
        coeff_ok=coeffs,
    )


def recheck_conclusion(
    table: SpectrumTable, window: SPrimeWindow, m_center: int
) -> bool:
    """Post-hoc verification of the accepted conclusion for one norm.

    Re-derives |c_lambda(xi+zeta)| <= c_coeff / L_0 at both interval
    endpoints directly from coefficient values, independently of the
    distance logic used during the scan.
    """
    params = window.params
    triple = table.gap_triple(m_center)
    l0 = params.l0(m_center)
    bound = params.c_coeff / l0
    shells = annulus_norms(table, m_center, l0)
    shifts = shift_vectors(table.dim, params.shift_bound(m_center))
    for m in shells:
        for xi in shell_vectors(table.dim, m):
            for zeta in shifts:
                ms = int(((xi + zeta) ** 2).sum())
                for lam in (triple.n_center, triple.n_next):
                    denom = FOUR_PI_SQ * ms - lam
                    if denom == 0.0 or abs(1.0 / denom) > bound:
                        return False
    return True
