"""Unperturbed torus spectrum and lattice point sets as exact integer arithmetic.

The Laplacian eigenvalues on the unit torus are n = 4*pi^2*m where m runs
over the integers representable as a sum of d squares (d = 2 or 3).  All
set membership, gap and annulus logic in this module is done on the exact
integer norms m; the physical factor 4*pi^2 enters only when a real-valued
width or spectral parameter has to be compared against the table.

This is the only module that turns a radius or a width into lattice points:
``ball_points`` enumerates a ball, ``annulus_half_width`` maps a physical
half-width to the integer half-width K of the annulus |n - m_k| <= K, and
``annulus_points`` lists the annulus vectors in ball order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import OutOfRangeError, ValidationError

FOUR_PI_SQ = 4.0 * math.pi**2

#: enumeration ceilings for the direct coordinate-box loop
M_MAX_LIMIT = {2: 10**7, 3: 10**5}

#: largest ball ``ball_points`` (and so ShellSums) will enumerate, in estimated points
MAX_BALL_POINTS = 32_000_000


def _check_dim(dim: int) -> None:
    if dim not in (2, 3):
        raise ValidationError(f"dimension must be 2 or 3, got {dim!r}")


def _r_counts_d2(m_max: int) -> np.ndarray:
    """counts[m] = #{(a,b) in Z^2 : a^2+b^2 = m} for 0 <= m <= m_max."""
    counts = np.zeros(m_max + 1, dtype=np.int64)
    for a in range(math.isqrt(m_max) + 1):
        rem = m_max - a * a
        b = np.arange(math.isqrt(rem) + 1)
        vals = a * a + b * b  # strictly increasing in b -> unique indices
        w = np.where(b > 0, 2, 1).astype(np.int64)
        if a > 0:
            w *= 2
        counts[vals] += w
    return counts


def _r_counts_d3(m_max: int) -> np.ndarray:
    """counts[m] = #{(a,b,c) in Z^3 : a^2+b^2+c^2 = m}, via the d=2 table."""
    r2 = _r_counts_d2(m_max)
    counts = np.zeros(m_max + 1, dtype=np.int64)
    for c in range(math.isqrt(m_max) + 1):
        w = 1 if c == 0 else 2
        counts[c * c :] += w * r2[: m_max + 1 - c * c]
    return counts


@dataclass(frozen=True)
class GapTriple:
    """Three consecutive spectrum entries m_{k-1} < m_k < m_{k+1}."""

    prev: int
    center: int
    next: int

    def __post_init__(self):
        if not self.prev < self.center < self.next:
            raise ValidationError(f"gap triple not ascending: {self}")

    @property
    def n_center(self) -> float:
        return FOUR_PI_SQ * self.center

    @property
    def n_next(self) -> float:
        return FOUR_PI_SQ * self.next

    @property
    def outer_gap(self) -> float:
        """Physical width n_{k+1} - n_{k-1}."""
        return FOUR_PI_SQ * (self.next - self.prev)


@dataclass
class SpectrumTable:
    """Ordered norms m with multiplicities r, for m <= m_max.

    Immutable after construction; every query is read-only.
    """

    dim: int
    m_max: int
    ms: np.ndarray
    rs: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_dim(self.dim)
        self.ms = np.asarray(self.ms, dtype=np.int64)
        self.rs = np.asarray(self.rs, dtype=np.int64)
        if self.ms.size == 0:
            raise ValidationError("empty spectrum table")
        if np.any(np.diff(self.ms) <= 0):
            raise ValidationError("table norms must be strictly ascending")
        if np.any(self.rs < 1):
            raise ValidationError("multiplicities must be >= 1")
        self._cum = np.cumsum(self.rs)

    # -- queries ---------------------------------------------------------

    def index_of(self, m: int) -> int:
        """Index of norm m in the table, or -1 if not representable."""
        if m > self.m_max:
            raise OutOfRangeError(f"norm {m} exceeds table limit {self.m_max}")
        i = int(np.searchsorted(self.ms, m))
        if i < len(self.ms) and self.ms[i] == m:
            return i
        return -1

    def contains(self, m: int) -> bool:
        return self.index_of(m) >= 0

    def multiplicity(self, m: int) -> int:
        i = self.index_of(m)
        return int(self.rs[i]) if i >= 0 else 0

    def circle_count(self, x: float) -> tuple[int, float]:
        """(#{xi : |xi|^2 <= x}, count minus the volume term).

        The volume term is pi*x in dimension 2 and (4pi/3)*x^{3/2} in
        dimension 3.
        """
        if x < 0:
            raise ValidationError("radius-squared must be nonnegative")
        if x > self.m_max:
            raise OutOfRangeError(f"{x} exceeds table limit {self.m_max}")
        i = int(np.searchsorted(self.ms, math.floor(x), side="right"))
        count = int(self._cum[i - 1]) if i > 0 else 0
        if self.dim == 2:
            volume = math.pi * x
        else:
            volume = (4.0 * math.pi / 3.0) * x**1.5
        return count, count - volume

    def gap_triple(self, m_center: int) -> GapTriple:
        """Triple around a spectrum member m_k (needs both neighbors tabulated)."""
        i = self.index_of(m_center)
        if i < 0:
            raise ValidationError(f"{m_center} is not a representable norm")
        if i == 0 or i + 1 >= len(self.ms):
            raise OutOfRangeError(f"norm {m_center} has no tabulated neighbor on one side")
        return GapTriple(int(self.ms[i - 1]), m_center, int(self.ms[i + 1]))

    def norms_in(self, m_lo: int, m_hi: int) -> np.ndarray:
        """Representable norms in the closed range [m_lo, m_hi]."""
        if m_hi > self.m_max:
            raise OutOfRangeError(f"range end {m_hi} exceeds table limit {self.m_max}")
        lo = int(np.searchsorted(self.ms, m_lo))
        hi = int(np.searchsorted(self.ms, m_hi, side="right"))
        return self.ms[lo:hi].copy()


def enumerate_spectrum(dim: int, m_max: int) -> SpectrumTable:
    """Tabulate all representable norms <= m_max with exact multiplicities.

    Deterministic direct loop over coordinate boxes; includes m = 0 with
    multiplicity 1.
    """
    _check_dim(dim)
    if m_max < 0:
        raise ValidationError("m_max must be >= 0")
    if m_max > M_MAX_LIMIT[dim]:
        raise ValidationError(
            f"m_max {m_max} exceeds the d={dim} enumeration ceiling {M_MAX_LIMIT[dim]}"
        )
    counts = _r_counts_d2(m_max) if dim == 2 else _r_counts_d3(m_max)
    ms = np.nonzero(counts)[0]
    return SpectrumTable(dim, m_max, ms.astype(np.int64), counts[ms])


@lru_cache(maxsize=4096)
def _shell_vectors_cached(dim: int, m: int) -> tuple:
    out = []
    if dim == 2:
        for a in range(-math.isqrt(m), math.isqrt(m) + 1):
            b2 = m - a * a
            b = math.isqrt(b2)
            if b * b == b2:
                if b == 0:
                    out.append((a, 0))
                else:
                    out.append((a, -b))
                    out.append((a, b))
    else:
        for a in range(-math.isqrt(m), math.isqrt(m) + 1):
            rem = m - a * a
            for b in range(-math.isqrt(rem), math.isqrt(rem) + 1):
                c2 = rem - b * b
                c = math.isqrt(c2)
                if c * c == c2:
                    if c == 0:
                        out.append((a, b, 0))
                    else:
                        out.append((a, b, -c))
                        out.append((a, b, c))
    out.sort()
    return tuple(out)


def shell_vectors(dim: int, m: int) -> np.ndarray:
    """All lattice vectors of squared norm m, in lexicographic order."""
    _check_dim(dim)
    if m < 0:
        raise ValidationError("squared norm must be nonnegative")
    vecs = _shell_vectors_cached(dim, m)
    if not vecs:
        return np.zeros((0, dim), dtype=np.int64)
    return np.array(vecs, dtype=np.int64)


def _points_estimate(dim: int, radius_sq: float) -> float:
    if dim == 2:
        return math.pi * radius_sq
    return (4.0 * math.pi / 3.0) * radius_sq**1.5


def _floor_isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise exact integer sqrt floor for nonnegative int64 input."""
    r = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= x, r + 1, r)
    r = np.where(r * r > x, r - 1, r)
    return r


def ball_points(dim: int, radius_sq: int) -> tuple[np.ndarray, np.ndarray]:
    """All lattice vectors with |xi|^2 <= radius_sq in lexicographic order,
    as (P, d) int64 coordinates, with their (P,) int64 squared norms."""
    _check_dim(dim)
    if radius_sq < 0:
        raise ValidationError("radius-squared must be nonnegative")
    if _points_estimate(dim, radius_sq) > MAX_BALL_POINTS:
        raise ValidationError(f"the ball |xi|^2 <= {radius_sq} is too large to enumerate")
    top = math.isqrt(radius_sq)
    blocks = []
    for a in range(-top, top + 1):
        rem = radius_sq - a * a
        bmax = math.isqrt(rem)
        b = np.arange(-bmax, bmax + 1, dtype=np.int64)
        if dim == 2:
            blocks.append((np.full(b.size, a, dtype=np.int64), b))
            continue
        cmax = _floor_isqrt(rem - b * b)
        counts = 2 * cmax + 1
        c = np.arange(int(counts.sum()), dtype=np.int64)
        c -= np.repeat(np.cumsum(counts) - counts + cmax, counts)
        blocks.append((np.full(c.size, a, dtype=np.int64), np.repeat(b, counts), c))
    coords = np.stack([np.concatenate(axis) for axis in zip(*blocks)], axis=1)
    return coords, (coords * coords).sum(axis=1)


def annulus_half_width(width: float, reach: int) -> int:
    """The integer half-width K of the annulus of physical half-width ``width``.

    K is the largest integer k <= reach with 4*pi^2*k <= width in floating
    point, or -1 when width < 0.  An integer norm n satisfies
    |4*pi^2*(n - m)| <= width exactly when |n - m| <= K, for every
    |n - m| <= reach; the cap keeps K finite for an infinite width.
    """
    if FOUR_PI_SQ * reach <= width:
        return reach
    k = math.floor(width / FOUR_PI_SQ)
    while FOUR_PI_SQ * (k + 1) <= width:
        k += 1
    while k >= 0 and FOUR_PI_SQ * k > width:
        k -= 1
    return k


def annulus_range(norms: np.ndarray, m_center: int, width: float) -> tuple[int, int]:
    """Bounds [lo, hi) of the ascending integer norms n with
    |4*pi^2*(n - m_center)| <= width: the norms within K of m_center
    (``annulus_half_width``), one contiguous range."""
    k = annulus_half_width(width, int(norms[-1]) + abs(int(m_center)))
    if k < 0:
        return 0, 0
    lo = int(np.searchsorted(norms, m_center - k, side="left"))
    hi = int(np.searchsorted(norms, m_center + k, side="right"))
    return lo, hi


def annulus_norms(table: SpectrumTable, center_norm: int, width: float) -> np.ndarray:
    """Representable norms m with |4pi^2*m - 4pi^2*center| <= width, ascending."""
    lo, hi = annulus_range(table.ms, center_norm, width)
    return table.ms[lo:hi]


def annulus_points(table: SpectrumTable, m_center: int, width: float) -> np.ndarray:
    """Lattice vectors xi with |4pi^2*|xi|^2 - 4pi^2*m_center| <= width, in
    ball order: by norm, then lexicographic within a shell.

    These are the points ``ShellSums.pts[lo:hi]`` of any ball that contains
    the annulus, with [lo, hi) = annulus_range(ShellSums.norms, ...).
    """
    if not width > 0:
        raise ValidationError(f"annulus width must be positive, got {width}")
    if not table.contains(m_center):
        raise ValidationError(f"annulus center {m_center} not representable")
    shells = annulus_norms(table, m_center, width)
    if shells.size == 0:
        return np.zeros((0, table.dim), dtype=np.int64)
    return np.concatenate([shell_vectors(table.dim, int(m)) for m in shells], axis=0)
