"""Spectral matrix of N point scatterers and its roots.

For a configuration of N distinct points x_j and a unitary extension
parameter U, the matrix has rows indexed by evaluation points and columns
by scatterers:

    M(lambda)[k, j] = (G_lambda - G_{+i})(x_k, x_j)
                      + sum_m (U^{-1})[j, m] (G_lambda - G_{-i})(x_k, x_m).

New eigenvalues are the parameters lambda strictly between consecutive
unperturbed eigenvalues where M is singular; each root carries a null
vector v and the normalized superposition coefficients d = (Id + U) v.

Entries are assembled from shell sums: the pair weights E_m(x_k - x_j)
depend only on the positions and come from the configuration's phase table
(ShellSums.phase_table / weights_many), so M at one more lambda is one
matrix product of the shell coefficients c_lambda with an (S, N*N) weight
array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateExtensionError,
    NumericError,
    ValidationError,
)
from .greens import ShellSums, SpectralParameter, TruncationPolicy
from .lattice import FOUR_PI_SQ, GapTriple, _check_dim

UNITARITY_TOL = 1e-10
DEGENERACY_TOL = 1e-9
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: grid parameters per matrix product in SecularWorkspace.smin_grid; bounds
#: the (block, S) coefficient matrix and keeps the product small enough
#: that it does not wake a threaded BLAS for a few microseconds of work
SMIN_GRID_BLOCK = 32


def torus_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(np.asarray(a) - np.asarray(b))
    d = np.minimum(d, 1.0 - d)
    return float(np.sqrt((d * d).sum()))


@dataclass
class ScattererConfig:
    """N scatterer positions on the unit torus plus the extension parameter.

    The parameter is either a vector of diagonal phases theta_j (local
    impurities, U = diag(exp(i theta_j))) or a full N x N unitary matrix.
    """

    dim: int
    positions: np.ndarray
    phases: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        _check_dim(self.dim)
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        if self.positions.ndim != 2 or self.positions.shape[1] != self.dim:
            raise ValidationError("positions must be an (N, dim) array")
        self.positions = np.mod(self.positions, 1.0)
        n = self.positions.shape[0]
        if n < 1:
            raise ValidationError("need at least one scatterer")
        for a in range(n):
            for b in range(a + 1, n):
                if torus_distance(self.positions[a], self.positions[b]) <= 0.0:
                    raise ValidationError(f"positions {a} and {b} coincide")
        if (self.phases is None) == (self.matrix is None):
            raise ValidationError("provide exactly one of phases or matrix")
        if self.phases is not None:
            self.phases = np.asarray(self.phases, dtype=np.float64)
            if self.phases.shape != (n,):
                raise ValidationError("phases must have one angle per scatterer")
            eigs = np.exp(1j * self.phases)
            if np.min(np.abs(1.0 + eigs)) < DEGENERACY_TOL:
                raise DegenerateExtensionError("a phase puts -1 in the spectrum of U")
        else:
            self.matrix = np.asarray(self.matrix, dtype=np.complex128)
            if self.matrix.shape != (n, n):
                raise ValidationError("matrix must be N x N")
            defect = np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(n))
            if defect > UNITARITY_TOL:
                raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")
            if np.min(np.abs(1.0 + np.linalg.eigvals(self.matrix))) < DEGENERACY_TOL:
                raise DegenerateExtensionError("U has an eigenvalue at -1")

    @property
    def n_scatterers(self) -> int:
        return self.positions.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.phases is not None

    @property
    def u_matrix(self) -> np.ndarray:
        if self.phases is not None:
            return np.diag(np.exp(1j * self.phases))
        return self.matrix

    @property
    def u_inv(self) -> np.ndarray:
        return self.u_matrix.conj().T

    def to_json(self) -> dict:
        u = (
            {"phases": self.phases.tolist()}
            if self.phases is not None
            else {
                "matrix": [
                    [[float(v.real), float(v.imag)] for v in row]
                    for row in self.matrix
                ]
            }
        )
        return {"dim": self.dim, "positions": self.positions.tolist(), "u": u}

    @classmethod
    def from_json(cls, obj: dict) -> "ScattererConfig":
        u = obj["u"]
        if "phases" in u:
            return cls(obj["dim"], np.array(obj["positions"]), phases=np.array(u["phases"]))
        mat = np.array([[complex(re, im) for re, im in row] for row in u["matrix"]])
        return cls(obj["dim"], np.array(obj["positions"]), matrix=mat)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=1)


    @classmethod
    def load(cls, path) -> "ScattererConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(json.load(f))


class SecularWorkspace:
    """Shell data bound to one configuration for fast matrix assembly.

    W[s, k*N + j] = E_{m_s}(x_k - x_j) and the two deficiency sums
    G_{+-i}(x_k, x_j) are lambda-independent; a matrix at one more lambda
    is the product c_lambda @ W, reshaped to N x N.  ``phi`` is the
    configuration's phase table (ShellSums.phase_table), built here when
    the caller has none to share.
    """

    def __init__(
        self,
        config: ScattererConfig,
        radius_sq: int,
        shells: ShellSums | None = None,
        phi: np.ndarray | None = None,
    ):
        self.config = config
        self.shells = shells if shells is not None else ShellSums.get(config.dim, radius_sq)
        if shells is not None and shells.radius_sq != radius_sq:
            raise ValidationError("prebuilt shells disagree with radius_sq")
        if phi is None:
            phi = self.shells.phase_table(config.positions)
        n = config.n_scatterers
        self._w = self.shells.weights_many(phi)
        # G_{+-i} = sum_s W_s / (n_s -+ i) = sum_s W_s (n_s +- i) / (n_s^2 + 1)
        ns = self.shells.ns_physical
        re = ((ns / (ns * ns + 1.0)) @ self._w).reshape(n, n)
        im = ((1.0 / (ns * ns + 1.0)) @ self._w).reshape(n, n)
        self._g_plus = re + 1j * im
        self._g_minus = re - 1j * im
        self._uinv_t = config.u_inv.T.copy()

    def _from_products(self, cw: np.ndarray) -> np.ndarray:
        """M from c_lambda @ W, for one lambda (N*N,) or a stack (G, N*N)."""
        a = cw.reshape(cw.shape[:-1] + self._g_plus.shape)
        return (a - self._g_plus) + (a - self._g_minus) @ self._uinv_t

    def matrix(self, lam_physical: float) -> np.ndarray:
        return self._from_products(self.shells.coeffs(lam_physical) @ self._w)

    def smin(self, lam_physical: float) -> float:
        return float(np.linalg.svd(self.matrix(lam_physical), compute_uv=False)[-1])

    def smin_grid(self, lams: np.ndarray) -> np.ndarray:
        """Smallest singular value at each grid parameter, SMIN_GRID_BLOCK at a time."""
        lams = np.asarray(lams, dtype=np.float64)
        out = np.empty(lams.shape[0], dtype=np.float64)
        ns = self.shells.ns_physical
        for i in range(0, lams.shape[0], SMIN_GRID_BLOCK):
            block = lams[i : i + SMIN_GRID_BLOCK]
            c = 1.0 / (ns[None, :] - block[:, None])
            m = self._from_products(c @ self._w)
            out[i : i + block.shape[0]] = np.linalg.svd(m, compute_uv=False)[:, -1]
        return out

    def secular(self, lam_physical: float) -> tuple[complex, float]:
        m = self.matrix(lam_physical)
        return complex(np.linalg.det(m)), float(np.linalg.svd(m, compute_uv=False)[-1])


def build_matrix(
    config: ScattererConfig, lam: SpectralParameter, policy: TruncationPolicy
) -> np.ndarray:
    """The N x N spectral matrix at one off-spectrum parameter."""
    r = policy.resolve(lam, config.dim)
    ws = SecularWorkspace(config, r)
    ws.shells.pole_check(lam)
    return ws.matrix(lam.physical)


def secular_value(
    config: ScattererConfig, lam: SpectralParameter, policy: TruncationPolicy
) -> tuple[complex, float]:
    """(det M, smallest singular value of M) at one parameter."""
    r = policy.resolve(lam, config.dim)
    ws = SecularWorkspace(config, r)
    ws.shells.pole_check(lam)
    return ws.secular(lam.physical)


def normalized_determinant(config: ScattererConfig, det: complex) -> complex:
    """det divided by prod(1 + e^{-i theta_j}); real for diagonal configs."""
    if not config.is_diagonal:
        raise ValidationError("normalized determinant needs a diagonal config")
    return det / np.prod(1.0 + np.exp(-1j * config.phases))


def coefficient_vector(u_param, v: np.ndarray) -> np.ndarray:
    """d = (Id + U) v rescaled to a unit vector."""
    v = np.asarray(v, dtype=np.complex128)
    if not np.any(v):
        raise ValidationError("null vector must be nonzero")
    if isinstance(u_param, ScattererConfig):
        u = u_param.u_matrix
    else:
        u = np.asarray(u_param, dtype=np.complex128)
        if u.ndim == 1:
            u = np.diag(np.exp(1j * u.real)) if np.isrealobj(u_param) else np.diag(u)
    w = v + u @ v
    norm = math.sqrt(float(np.sum(np.abs(w) ** 2)))
    if norm < 1e-12 * math.sqrt(float(np.sum(np.abs(v) ** 2))):
        raise DegenerateExtensionError("(Id + U) v vanishes; degenerate direction")
    return w / norm


@dataclass
class NewEigenvalue:
    """A root of the spectral equation inside one gap."""

    lambda_norm: float
    interval: GapTriple
    v: np.ndarray
    d: np.ndarray
    residual: float
    second_smin: float
    near_degenerate: bool
    sign_bracketed: bool | None = None

    @property
    def lambda_physical(self) -> float:
        return FOUR_PI_SQ * self.lambda_norm


def _golden_minimize(f, lo, hi, width_target, f_target, floor_width, max_iter=300):
    """Golden-section minimization; returns (x_best, f_best, lo, hi).

    Shrinks until the bracket is below width_target AND the best value is
    below f_target, or the bracket reaches the floating-point floor.
    """
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        width = hi - lo
        if width <= floor_width:
            break
        if width <= width_target and min(f1, f2) <= f_target:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    if f1 <= f2:
        return x1, f1, lo, hi
    return x2, f2, lo, hi


def find_new_eigenvalues(
    config: ScattererConfig,
    interval: GapTriple,
    policy: TruncationPolicy,
    solver_tol: float = 1e-8,
    grid_points: int = 256,
    workspace: SecularWorkspace | None = None,
) -> list[NewEigenvalue]:
    """All spectral-equation roots in the open gap (n_k, n_{k+1}).

    Scans the smallest singular value on a uniform grid, refines each dip
    by golden section until the bracket is below solver_tol times the
    interval length and the residual is below solver_tol, then extracts the
    null vector.  For one diagonal scatterer a sign-bracketing pass on the
    (real) normalized determinant backs up the scan, since that secular
    function is strictly increasing between poles.
    """
    if not solver_tol > 0:
        raise ValidationError("solver_tol must be positive")
    n = config.n_scatterers
    if workspace is None:
        lam_hi = SpectralParameter(float(interval.next))
        workspace = SecularWorkspace(config, policy.resolve(lam_hi, config.dim))
    ws = workspace
    a, b = interval.n_center, interval.n_next
    length = b - a
    inset = length / (4.0 * grid_points)
    grid = np.linspace(a + inset, b - inset, grid_points)
    smins = ws.smin_grid(grid)

    candidates = [
        i
        for i in range(grid_points)
        if (i == 0 or smins[i] < smins[i - 1]) and (i == grid_points - 1 or smins[i] <= smins[i + 1])
    ]

    roots: list[NewEigenvalue] = []
    width_target = solver_tol * length
    floor_width = 64.0 * np.finfo(float).eps * b
    for i in candidates:
        lo = grid[i - 1] if i > 0 else a + inset / 4.0
        hi = grid[i + 1] if i < grid_points - 1 else b - inset / 4.0
        x, fx, blo, bhi = _golden_minimize(
            ws.smin, lo, hi, max(width_target, floor_width), solver_tol, floor_width
        )
        if fx > solver_tol:
            continue  # a dip, not a root
        if any(abs(r.lambda_physical - x) <= 2.0 * max(width_target, floor_width) for r in roots):
            continue
        m = ws.matrix(x)
        _, sigma, vh = np.linalg.svd(m)
        v = vh[-1].conj()
        d = coefficient_vector(config, v)
        smin, s2 = float(sigma[-1]), float(sigma[-2]) if n > 1 else math.inf
        sign_flag = None
        if config.is_diagonal and n == 1:
            f_lo = normalized_determinant(config, complex(np.linalg.det(ws.matrix(blo)))).real
            f_hi = normalized_determinant(config, complex(np.linalg.det(ws.matrix(bhi)))).real
            sign_flag = f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo
        roots.append(
            NewEigenvalue(
                lambda_norm=x / FOUR_PI_SQ,
                interval=interval,
                v=v,
                d=d,
                residual=smin,
                second_smin=s2,
                near_degenerate=bool(s2 < 1e3 * smin),
                sign_bracketed=sign_flag,
            )
        )

    if config.is_diagonal and n == 1 and not roots:
        root = _bisect_n1(
            config, ws, interval, a + inset / 8.0, b - inset / 8.0,
            max(width_target, floor_width), solver_tol, floor_width,
        )
        if root is not None:
            roots.append(root)

    if len(roots) > n:
        raise NumericError(
            f"found {len(roots)} roots in one gap for a rank-{n} perturbation"
        )
    roots.sort(key=lambda r: r.lambda_norm)
    return roots


def _bisect_n1(
    config, ws, interval, lo, hi, width_target, solver_tol, floor_width
) -> NewEigenvalue | None:
    """Sign bisection on the real normalized determinant (N = 1 fallback)."""

    def f(x):
        return normalized_determinant(config, complex(np.linalg.det(ws.matrix(x)))).real

    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        return None
    while hi - lo > floor_width:
        if hi - lo <= width_target and ws.smin(0.5 * (lo + hi)) <= solver_tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    x = 0.5 * (lo + hi)
    m = ws.matrix(x)
    _, sigma, vh = np.linalg.svd(m)
    v = vh[-1].conj()
    return NewEigenvalue(
        lambda_norm=x / FOUR_PI_SQ,
        interval=interval,
        v=v,
        d=coefficient_vector(config, v),
        residual=float(sigma[-1]),
        second_smin=math.inf,
        near_degenerate=False,
        sign_bracketed=True,
    )
