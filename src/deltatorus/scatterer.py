"""Spectral matrix of N point scatterers and its roots.

For a configuration of N distinct points x_j and a unitary extension
parameter U, the matrix has rows indexed by evaluation points and columns
by scatterers:

    M(lambda)[k, j] = (G_lambda - G_{+i})(x_k, x_j)
                      + sum_m (U^{-1})[j, m] (G_lambda - G_{-i})(x_k, x_m).

New eigenvalues are the parameters lambda strictly between consecutive
unperturbed eigenvalues where M is singular.

Entries are assembled from shell sums: the pair weights E_m(x_k - x_j)
depend only on the positions and are symmetric in the pair, so they are
computed once per unordered pair (ShellSums.weights_many), and M at one
more lambda is one matrix product of the shell coefficients c_lambda with
an (S, N*(N+1)/2) weight array, unpacked to N x N.

The root solver takes one common phase, U = e^{i theta} Id.  Then
M = (1 + e^{-i theta}) H with the real symmetric

    H(lambda) = c_lambda @ W - Re G_{+i} + tan(theta/2) Im G_{+i},

whose derivative c_lambda^2 @ W is positive semidefinite, so every ordered
eigenvalue of H is nondecreasing across a gap.  The number of roots in a
gap is the drop in the count of negative eigenvalues of H from one end to
the other (Sylvester inertia), each root is the zero of one eigenvalue
branch, and its superposition coefficients d are that branch's unit
eigenvector ((Id + U) v is a multiple of v).  A U with distinct eigenvalues
in general does not preserve the deficiency Gram matrix Im G_{+i}, so it
defines no self-adjoint operator in this parametrization; the solver
rejects it, while matrix assembly accepts any unitary.
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
from .greens import ShellSums, SpectralParameter, check_radius
from .lattice import FOUR_PI_SQ, GapTriple, _check_dim

UNITARITY_TOL = 1e-10
DEGENERACY_TOL = 1e-9


def torus_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(np.asarray(a) - np.asarray(b))
    d = np.minimum(d, 1.0 - d)
    return float(np.sqrt((d * d).sum()))


@dataclass
class ScattererConfig:
    """N scatterer positions on the unit torus plus the extension parameter.

    The parameter is either a vector of diagonal phases theta_j
    (U = diag(exp(i theta_j))) or a full N x N unitary matrix.  Any unitary
    without eigenvalue -1 is accepted here and by matrix assembly;
    find_new_eigenvalues needs one common phase, U = exp(i theta) Id.
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

    W[s, t] = E_{m_s}(x_k - x_j) for the unordered pair (k, j) in column t
    of np.triu_indices(N) (ShellSums.weights_many), and the two deficiency
    sums G_{+-i}(x_k, x_j) are lambda-independent.  Every contraction is a
    product with W over the N*(N+1)/2 pairs, unpacked to N x N through a
    fixed index map: a matrix at one more lambda from c_lambda @ W, and the
    symmetric form H with its slope from one product of (c_lambda,
    c_lambda^2) with W.
    """

    def __init__(self, config: ScattererConfig, radius_sq: int):
        self.config = config
        self.shells = ShellSums.get(config.dim, radius_sq)
        n = config.n_scatterers
        self._w = self.shells.weights_many(config.positions)
        # unpack[k, j] = unpack[j, k] is the column of the pair {k, j} in W
        rows, cols = np.triu_indices(n)
        self._unpack = np.empty((n, n), dtype=np.intp)
        self._unpack[rows, cols] = self._unpack[cols, rows] = np.arange(rows.size)
        # G_{+-i} = sum_s W_s / (n_s -+ i) = sum_s W_s (n_s +- i) / (n_s^2 + 1)
        ns = self.shells.ns_physical
        re = ((ns / (ns * ns + 1.0)) @ self._w)[self._unpack]
        im = ((1.0 / (ns * ns + 1.0)) @ self._w)[self._unpack]
        self._g_plus = re + 1j * im
        self._g_minus = re - 1j * im
        self._uinv_t = config.u_inv.T.copy()

    def matrix(self, lam_physical: float) -> np.ndarray:
        a = (self.shells.coeffs(lam_physical) @ self._w)[self._unpack]
        return (a - self._g_plus) + (a - self._g_minus) @ self._uinv_t

    def symmetric(self, lam_physical: float, tan_half: float) -> tuple[np.ndarray, np.ndarray]:
        """H = c_lambda @ W - Re G_{+i} + tan_half Im G_{+i} and dH/dlambda = c_lambda^2 @ W.

        For U = e^{i theta} Id and tan_half = tan(theta/2), M = (1 + e^{-i theta}) H.
        """
        c = self.shells.coeffs(lam_physical)
        h, slope = (np.stack((c, c * c)) @ self._w)[:, self._unpack]
        return h - self._g_plus.real + tan_half * self._g_plus.imag, slope

    def secular(self, lam_physical: float) -> tuple[complex, float]:
        m = self.matrix(lam_physical)
        return complex(np.linalg.det(m)), float(np.linalg.svd(m, compute_uv=False)[-1])


def secular_value(
    config: ScattererConfig, lam: SpectralParameter, radius_sq: int
) -> tuple[complex, float]:
    """(det M, smallest singular value of M) at one parameter."""
    ws = SecularWorkspace(config, check_radius(radius_sq, lam))
    ws.shells.pole_check(lam)
    return ws.secular(lam.physical)


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

    @property
    def lambda_physical(self) -> float:
        return FOUR_PI_SQ * self.lambda_norm


def _common_phase(config: ScattererConfig) -> float:
    """theta with U = e^{i theta} Id; any other U raises ValidationError."""
    u = config.u_matrix
    z = complex(u[0, 0])
    if np.linalg.norm(u - z * np.eye(config.n_scatterers)) > UNITARITY_TOL:
        raise ValidationError(
            "the root solver needs one common phase, U = exp(i theta) Id: other "
            "unitaries do not preserve the deficiency Gram matrix Im G_{+i}"
        )
    return math.atan2(z.imag, z.real)


def find_new_eigenvalues(
    config: ScattererConfig,
    interval: GapTriple,
    radius_sq: int,
    solver_tol: float = 1e-8,
    workspace: SecularWorkspace | None = None,
) -> list[NewEigenvalue]:
    """All spectral-equation roots in the open gap (n_k, n_{k+1}), ascending.

    Needs U = e^{i theta} Id, so that M = (1 + e^{-i theta}) H with H real
    symmetric and every ordered eigenvalue of H nondecreasing in lambda.
    The root count is the number of negative eigenvalues of H a few ulps
    above n_k minus the number a few ulps below n_{k+1}.  Root i, counted
    from the left, is the zero of eigenvalue branch n_lo - 1 - i: Newton
    steps on that branch (slope v^T H' v) kept inside its sign bracket, with
    bisection whenever a step leaves the bracket or fails to halve.  Each
    eigen-solve tightens the brackets of every branch.  A root is accepted
    once the last step or its bracket is at most solver_tol times the gap
    length and the residual |1 + e^{-i theta}| |mu| is at most solver_tol,
    or once its bracket reaches the floating-point floor; the latter keeps a
    root that sits so close to a pole that float64 cannot reach the
    residual, and reports the residual it measured.  A prebuilt workspace
    must be the one for this config and radius_sq.
    """
    if not solver_tol > 0:
        raise ValidationError("solver_tol must be positive")
    radius_sq = check_radius(radius_sq, SpectralParameter(float(interval.next)))
    if workspace is not None and (
        workspace.config is not config or workspace.shells.radius_sq != radius_sq
    ):
        raise ValidationError("the workspace was built for another config or radius_sq")
    theta = _common_phase(config)
    tan_half = math.tan(theta / 2.0)
    scale = 2.0 * abs(math.cos(theta / 2.0))  # |1 + e^{-i theta}|
    n = config.n_scatterers
    ws = workspace if workspace is not None else SecularWorkspace(config, radius_sq)
    a, b = interval.n_center, interval.n_next
    floor = 4.0 * float(np.spacing(b))
    width = max(solver_tol * (b - a), floor)
    x_lo, x_hi = a + floor, b - floor
    lo, hi = np.full(n, x_lo), np.full(n, x_hi)  # sign bracket of each branch

    def eigen(x):
        h, slope = ws.symmetric(x, tan_half)
        mu, vecs = np.linalg.eigh(h)
        neg = mu < 0.0
        np.copyto(lo, np.maximum(lo, x), where=neg)
        np.copyto(hi, np.minimum(hi, x), where=~neg)
        return mu, vecs, slope

    n_lo = int(np.count_nonzero(eigen(x_lo)[0] < 0.0))
    n_hi = int(np.count_nonzero(eigen(x_hi)[0] < 0.0))
    roots: list[NewEigenvalue] = []
    for i in range(n_lo - n_hi):
        j = n_lo - 1 - i
        x, last_step = 0.5 * (lo[j] + hi[j]), math.inf
        for _ in range(200):  # bisection alone needs about 60
            mu, vecs, slope = eigen(x)
            v = vecs[:, j]
            residual = scale * abs(float(mu[j]))
            deriv = float(v @ slope @ v)
            step = -float(mu[j]) / deriv if deriv > 0.0 else math.inf
            bracket = hi[j] - lo[j]
            if residual <= solver_tol and min(abs(step), bracket) <= width:
                break
            if bracket <= floor:
                break
            if lo[j] < x + step < hi[j] and abs(step) <= 0.5 * last_step:
                x, last_step = x + step, abs(step)
            else:
                x, last_step = 0.5 * (lo[j] + hi[j]), 0.5 * bracket
        else:
            raise NumericError(f"root search did not converge on branch {j}")
        others = np.abs(np.delete(mu, j))
        s2 = scale * float(others.min()) if others.size else math.inf
        roots.append(
            NewEigenvalue(
                lambda_norm=x / FOUR_PI_SQ,
                interval=interval,
                v=v,
                d=v.astype(np.complex128),
                residual=residual,
                second_smin=s2,
                near_degenerate=bool(s2 < 1e3 * residual),
            )
        )
    return roots
