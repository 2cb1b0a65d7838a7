"""Geometry of the Stiefel manifold and its product with a Euclidean factor.

Points are M x r matrices with orthonormal columns.  A tangent vector at
B splits as U = B A + C with A skew-symmetric and B^T C = 0; the skew
block and the normal block are stored separately so the structural
constraints hold exactly.  Geodesics, inner products and gradients use
the canonical metric; the product space appends an r-dimensional
Euclidean factor for log-eigenvalue coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

_ORTH_TOL = 1e-10
_REPAIR_TOL = 1e-6


class BaseMismatchError(ValueError):
    """Raised when two tangents do not share a base point."""


class GeodesicError(ArithmeticError):
    """Raised when a computed geodesic step is not orthogonal to rounding."""


def _polar_orthonormalize(B: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(B, full_matrices=False)
    return u @ vt


@dataclass(frozen=True)
class StiefelPoint:
    """Matrix with orthonormal columns; mild drift is repaired, large drift rejected."""

    B: np.ndarray = field(repr=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] < B.shape[1] or B.shape[1] < 1:
            raise ValueError(f"expected a tall M x r matrix, got shape {B.shape}")
        drift = np.linalg.norm(B.T @ B - np.eye(B.shape[1]))
        if drift > _REPAIR_TOL:
            raise ValueError(
                f"columns are not orthonormal (defect {drift:.3e} exceeds {_REPAIR_TOL:.0e})"
            )
        if drift > _ORTH_TOL:
            B = _polar_orthonormalize(B)
        object.__setattr__(self, "B", B)

    @property
    def shape(self) -> tuple[int, int]:
        return self.B.shape

    def same_base(self, other: "StiefelPoint") -> bool:
        return self.B.shape == other.B.shape and np.array_equal(self.B, other.B)


@lru_cache(maxsize=64)
def _strict_lower(r: int) -> np.ndarray:
    mask = np.tri(r, r, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _exact_skew(A: np.ndarray) -> np.ndarray:
    # keep only the strictly-lower triangle so A + A^T = 0 holds exactly
    # (np.tril, but with the mask built once per size)
    L = np.where(_strict_lower(A.shape[0]), A, 0.0)
    return L - L.T


@dataclass(frozen=True)
class TangentVector:
    """Tangent U = B A + C at a Stiefel point, with A skew and B^T C = 0.

    The constructor is the one place a frame tangent is checked: A must be
    skew to 1e-8 and is then made exactly skew, and C is projected onto
    the normal space.  So TangentVector(point, B^T G, G) splits an M x r
    matrix G into its blocks, and rejects a G that is not tangent.
    """

    base: StiefelPoint
    A: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)

    def __post_init__(self):
        B = self.base.B
        M, r = B.shape
        A = np.asarray(self.A, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if A.shape != (r, r):
            raise ValueError(f"skew block must be {r} x {r}, got {A.shape}")
        if C.shape != (M, r):
            raise ValueError(f"normal block must be {M} x {r}, got {C.shape}")
        defect = np.abs(A + A.T).max()
        if defect > 1e-8:
            raise ValueError(f"skew block is not skew-symmetric (defect {defect:.3e})")
        object.__setattr__(self, "A", _exact_skew(A))
        object.__setattr__(self, "C", C - B @ (B.T @ C))

    def full(self) -> np.ndarray:
        """The tangent as a plain M x r matrix."""
        return self.base.B @ self.A + self.C

    def norm(self) -> float:
        return float(np.sqrt(canonical_inner(self, self)))

    def scaled(self, c: float) -> "TangentVector":
        return TangentVector(self.base, c * self.A, c * self.C)

    @cached_property
    def _geodesic(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (Q, w, V) of `geodesic_factors`: one factorization per tangent
        return geodesic_factors(self)


def tangent_project(point: StiefelPoint, Z: np.ndarray) -> TangentVector:
    """Orthogonal projection of an arbitrary M x r matrix onto the tangent space."""
    Z = np.asarray(Z, dtype=float)
    BtZ = point.B.T @ Z
    return TangentVector(point, 0.5 * (BtZ - BtZ.T), Z)


def _exp_from_eigh(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """exp(tS) for a skew S from the eigensystem (w, V) of the Hermitian iS."""
    # exp(tS) = I + V diag(e^{-itw} - 1) V^H: orthogonal to rounding at any
    # norm of tS (a Pade approximant drifts at norms near 1e4), and with
    # e^{-itw} - 1 from expm1 the step E - I keeps its relative accuracy as
    # tS goes to 0, so short trial steps of a line search still resolve
    # the loss change
    n = w.size
    E = np.eye(n) + ((V * np.expm1(-1j * t * w)) @ V.conj().T).real
    # orthogonality of the exact result gives a cheap accuracy check
    drift = np.linalg.norm(E.T @ E - np.eye(n))
    if drift > 1e-10:
        raise GeodesicError(f"matrix exponential lost orthogonality ({drift:.3e})")
    return E


def skew_exp(S: np.ndarray) -> np.ndarray:
    """Matrix exponential of a skew-symmetric matrix; the result is orthogonal."""
    S = np.asarray(S, dtype=float)
    if np.abs(S + S.T).max() > 1e-12:
        raise ValueError("input is not skew-symmetric")
    return _exp_from_eigh(*np.linalg.eigh(1j * S), 1.0)


def geodesic_factors(tangent: TangentVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of the geodesic with velocity `tangent` that do not depend on time.

    The QR factorization [B C] = [Q1 Q] [[R11, R12], [0, R]] gives an
    orthonormal Q orthogonal to B, whatever the rank of C, and C = QR
    because B^T C = 0.  The geodesic (Edelman, Arias & Smith 1998) is
    B M(t) + Q N(t), where [M; N] are the first r columns of exp(t S) for
    the k x k skew block S = [[A, -R^T], [R, 0]], k = min(2r, M).
    Returns Q and the eigensystem (w, V) of iS.  `exp_map` calls it once
    per tangent and caches the result on it.
    """
    A = tangent.A
    r = A.shape[0]
    Q, R = np.linalg.qr(np.hstack((tangent.base.B, tangent.C)))
    Q, R = Q[:, r:], R[r:, r:]
    k = r + R.shape[0]
    S = np.zeros((k, k))
    S[:r, :r] = A
    S[:r, r:] = -R.T
    S[r:, :r] = R
    w, V = np.linalg.eigh(1j * S)
    return Q, w, V


def exp_map(tangent: TangentVector, t: float = 1.0) -> StiefelPoint:
    """Geodesic of the canonical metric from the base point with velocity `tangent`.

    Uses the compact k x k form of `geodesic_factors` (k = min(2r, M)),
    factored once per tangent; each t then only exponentiates eigenvalues.
    """
    B = tangent.base.B
    r = B.shape[1]
    if t == 0.0 or (not tangent.A.any() and not tangent.C.any()):
        return tangent.base
    Q, w, V = tangent._geodesic
    MN = _exp_from_eigh(w, V, t)[:, :r]
    return StiefelPoint(B @ MN[:r] + Q @ MN[r:])


def canonical_inner(X: TangentVector, Y: TangentVector) -> float:
    """Canonical-metric inner product of two tangents at the same base point."""
    if not X.base.same_base(Y.base):
        raise BaseMismatchError("tangents live at different base points")
    return float(0.5 * np.sum(X.A * Y.A) + np.sum(X.C * Y.C))


def intrinsic_grad(point: StiefelPoint, F: np.ndarray) -> TangentVector:
    """Canonical-metric gradient from a Euclidean gradient F: F - B F^T B."""
    F = np.asarray(F, dtype=float)
    BtF = point.B.T @ F
    # skew block B^T F - F^T B; the normal block is F's, projected by TangentVector
    return TangentVector(point, BtF - BtF.T, F)


@dataclass(frozen=True)
class ProductPoint:
    """Point on (Stiefel) x R^r: a frame and log-eigenvalue coordinates."""

    point: StiefelPoint
    zeta: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        if z.shape != (self.point.shape[1],):
            raise ValueError("zeta length must match the frame rank")
        object.__setattr__(self, "zeta", z)

    @property
    def lam(self) -> np.ndarray:
        return np.exp(self.zeta)


@dataclass(frozen=True)
class ProductTangent:
    """Tangent on the product space: a Stiefel tangent plus a zeta velocity."""

    U: TangentVector
    dzeta: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.dzeta, dtype=float)
        if d.shape != (self.U.base.shape[1],):
            raise ValueError("dzeta length must match the frame rank")
        object.__setattr__(self, "dzeta", d)

    def scaled(self, c: float) -> "ProductTangent":
        return ProductTangent(self.U.scaled(c), c * self.dzeta)

    def norm(self) -> float:
        """Product-metric norm: canonical on the frame, Euclidean on zeta."""
        return float(np.sqrt(product_inner(self, self)))


def product_inner(X: ProductTangent, Y: ProductTangent) -> float:
    """Product-metric inner product: canonical on the frame, Euclidean on zeta."""
    return canonical_inner(X.U, Y.U) + float(np.dot(X.dzeta, Y.dzeta))


def product_exp(theta: ProductPoint, d: ProductTangent, t: float = 1.0) -> ProductPoint:
    """Geodesic step on the product space."""
    return ProductPoint(exp_map(d.U, t), theta.zeta + t * d.dzeta)
