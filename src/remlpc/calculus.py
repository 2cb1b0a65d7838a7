"""Gradients, Hessians and score quantities of the covariance losses.

Every kernel here knows only the normalized scale sigma2 = s = 1, where
the matrix-regime loss  tr(Gamma^-1 S) + log det Gamma  has population
covariance I + B diag(lam) B^T and closed forms.  `optimizer.objective`
reduces a general scale to it: (S, lam) -> (S / sigma2, s lam / sigma2).

The functional-regime gradient averages per-curve Woodbury terms; the
frame part is returned already projected to the tangent space.
"""

from __future__ import annotations

import numpy as np

from .model import CurveBatches, curve_factors, lower_solve
from .stiefel import (
    ProductPoint,
    ProductTangent,
    StiefelPoint,
    TangentVector,
    intrinsic_grad,
)

GAP_TOL = 1e-8


class NearDegenerateError(ValueError):
    """Eigenvalue gaps too small for the inverse-Hessian formulas."""


def _frame_grad(point: StiefelPoint, SB: np.ndarray, w: np.ndarray) -> TangentVector:
    """The tangent 2 (B diag(w) B^T S~ B - S~ B diag(w)), built from its blocks.

    Its skew block is 2 (w_i - w_j) (B^T S~ B)_ij and its normal block is
    that of -2 S~ B diag(w).
    """
    BtSB = point.B.T @ SB
    return TangentVector(point, 2.0 * (w[:, None] * BtSB - BtSB * w), -2.0 * SB * w)


def grad_B_scaled(theta_n: ProductPoint, SB: np.ndarray) -> TangentVector:
    """Frame gradient of the normalized loss from the product SB = S~ B.

    A caller that evaluates one problem at many points shares each point's
    SB between this and `grad_zeta_scaled`.  The closed form is the
    canonical gradient F - B F^T B of the Euclidean derivative
    F = -2 S~ B Q^{-1}, whose skew and normal blocks it builds directly.
    """
    lam = theta_n.lam
    return _frame_grad(theta_n.point, SB, lam / (1.0 + lam))


def grad_zeta_scaled(theta_n: ProductPoint, SB: np.ndarray) -> np.ndarray:
    """Log-eigenvalue gradient of the normalized loss from SB = S~ B (see `grad_B_scaled`)."""
    lam = theta_n.lam
    quad = np.einsum("mk,mk->k", theta_n.point.B, SB)  # diag(B^T S~ B)
    return lam / (1.0 + lam) ** 2 * (1.0 + lam - quad)


def grad_B(theta: ProductPoint, Stilde: np.ndarray) -> TangentVector:
    """Canonical-metric gradient of the normalized loss with respect to the frame."""
    return grad_B_scaled(theta, Stilde @ theta.point.B)


def grad_zeta(theta: ProductPoint, Stilde: np.ndarray) -> np.ndarray:
    """Gradient of the normalized loss in log-eigenvalue coordinates."""
    return grad_zeta_scaled(theta, Stilde @ theta.point.B)


def hessian_B_bilinear(
    theta: ProductPoint, Stilde: np.ndarray, X: TangentVector, Y: TangentVector
) -> float:
    """Second derivative of the normalized loss along frame geodesics.

    Equals d^2/dt^2 of the loss along the canonical geodesic with
    velocity X (polarized in X, Y).
    """
    B = theta.point.B
    q = theta.lam / (1.0 + theta.lam)
    F1 = -2.0 * (Stilde @ B) * q
    Xf, Yf = X.full(), Y.full()
    G1X = -2.0 * (Stilde @ Xf) * q
    t1 = np.sum(Yf * G1X)
    FtX = F1.T @ Xf
    BtX = B.T @ Xf
    BtY = B.T @ Yf
    t2 = 0.5 * (np.sum(FtX * BtY.T) + np.sum(BtX * (F1.T @ Yf).T))
    BtF = B.T @ F1
    sym = BtF + BtF.T
    YN = Yf - B @ BtY
    t3 = -0.5 * np.sum((Xf.T @ YN) * sym.T)
    return float(t1 + t2 + t3)


def hessian_zeta(theta: ProductPoint, Stilde: np.ndarray) -> np.ndarray:
    """Diagonal of the normalized loss Hessian in log-eigenvalue coordinates."""
    B = theta.point.B
    lam = theta.lam
    quad = np.einsum("mk,mk->k", B, Stilde @ B)  # diag(B^T S~ B)
    return lam / (1.0 + lam) ** 3 * ((lam - 1.0) * quad + (1.0 + lam))


def dgrad_B_dzeta(theta: ProductPoint, Stilde: np.ndarray, k: int) -> TangentVector:
    """Mixed partial: derivative of the frame gradient along zeta_k.

    At a stationary point this is the (B, zeta) cross block of the
    Hessian, which vanishes at the population optimum.
    """
    lam = theta.lam
    dq = np.zeros_like(lam)
    dq[k] = lam[k] / (1.0 + lam[k]) ** 2
    return _frame_grad(theta.point, Stilde @ theta.point.B, dq)


def _check_gaps(lam: np.ndarray) -> None:
    if lam.size > 1:
        diffs = np.abs(lam[:, None] - lam[None, :])
        off = diffs[~np.eye(lam.size, dtype=bool)]
        if off.min() <= GAP_TOL:
            raise NearDegenerateError(
                f"eigenvalue gap {off.min():.3e} is below {GAP_TOL:.0e}"
            )
    if lam.min() <= GAP_TOL:
        raise NearDegenerateError("eigenvalues too close to zero for the inverse Hessian")


def hessian_star_B_bilinear(
    theta_star: ProductPoint, X: TangentVector, Y: TangentVector
) -> float:
    """Closed form of the frame Hessian at the population optimum."""
    lam = theta_star.lam
    gap2 = (lam[:, None] - lam[None, :]) ** 2
    denom = (1.0 + lam[:, None]) * (1.0 + lam[None, :])
    a_term = np.sum(X.A * Y.A * gap2 / denom)
    w = lam**2 / (1.0 + lam)
    c_term = 2.0 * np.sum((X.C * w) * Y.C)
    return float(a_term + c_term)


def inv_hessian_star_B(theta_star: ProductPoint, X: TangentVector) -> TangentVector:
    """Apply the inverse of the frame Hessian at the population optimum."""
    lam = theta_star.lam
    _check_gaps(lam)
    r = lam.size
    A_out = np.zeros((r, r))
    if r > 1:
        gap2 = (lam[:, None] - lam[None, :]) ** 2
        denom = (1.0 + lam[:, None]) * (1.0 + lam[None, :])
        off = ~np.eye(r, dtype=bool)
        A_out[off] = 0.5 * X.A[off] * denom[off] / gap2[off]
    C_out = 0.5 * X.C * ((1.0 + lam) / lam**2)
    return TangentVector(theta_star.point, A_out, C_out)


def score_delta(
    theta_star: ProductPoint, Stilde: np.ndarray
) -> tuple[TangentVector, np.ndarray]:
    """First-order expansion of the estimator around the population optimum.

    Returns the tangent approximating (B_hat - B_star) and the vector
    approximating (lam_hat - lam_star), built from the explicit
    eigenvalue-resolvent form.  Requires the normalized scale.
    """
    B = theta_star.point.B
    lam = theta_star.lam
    _check_gaps(lam)
    r = lam.size
    SB = Stilde @ B
    BtSB = B.T @ SB
    # skew block: entries (i, j) = -(lam_i - lam_j)^{-1} B_i^T S B_j for i != j
    A = np.zeros((r, r))
    if r > 1:
        gaps = lam[:, None] - lam[None, :]
        off = ~np.eye(r, dtype=bool)
        A[off] = -BtSB[off] / gaps[off]
    # normal block: + lam_j^{-1} (I - B B^T) S B_j
    C = (SB - B @ BtSB) / lam
    delta_B = TangentVector(theta_star.point, 0.5 * (A - A.T), C)
    delta_lam = np.diag(BtSB) - (1.0 + lam)
    return delta_B, delta_lam


def grad_functional_raw(
    point: StiefelPoint, lam: np.ndarray, batches: CurveBatches
) -> ProductTangent:
    """Gradient of the functional-regime loss at frame `point`, eigenvalues `lam`.

    The Euclidean frame derivative of the loss is
    F = (sum_i P_i B G_i^-1 - (sum_i a_i a_i^T) B diag(lam)) / n  with
    a_i = Phi_i^T Sigma_i^-1 y_i = v_i - P_i B u_i and
    u_i = G_i^-1 B^T v_i; it is projected to the tangent space.  The zeta
    part is its exact diagonal counterpart, the mean over curves of
    (diag(H_i G_i^-1) - lam (B^T a_i)^2) / 2.  No m x m matrix is formed.
    """
    B = point.B
    M, r = B.shape
    n = batches.n
    H, Xty, L = curve_factors(B, lam, batches)
    Linv = lower_solve(L, np.broadcast_to(np.eye(r), L.shape))
    Ginv = np.einsum("nki,nkj->nij", Linv, Linv)
    u = (Ginv @ Xty[:, :, None])[:, :, 0]
    a = batches.v - np.einsum("nab,nb->na", batches.P, u @ B.T)
    # sum_i P_i B G_i^-1 from W = sum_i vec(P_i) vec(G_i^-1)^T, one GEMM
    W = (batches.P.reshape(n, M * M).T @ Ginv.reshape(n, r * r)).reshape(M, M, r, r)
    PBG = np.einsum("abkl,bk->al", W, B)
    F = (PBG - ((a.T @ a) @ B) * lam) / n
    z = np.einsum("nkl,nlk->k", H, Ginv) - lam * np.sum((a @ B) ** 2, axis=0)
    gz = z / (2.0 * n)
    return ProductTangent(intrinsic_grad(point, F), gz)
