"""Matrix-regime reference solutions and score diagnostics.

For a sample covariance the loss is minimized in closed form by the
top-r eigenpairs (eigenvalues shifted by the noise floor and divided by
the signal scale).  These helpers expose that solution, certify that
the descent optimizer lands on it, and measure how well the first-order
score expansion around the population optimum predicts the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus, optimizer
from .model import DegenerateSpectrumError, ModelParams, SampleCov, canonicalize
from .stiefel import ProductPoint, StiefelPoint


class SignalTooWeakError(ValueError):
    """Top-r sample eigenvalues do not clear the noise floor."""


def pca_fit(S: np.ndarray, r: int, sigma2: float = 1.0, s: float = 1.0) -> ModelParams:
    """Closed-form loss minimizer from the top-r eigenpairs of S."""
    S = np.asarray(S, dtype=float)
    M = S.shape[0]
    if r < 1 or r > M:
        raise ValueError(f"rank must be in [1, {M}], got {r}")
    evals, evecs = np.linalg.eigh(S)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if evals[r - 1] <= sigma2:
        raise SignalTooWeakError(
            f"eigenvalue {r} of the sample covariance ({evals[r - 1]:.6g}) "
            f"does not exceed sigma2 ({sigma2:.6g})"
        )
    top = evals[: min(r + 1, M)]
    if (-np.diff(top) <= 1e-10).any():
        raise DegenerateSpectrumError("sample eigenvalues tied near the model cut")
    lam = (evals[:r] - sigma2) / s
    B, lam = canonicalize(evecs[:, :r], lam)
    return ModelParams(M=M, r=r, B=StiefelPoint(B), lam=lam, sigma2=sigma2, s=s)


@dataclass(frozen=True)
class PcaAgreement:
    """How close the descent optimizer lands to the closed-form solution."""

    grad_norm_at_pca: float
    frame_distance: float
    eigenvalue_distance: float
    optimizer_converged: bool
    optimizer_iters: int


def reml_equals_pca(
    S: np.ndarray,
    n: int,
    r: int,
    sigma2: float = 1.0,
    s: float = 1.0,
    config: optimizer.FitConfig | None = None,
) -> PcaAgreement:
    """Certify the stationarity of the PCA solution and the optimizer's agreement.

    The default configuration starts the optimizer from a random frame,
    so the agreement is a genuine convergence statement rather than a
    fixed-point tautology.
    """
    if config is None:
        config = optimizer.FitConfig(init="random", restarts=2, grad_tol=1e-9)
    pca = pca_fit(S, r, sigma2, s)
    data = SampleCov(S, n)
    gnorm = optimizer.objective(data, None, sigma2, s).grad(optimizer.normalized_point(pca)).norm()
    res = optimizer.fit(data, None, r, sigma2, s, config)
    dB = float(np.linalg.norm(res.params.B.B - pca.B.B))
    dlam = float(np.linalg.norm(res.params.lam - pca.lam))
    return PcaAgreement(
        grad_norm_at_pca=gnorm,
        frame_distance=dB,
        eigenvalue_distance=dlam,
        optimizer_converged=res.converged,
        optimizer_iters=res.n_iter,
    )


@dataclass(frozen=True)
class ScoreReport:
    """Estimation error versus its first-order score prediction."""

    n: int
    M: int
    r: int
    gamma_n: float
    frame_error: float
    eigenvalue_error: float
    frame_residual: float
    eigenvalue_residual: float
    delta_consistency: float


def align_signs(B_ref: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Flip columns of B so each has nonnegative inner product with B_ref."""
    flips = np.where(np.einsum("mk,mk->k", B_ref, B) < 0.0, -1.0, 1.0)
    return B * flips


def gamma_rate(M: int, n: int, beta_n: float = 0.0) -> float:
    """The driving rate max(sqrt(max(M, log n) / n), beta_n)."""
    return max(np.sqrt(max(M, np.log(n)) / n), beta_n)


def score_residual(
    params_star: ModelParams, S: np.ndarray, n: int, beta_n: float = 0.0
) -> ScoreReport:
    """First-order score expansion versus the actual estimator, normalized scale."""
    if abs(params_star.sigma2 - 1.0) > 1e-12 or abs(params_star.s - 1.0) > 1e-12:
        raise ValueError("score residuals are defined on the normalized scale")
    est = pca_fit(S, params_star.r, 1.0, 1.0)
    Bstar = params_star.B.B
    Bhat = align_signs(Bstar, est.B.B)
    theta_star = ProductPoint(params_star.B, np.log(params_star.lam))
    delta_B, delta_lam = calculus.score_delta(theta_star, S)
    # cross-check: the resolvent form must equal the inverse-Hessian composition
    gB = calculus.grad_B(theta_star, S)
    alt = calculus.inv_hessian_star_B(theta_star, gB).scaled(-1.0)
    consistency = float(
        max(np.abs(alt.full() - delta_B.full()).max(), 0.0)
    )
    frame_err = float(np.linalg.norm(Bhat - Bstar))
    lam_err = float(np.linalg.norm(est.lam - params_star.lam))
    frame_res = float(np.linalg.norm(Bhat - Bstar - delta_B.full()))
    lam_res = float(np.linalg.norm(est.lam - params_star.lam - delta_lam))
    return ScoreReport(
        n=n,
        M=params_star.M,
        r=params_star.r,
        gamma_n=gamma_rate(params_star.M, n, beta_n),
        frame_error=frame_err,
        eigenvalue_error=lam_err,
        frame_residual=frame_res,
        eigenvalue_residual=lam_res,
        delta_consistency=consistency,
    )
