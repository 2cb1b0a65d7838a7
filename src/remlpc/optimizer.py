"""Geodesic descent for the covariance losses on (Stiefel) x R^r.

Search directions are the gradient preconditioned by the inverse of the
closed-form population Hessian (a positive definite operator, so the
direction is always a descent direction), falling back to the plain
negative canonical gradient near eigenvalue ties.  Steps follow exact
geodesics with Armijo backtracking, which keeps the loss trace
nonincreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import calculus, model
from .bspline import OrthoBasis
from .model import CurveBatches, Dataset, ModelParams, canonicalize, curve_batches
from .stiefel import (
    ProductPoint,
    ProductTangent,
    StiefelPoint,
    product_exp,
    product_inner,
)

_EIG_FLOOR = 1e-6
# Armijo backtracking: each rejected trial multiplies the step by
# STEP_SHRINK, at most MAX_HALVINGS times.  ARMIJO_C is strict enough to
# reject the tiny decreases of a cycling overshoot, loose enough to accept
# exact Newton steps (which achieve slope / 2).
STEP_SHRINK = 0.5
ARMIJO_C = 0.1
MAX_HALVINGS = 60
# The descent also stops once LOSS_PATIENCE consecutive accepted steps each
# improve the loss by less than LOSS_TOL relative; that exhaustion of
# measurable decrease counts as convergence.
LOSS_TOL = 1e-13
LOSS_PATIENCE = 3
# ridge of the pooled initializer's normal equations, relative to their scale
INIT_RIDGE = 1e-8
# the initializer accumulates its normal equations over chunks of at most
# this many observations, which bounds its working memory whatever n is
INIT_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the geodesic descent loop.

    grad_tol of None takes the objective's own default (1e-8 for matrix
    data, 1e-6 for curve data).
    """

    max_iter: int = 500
    grad_tol: float | None = None
    init: str = "pooled-pca"  # pooled-pca | random
    restarts: int = 3
    seed: int = 0
    fisher: bool = True


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    converged: bool
    n_iter: int
    grad_norm: float
    loss: float
    trace: np.ndarray = field(repr=False)
    stop_reason: str = ""  # grad-tol | loss-tol | line-search | max-iter
    restart_index: int = 0


def _strictly_decreasing(lam: np.ndarray) -> np.ndarray:
    out = lam.copy()
    for k in range(1, out.size):
        cap = out[k - 1] * (1.0 - 1e-9)
        if out[k] >= cap:
            out[k] = cap
    return out


def _pooled_pca_matrix(S: np.ndarray, r: int, sigma2: float, s: float):
    evals, evecs = np.linalg.eigh(S)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if evals[r - 1] <= max(evals[0], 1.0) * 1e-12:
        raise ValueError(f"sample covariance has numerical rank below r={r}")
    lam0 = np.maximum((evals[:r] - sigma2) / s, _EIG_FLOOR)
    B0, lam0 = canonicalize(evecs[:, :r], lam0)
    return StiefelPoint(B0), _strictly_decreasing(lam0)


def _pooled_fit_functional(batches: CurveBatches, M: int, r: int, ridge: float):
    """Least-squares fit of off-diagonal raw products onto the tensor basis.

    Off-diagonal products y_ij y_ij' are unbiased for the signal kernel
    at (t_ij, t_ij'), so no noise-variance correction is needed.  The
    normal equations over the M x M coefficient matrix use the pair-sum
    factorization; a small ridge keeps them solvable for tiny samples.
    """
    if all(Phi.shape[1] < 2 for _, Phi, _ in batches.groups):
        raise ValueError(
            "no curve has two or more observations; the pooled initializer needs off-diagonal pairs"
        )
    MM = M * M
    AtA = np.zeros((MM, MM))
    Atb = np.zeros(MM)
    for _, Phi, y in batches.groups:
        m = Phi.shape[1]
        if m < 2:  # a single point has no pairs; its terms cancel exactly
            continue
        step = max(1, INIT_CHUNK_ROWS // m)
        for lo in range(0, Phi.shape[0], step):
            Pc, yc = Phi[lo : lo + step], y[lo : lo + step]
            # sum_g kron(P_g, P_g) with P_g = Phi_g^T Phi_g, as one GEMM
            Pflat = np.einsum("gja,gjb->gab", Pc, Pc).reshape(-1, MM)
            AtA += (Pflat.T @ Pflat).reshape(M, M, M, M).transpose(0, 2, 1, 3).reshape(MM, MM)
            v = np.einsum("gja,gj->ga", Pc, yc)
            Atb += (v.T @ v).reshape(MM)
            # minus the diagonal pairs j = j': rows kron(phi_j, phi_j)
            rows = Pc.reshape(-1, M)
            K = np.einsum("pa,pb->pab", rows, rows).reshape(-1, MM)
            AtA -= K.T @ K
            Atb -= K.T @ (yc.reshape(-1) ** 2)
    scale = max(np.trace(AtA) / (M * M), 1.0)
    AtA[np.diag_indices_from(AtA)] += ridge * scale
    C = np.linalg.solve(AtA, Atb).reshape(M, M)
    C = 0.5 * (C + C.T)
    evals, evecs = np.linalg.eigh(C)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    lam0 = np.maximum(evals[:r], _EIG_FLOOR)
    B0, lam0 = canonicalize(evecs[:, :r], lam0)
    return StiefelPoint(B0), _strictly_decreasing(lam0)


def _random_start(M: int, r: int, rng: np.random.Generator):
    Z = rng.standard_normal((M, r))
    Q, _ = np.linalg.qr(Z)
    lam0 = np.sort(np.exp(rng.normal(0.0, 0.5, r)))[::-1]
    B0, lam0 = canonicalize(Q, lam0)
    return StiefelPoint(B0), _strictly_decreasing(lam0)


@dataclass(frozen=True)
class FunctionalObjective:
    """Curve-data loss: the average over curves of one half the Gaussian
    negative log likelihood of each curve's marginal covariance.

    Its default grad_tol is 1e-6: the loss is a long float sum, so its
    gradient cannot be certified much below the rounding noise of that sum.
    """

    batches: CurveBatches
    M: int
    sigma2: float
    s: float
    grad_tol: float = 1e-6

    @property
    def dim(self) -> int:
        return self.M

    def loss(self, theta: ProductPoint) -> float:
        return model.functional_loss(theta.point.B, theta.lam, self.sigma2, self.s, self.batches)

    def grad(self, theta: ProductPoint) -> calculus.GradPair:
        return calculus.grad_functional_raw(
            theta.point, theta.lam, self.sigma2, self.s, self.batches
        )

    def pooled_start(self, r: int):
        return _pooled_fit_functional(self.batches, self.M, r, INIT_RIDGE)


@dataclass(frozen=True)
class MatrixObjective:
    """Sample-covariance loss tr(Gamma^-1 S) + log det Gamma (no 1/2 factor,
    the convention the score calculus differentiates).

    The gradient works on the normalized scale of `calculus.rescaled`: the
    zeta shift log(s / sigma2) is formed once here, and each gradient forms
    S B / sigma2 once for both of its blocks (dividing the M x r product
    rather than keeping an M x M copy of S / sigma2).
    """

    S: np.ndarray = field(repr=False)
    sigma2: float
    s: float
    grad_tol: float = 1e-8
    shift: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shift", np.log(self.s) - np.log(self.sigma2))

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    def loss(self, theta: ProductPoint) -> float:
        return model.matrix_loss(theta.point.B, theta.lam, self.sigma2, self.s, self.S)

    def grad(self, theta: ProductPoint) -> calculus.GradPair:
        theta_n = ProductPoint(theta.point, theta.zeta + self.shift)
        SB = (self.S @ theta.point.B) / self.sigma2
        return calculus.GradPair(
            B=calculus.grad_B_scaled(theta_n, SB),
            zeta=calculus.grad_zeta_scaled(theta_n, SB),
        )

    def pooled_start(self, r: int):
        return _pooled_pca_matrix(self.S, r, self.sigma2, self.s)


Objective = FunctionalObjective | MatrixObjective


def objective(data: Dataset, basis: OrthoBasis | None, sigma2: float, s: float = 1.0) -> Objective:
    """The loss of the dataset's regime; the descent never looks at the regime again."""
    if data.regime == "matrix":
        return MatrixObjective(data.cov, sigma2, s)
    if basis is None:
        raise ValueError("functional regimes need a basis")
    return FunctionalObjective(curve_batches(data, basis), basis.M, sigma2, s)


def init_params(obj: Objective, r: int, init: str, rng: np.random.Generator) -> ModelParams:
    """Starting point for the descent (pooled PCA or a random frame)."""
    if init == "pooled-pca":
        B0, lam0 = obj.pooled_start(r)
    elif init == "random":
        B0, lam0 = _random_start(obj.dim, r, rng)
    else:
        raise ValueError(f"unknown init scheme {init!r}")
    return ModelParams(M=obj.dim, r=r, B=B0, lam=lam0, sigma2=obj.sigma2, s=obj.s)


def _direction(theta, grad, obj: Objective, fisher: bool) -> ProductTangent:
    """Search direction: preconditioned by the closed-form population
    Hessian inverse when enabled (positive definite, hence always a
    descent direction), plain negative gradient otherwise."""
    neg = grad.tangent().scaled(-1.0)
    if not fisher:
        return neg
    theta_n = ProductPoint(theta.point, theta.zeta + np.log(obj.s) - np.log(obj.sigma2))
    try:
        dB = calculus.inv_hessian_star_B(theta_n, grad.B).scaled(-1.0)
    except calculus.NearDegenerateError:
        return neg
    lam_n = theta_n.lam
    precond = np.minimum(((1.0 + lam_n) / lam_n) ** 2, 1e4)
    return ProductTangent(dB, -precond * grad.zeta)


@dataclass
class StepInfo:
    loss: float
    grad_norm: float
    step_size: float
    halvings: int
    stalled: bool


def step(
    theta: ProductPoint,
    obj: Objective,
    config: FitConfig,
    loss0: float,
    t0: float = 1.0,
) -> tuple[ProductPoint, StepInfo]:
    """One Armijo-backtracked geodesic step from a point whose loss is loss0.

    Never increases the loss; returns theta unmoved (step size 0) once the
    gradient norm is below obj.grad_tol.
    """
    grad = obj.grad(theta)
    gnorm = grad.norm()
    if gnorm < obj.grad_tol:
        return theta, StepInfo(loss0, gnorm, 0.0, 0, False)
    d = _direction(theta, grad, obj, config.fisher)
    g = grad.tangent()
    slope = product_inner(g, d)
    if slope >= 0.0:  # fall back if preconditioning failed to give descent
        d = g.scaled(-1.0)
        slope = -gnorm**2
    t = t0
    for h in range(MAX_HALVINGS + 1):
        cand = product_exp(theta, d, t)
        loss_t = obj.loss(cand)
        if loss_t <= loss0 + ARMIJO_C * t * slope:
            return cand, StepInfo(loss_t, gnorm, t, h, False)
        t *= STEP_SHRINK
    return theta, StepInfo(loss0, gnorm, 0.0, MAX_HALVINGS, True)


def _run_descent(theta, obj: Objective, config: FitConfig):
    """Descend from theta.  Returns the final point, the loss trace, the stop
    reason, the iteration count, and the gradient norm at the final point
    when the last step already computed it (None otherwise)."""
    trace = [obj.loss(theta)]
    t_prev = 1.0
    iters = 0
    tiny = 0
    reason = "max-iter"
    while iters < config.max_iter:
        t0 = min(max(4.0 * t_prev, 1e-2), 1.0)
        theta_new, info = step(theta, obj, config, trace[-1], t0)
        if info.step_size == 0.0:  # theta did not move; step took its gradient
            reason = "line-search" if info.stalled else "grad-tol"
            return theta, np.asarray(trace), reason, iters, info.grad_norm
        iters += 1
        decrease = trace[-1] - info.loss
        theta = theta_new
        trace.append(info.loss)
        t_prev = info.step_size
        tiny = tiny + 1 if decrease <= LOSS_TOL * (1.0 + abs(info.loss)) else 0
        if tiny >= LOSS_PATIENCE:
            reason = "loss-tol"
            break
    return theta, np.asarray(trace), reason, iters, None


def fit(
    data: Dataset,
    basis: OrthoBasis | None,
    r: int,
    sigma2: float,
    s: float = 1.0,
    config: FitConfig | None = None,
) -> FitResult:
    """Minimize the loss; returns canonicalized parameters and the loss trace.

    The first restart starts from the configured initializer; further
    restarts (config.restarts - 1 of them) start from random frames.
    The restart with the lowest final loss wins, earliest index on ties.
    """
    config = config or FitConfig()
    obj = objective(data, basis, sigma2, s)
    if config.grad_tol is not None:
        obj = replace(obj, grad_tol=config.grad_tol)
    if r < 1 or r > obj.dim:
        raise ValueError(f"rank must be in [1, {obj.dim}], got {r}")

    best = None
    for ridx in range(max(1, config.restarts)):
        init = config.init if ridx == 0 else "random"
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, ridx]))
        start = init_params(obj, r, init, rng)
        theta0 = ProductPoint(start.B, np.log(start.lam))
        theta, trace, reason, it, gnorm = _run_descent(theta0, obj, config)
        if gnorm is None:
            gnorm = obj.grad(theta).norm()
        cand = (trace[-1], ridx, theta, gnorm, reason, it, trace)
        if best is None or cand[0] < best[0] - 1e-12:
            best = cand
    loss, ridx, theta, gnorm, reason, it, trace = best
    Bc, lamc = canonicalize(theta.point.B, theta.lam)
    params = ModelParams(M=Bc.shape[0], r=r, B=StiefelPoint(Bc), lam=lamc, sigma2=sigma2, s=s)
    return FitResult(
        params=params,
        converged=bool(gnorm < obj.grad_tol or reason == "loss-tol"),
        n_iter=it,
        grad_norm=gnorm,
        loss=float(loss),
        trace=trace,
        stop_reason=reason,
        restart_index=ridx,
    )
