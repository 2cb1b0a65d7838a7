"""Geodesic descent for the covariance losses on (Stiefel) x R^r.

Search directions start from the gradient preconditioned by the inverse
of the closed-form population Hessian (Fisher scoring; the plain negative
canonical gradient near eigenvalue ties).  In the matrix regime that is
the whole direction, because the population Hessian is the exact Hessian
at the optimum.  In the curve regime it is the initial operator H0 of a
Riemannian L-BFGS two-loop recursion (Huang, Gallivan & Absil 2015) over
the last few accepted steps, whose curvature pairs move between base
points by tangent projection; this turns the linear local rate of Fisher
scoring, set by how far the sample is from the model, into a superlinear
one.  Steps follow exact geodesics with Armijo backtracking, which keeps
the loss trace nonincreasing; a direction that is not a descent direction
falls back to the negative gradient and clears the curvature memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import calculus, model
from .bspline import OrthoBasis
from .model import CurveBatches, Dataset, ModelParams, SampleCov, canonicalize, curve_batches
from .stiefel import (
    GeodesicError,
    ProductPoint,
    ProductTangent,
    StiefelPoint,
    TangentVector,
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
# the curve regime's L-BFGS direction remembers at most this many (s, y) pairs
CURVATURE_PAIRS = 5


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the geodesic descent loop.

    grad_tol of None takes the objective's own default (1e-8 for matrix
    data, 1e-6 for curve data); a given grad_tol must be positive and
    finite.
    """

    max_iter: int = 500
    grad_tol: float | None = None
    init: str = "pooled-pca"  # pooled-pca | random
    restarts: int = 3
    seed: int = 0


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
    factorization: all pairs, sum_i kron(P_i, P_i) and sum_i kron(v_i, v_i),
    minus the diagonal pairs j = j', the batches' D and d.  A small ridge
    keeps them solvable for tiny samples.
    """
    if (batches.m < 2).all():
        raise ValueError(
            "no curve has two or more observations; the pooled initializer needs off-diagonal pairs"
        )
    MM = M * M
    Pflat = batches.P.reshape(-1, MM)
    AtA = (Pflat.T @ Pflat).reshape(M, M, M, M).transpose(0, 2, 1, 3).reshape(MM, MM)
    AtA -= batches.D
    Atb = (batches.v.T @ batches.v).reshape(MM) - batches.d
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
    curvature_pairs: ClassVar[int] = CURVATURE_PAIRS

    @property
    def dim(self) -> int:
        return self.M

    def loss(self, theta: ProductPoint) -> float:
        return model.functional_loss(theta.point.B, theta.lam, self.sigma2, self.s, self.batches)

    def grad(self, theta: ProductPoint) -> ProductTangent:
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
    # the Fisher direction is already the exact Newton direction at the
    # optimum here; an L-BFGS memory on top of it made the fits slower
    curvature_pairs: ClassVar[int] = 0

    def __post_init__(self):
        object.__setattr__(self, "shift", np.log(self.s) - np.log(self.sigma2))

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    def loss(self, theta: ProductPoint) -> float:
        return model.matrix_loss(theta.point.B, theta.lam, self.sigma2, self.s, self.S)

    def grad(self, theta: ProductPoint) -> ProductTangent:
        theta_n = ProductPoint(theta.point, theta.zeta + self.shift)
        SB = (self.S @ theta.point.B) / self.sigma2
        return ProductTangent(
            calculus.grad_B_scaled(theta_n, SB), calculus.grad_zeta_scaled(theta_n, SB)
        )

    def pooled_start(self, r: int):
        return _pooled_pca_matrix(self.S, r, self.sigma2, self.s)


Objective = FunctionalObjective | MatrixObjective


def objective(
    data: Dataset | SampleCov, basis: OrthoBasis | None, sigma2: float, s: float = 1.0
) -> Objective:
    """The loss of the data's regime; the descent never looks at the regime again."""
    if isinstance(data, SampleCov):
        return MatrixObjective(data.cov, sigma2, s)
    if basis is None:
        raise ValueError("curve data needs a basis")
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


class CurvatureMemory:
    """The (s, y) pairs of the L-BFGS direction, kept at the current base point.

    A product tangent (A, C, dzeta) is stored as one flat row [A, C,
    dzeta], in which the product metric weighs the skew block by 1/2.
    `observe` carries every stored pair, and the step accepted last, to the
    new frame by tangent projection (the vector transport of Absil, Mahony
    & Sepulchre 2008, section 8.1; zeta parts carry over as they are) and
    forms the new pair from the gradient there.  A new pair with y^T s <= 0
    is skipped.  A stored pair keeps the rho = 1 / y^T s it was added
    with: any positive rho keeps the two-loop operator positive definite,
    and re-measuring y^T s after every transport gave a tiny fit that
    starts at the eigenvalue floor several times the loss evaluations.
    """

    def __init__(self, capacity: int, M: int, r: int):
        self.capacity, self.M, self.r = capacity, M, r
        self.weight = np.ones(r * r + M * r + r)
        self.weight[: r * r] = 0.5
        self.pending = None  # (frame, step, gradient) of the last accepted step
        self.clear()

    def clear(self) -> None:
        self.S = np.empty((0, self.weight.size))
        self.Y = np.empty((0, self.weight.size))
        self.rho = np.empty(0)

    def __len__(self) -> int:
        return self.rho.size

    @staticmethod
    def flat(v: ProductTangent) -> np.ndarray:
        return np.concatenate((v.U.A.ravel(), v.U.C.ravel(), v.dzeta))

    def split(self, v: np.ndarray):
        """The (A, C, dzeta) blocks of a flat row, as views."""
        M, r = self.M, self.r
        return v[: r * r].reshape(r, r), v[r * r : r * r + M * r].reshape(M, r), v[r * r + M * r :]

    def _transport(self, rows: np.ndarray, B_old: np.ndarray, B_new: np.ndarray) -> np.ndarray:
        k, M, r = rows.shape[0], self.M, self.r
        rr, mr = r * r, M * r
        # each row as the M x r matrix B_old A + C, projected onto the tangent space at B_new
        U = B_old @ rows[:, :rr].reshape(k, r, r) + rows[:, rr : rr + mr].reshape(k, M, r)
        BtU = B_new.T @ U
        out = np.empty_like(rows)
        out[:, :rr] = (0.5 * (BtU - BtU.transpose(0, 2, 1))).reshape(k, rr)
        out[:, rr : rr + mr] = (U - B_new @ BtU).reshape(k, mr)
        out[:, rr + mr :] = rows[:, rr + mr :]
        return out

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        """Remember the pair (s, y) at the current base, unless y^T s <= 0."""
        ys = (self.weight * y) @ s
        if ys <= 0.0:
            return
        self.S = np.vstack((self.S, s))[-self.capacity :]
        self.Y = np.vstack((self.Y, y))[-self.capacity :]
        self.rho = np.append(self.rho, 1.0 / ys)[-self.capacity :]

    def remember(self, B: np.ndarray, t: float, d: ProductTangent, grad: ProductTangent):
        """Hold the accepted step t d from frame B until the gradient at its end is known."""
        self.pending = (B, t * self.flat(d), self.flat(grad))

    def observe(self, B: np.ndarray, grad: ProductTangent) -> None:
        """Move the memory to frame B, where the pending step ended, and add its pair."""
        if self.pending is None:
            return
        B_old, s, g_old = self.pending
        self.pending = None
        k = len(self)
        rows = self._transport(np.vstack((self.S, self.Y, s, g_old)), B_old, B)
        self.S, self.Y = rows[:k], rows[k : 2 * k]
        self.add(rows[2 * k], self.flat(grad) - rows[2 * k + 1])


def _direction(
    theta, grad, obj: Objective, memory: CurvatureMemory | None = None
) -> ProductTangent:
    """Search direction: the L-BFGS two-loop recursion over `memory` in the
    product metric, with the closed-form population Hessian inverse as its
    initial operator H0 (the identity near eigenvalue ties).  H0 scales A
    symmetrically in (i, j), the columns of C and zeta, so it is
    self-adjoint and positive definite in that metric; an empty memory
    gives the Fisher direction H0 g itself."""
    point = theta.point
    qB, qz = grad.U, grad.dzeta
    if memory:  # first loop, newest pair first, on flat rows
        q = memory.flat(grad)
        alpha = np.empty(len(memory))
        for i in reversed(range(len(memory))):
            alpha[i] = memory.rho[i] * ((memory.weight * memory.S[i]) @ q)
            q = q - alpha[i] * memory.Y[i]
        qA, qC, qz = memory.split(q)
        qB = TangentVector(point, qA, qC)
    theta_n = ProductPoint(point, theta.zeta + np.log(obj.s) - np.log(obj.sigma2))
    try:
        hB = calculus.inv_hessian_star_B(theta_n, qB)
        lam_n = theta_n.lam
        hz = np.minimum(((1.0 + lam_n) / lam_n) ** 2, 1e4) * qz
    except calculus.NearDegenerateError:
        hB, hz = qB, qz
    hA, hC = hB.A, hB.C
    if memory:  # second loop, oldest pair first
        h = memory.flat(ProductTangent(hB, hz))
        for i in range(len(memory)):
            beta = memory.rho[i] * ((memory.weight * memory.Y[i]) @ h)
            h = h + (alpha[i] - beta) * memory.S[i]
        hA, hC, hz = memory.split(h)
    return ProductTangent(TangentVector(point, -hA, -hC), -hz)


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
    loss0: float,
    t0: float = 1.0,
    memory: CurvatureMemory | None = None,
) -> tuple[ProductPoint, StepInfo]:
    """One Armijo-backtracked geodesic step from a point whose loss is loss0.

    Never increases the loss; returns theta unmoved (step size 0) once the
    gradient norm is below obj.grad_tol.  A trial whose geodesic cannot be
    computed accurately, or whose loss cannot be factored, is rejected like
    one that fails the Armijo test.
    `memory`, if given, takes the gradient at theta as the end of the step
    it holds, and holds the step accepted here.
    """
    grad = obj.grad(theta)
    gnorm = grad.norm()
    if gnorm < obj.grad_tol:
        return theta, StepInfo(loss0, gnorm, 0.0, 0, False)
    if memory is not None:
        memory.observe(theta.point.B, grad)
    d = _direction(theta, grad, obj, memory)
    slope = product_inner(grad, d)
    if slope >= 0.0:  # fall back if preconditioning failed to give descent
        d = grad.scaled(-1.0)
        slope = -gnorm**2
        if memory is not None:
            memory.clear()
    t = t0
    # a trial so far out that its eigenvalues overflow has a NaN or infinite
    # loss, which the Armijo test rejects without a warning, or (on curves
    # with m < r, whose G_i is then singular) a loss that cannot be factored
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for h in range(MAX_HALVINGS + 1):
            try:
                cand = product_exp(theta, d, t)
                loss_t = obj.loss(cand)
            except (GeodesicError, np.linalg.LinAlgError):
                t *= STEP_SHRINK
                continue
            if loss_t <= loss0 + ARMIJO_C * t * slope:
                if memory is not None:
                    memory.remember(theta.point.B, t, d, grad)
                return cand, StepInfo(loss_t, gnorm, t, h, False)
            t *= STEP_SHRINK
    return theta, StepInfo(loss0, gnorm, 0.0, MAX_HALVINGS, True)


def _run_descent(theta, obj: Objective, config: FitConfig):
    """Descend from theta.  Returns the final point, the loss trace, the stop
    reason, the iteration count, and the gradient norm at the final point
    when the last step already computed it (None otherwise)."""
    trace = [obj.loss(theta)]
    memory = None
    if obj.curvature_pairs:
        memory = CurvatureMemory(obj.curvature_pairs, *theta.point.shape)
    t_prev = 1.0
    iters = 0
    tiny = 0
    reason = "max-iter"
    while iters < config.max_iter:
        t0 = min(max(4.0 * t_prev, 1e-2), 1.0)
        theta_new, info = step(theta, obj, trace[-1], t0, memory)
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
    data: Dataset | SampleCov,
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
        if not 0.0 < config.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {config.grad_tol}")
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
