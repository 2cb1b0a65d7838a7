"""Rank-r covariance models and their observed-data likelihoods.

Two observation regimes share one parameterization (frame B with
orthonormal columns, eigenvalue vector lam, noise variance sigma2,
signal scale s):

* functional (a `Dataset`): curve i observed at m_i design points gives
  an m_i x m_i marginal covariance  s * Phi_i^T B diag(lam) B^T Phi_i
  + sigma2 I;
* matrix (a `SampleCov`): a single M x M sample covariance with
  population value  s * B diag(lam) B^T + sigma2 I.

The loss kernels know only the normalized scale sigma2 = s = 1, to which
`optimizer.objective` reduces the data: y / sqrt(sigma2) or S / sigma2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .bspline import OrthoBasis, eval_basis, project_function
from .stiefel import StiefelPoint

class DegenerateSpectrumError(ValueError):
    """Eigenvalue ties or vanishing gaps where distinct values are required."""


def canonicalize(B: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort columns by decreasing eigenvalue and fix signs.

    Each column is flipped so its largest-magnitude entry is positive
    (first such entry on ties), making reported frames comparable across
    runs and with plain eigendecompositions.
    """
    lam = np.asarray(lam, dtype=float)
    order = np.argsort(-lam, kind="stable")
    B2 = np.array(B[:, order], dtype=float)
    for k in range(B2.shape[1]):
        j = int(np.argmax(np.abs(B2[:, k])))
        if B2[j, k] < 0:
            B2[:, k] = -B2[:, k]
    return B2, lam[order]


@dataclass(frozen=True)
class ModelParams:
    """Full parameter vector of the rank-r covariance model."""

    M: int
    r: int
    B: StiefelPoint
    lam: np.ndarray = field(repr=False)
    sigma2: float
    s: float = 1.0

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if self.B.shape != (self.M, self.r):
            raise ValueError(f"frame shape {self.B.shape} does not match (M, r)=({self.M}, {self.r})")
        if lam.shape != (self.r,):
            raise ValueError("lam must have length r")
        if not (lam > 0).all():
            raise ValueError("eigenvalues must be strictly positive")
        if self.r > 1 and not (np.diff(lam) < 0).all():
            raise DegenerateSpectrumError("eigenvalues must be strictly decreasing")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not self.s > 0:
            raise ValueError("s must be positive")
        object.__setattr__(self, "lam", lam)

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "r": self.r,
            "sigma2": float(self.sigma2),
            "s": float(self.s),
            "lambda": [float(v) for v in self.lam],
            "B": [[float(v) for v in row] for row in self.B.B],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelParams":
        B = np.asarray(d["B"], dtype=float)
        return ModelParams(
            M=int(d["M"]),
            r=int(d["r"]),
            B=StiefelPoint(B),
            lam=np.asarray(d["lambda"], dtype=float),
            sigma2=float(d["sigma2"]),
            s=float(d.get("s", 1.0)),
        )


@dataclass(frozen=True)
class CurveData:
    """One curve's design points and values; Dataset.curves hands out views."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class Dataset:
    """Curves as flat columns t and y, curve i in rows offsets[i]:offsets[i + 1]."""

    t: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.offsets is None or len(self.offsets) < 2:
            raise ValueError("curve data needs at least one curve")
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        offsets = np.asarray(self.offsets, dtype=np.intp)
        if t.ndim != 1 or t.shape != y.shape or offsets[0] != 0 or offsets[-1] != t.size:
            raise ValueError("t and y must be 1-d columns of equal length, split by offsets")
        if (np.diff(offsets) < 1).any():
            raise ValueError("a curve needs at least one observation")
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValueError("design points and values must be finite")
        if t.min() < 0.0 or t.max() > 1.0:
            raise ValueError("design points must lie in [0, 1]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n(self) -> int:
        return self.offsets.size - 1

    @property
    def curves(self) -> tuple[CurveData, ...]:
        """Each curve as views into the t and y columns."""
        cuts = self.offsets[1:-1]
        return tuple(map(CurveData, np.split(self.t, cuts), np.split(self.y, cuts)))

    @staticmethod
    def functional(curves: Sequence[CurveData]) -> "Dataset":
        """Stack per-curve times and values, in order, into the flat columns."""
        if any(np.ndim(c.times) != 1 or np.shape(c.times) != np.shape(c.values) for c in curves):
            raise ValueError("times and values must be 1-d arrays of equal length")
        t = np.concatenate([np.empty(0), *(c.times for c in curves)])
        y = np.concatenate([np.empty(0), *(c.values for c in curves)])
        return Dataset(t, y, np.cumsum([0, *(np.size(c.times) for c in curves)]))


@dataclass(frozen=True)
class SampleCov:
    """The sample covariance cov of n Gaussian vectors."""

    cov: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("sample count must be positive")
        S = np.asarray(self.cov, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("sample covariance must be square")
        if not np.isfinite(S).all():
            raise ValueError("sample covariance must be finite")
        if not np.array_equal(S, S.T):
            S = 0.5 * (S + S.T)
        if np.linalg.eigvalsh(S).min() < -1e-10:
            raise ValueError("sample covariance is not positive semidefinite")
        object.__setattr__(self, "cov", S)
        object.__setattr__(self, "n", int(self.n))


# curve_batches forms the M*M-wide point rows for chunks of whole curves of
# at most about this many observations, which bounds their memory whatever n is
CHUNK_ROWS = 1024


@dataclass(frozen=True)
class CurveBatches:
    """Each curve's sufficient statistics for the likelihood, in curve order.

    Curve i enters the loss and its gradient only through P_i = Phi_i^T
    Phi_i (M x M), v_i = Phi_i^T y_i, q_i = y_i^T y_i and m_i, where the
    rows of Phi_i are basis evaluations at its design points.  D and d are
    the point-level sums  sum_j k_j k_j^T  and  sum_j y_j^2 k_j  with
    k_j = kron(phi_j, phi_j), which the pooled initializer subtracts.
    """

    P: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def groups(self) -> tuple["CurveBatches"]:
        # the benchmark's tracer counts batches as len(curve_batches(...).groups)
        return (self,)


def curve_batches(data: Dataset, basis: OrthoBasis) -> CurveBatches:
    """The statistics of every curve, from one basis evaluation of all points."""
    M = basis.M
    offsets = data.offsets
    Phi = eval_basis(basis, data.t)
    y = data.y
    P = np.empty((data.n, M * M))
    D = np.zeros((M * M, M * M))
    d = np.zeros(M * M)
    lo = 0
    while lo < data.n:
        # the curves whose rows fit in one chunk; a longer curve is a chunk alone
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + CHUNK_ROWS, "right")) - 1)
        rows = slice(offsets[lo], offsets[hi])
        K = np.einsum("pa,pb->pab", Phi[rows], Phi[rows]).reshape(-1, M * M)
        P[lo:hi] = np.add.reduceat(K, offsets[lo:hi] - offsets[lo])
        D += K.T @ K
        d += K.T @ y[rows] ** 2
        lo = hi
    starts = offsets[:-1]
    v = np.add.reduceat(Phi * y[:, None], starts)
    q = np.add.reduceat(y * y, starts)
    return CurveBatches(P.reshape(-1, M, M), v, q, np.diff(offsets), D, d)


def marginal_cov(params: ModelParams, Phi: np.ndarray) -> np.ndarray:
    """Marginal covariance of one curve given its M x m design matrix."""
    X = Phi.T @ params.B.B
    S = params.s * (X * params.lam) @ X.T
    S[np.diag_indices_from(S)] += params.sigma2
    return S


def batched_cholesky(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack (n, r, r) of symmetric positive
    definite matrices.

    Loops over the r(r+1)/2 entries and is vectorized over the stack, which
    beats LAPACK's per-matrix dispatch on the tiny r x r systems of the
    curve likelihood.  Raises LinAlgError if any pivot is not positive
    (NaN included), so it never returns NaN.
    """
    r = G.shape[-1]
    Gt = G.transpose(1, 2, 0)
    Lt = np.zeros((r, r, G.shape[0]))
    for j in range(r):
        d = Gt[j, j] - np.sum(Lt[j, :j] ** 2, axis=0)
        if not (d > 0.0).all():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        Lt[j, j] = np.sqrt(d)
        for i in range(j + 1, r):
            Lt[i, j] = (Gt[i, j] - np.sum(Lt[i, :j] * Lt[j, :j], axis=0)) / Lt[j, j]
    return Lt.transpose(2, 0, 1)


def lower_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution L z = b for stacks L (n, r, r) and b (n, r, k)."""
    Lt = L.transpose(1, 2, 0)
    bt = b.transpose(1, 2, 0)
    zt = np.empty(bt.shape)
    for j in range(Lt.shape[0]):
        zt[j] = (bt[j] - np.sum(Lt[j, :j, None] * zt[:j], axis=0)) / Lt[j, j]
    return zt.transpose(2, 0, 1)


def curve_factors(
    B: np.ndarray, lam: np.ndarray, batches: CurveBatches
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rank-r Woodbury systems of every curve, factored in one pass.

    Curve i's marginal covariance is I + X_i diag(lam) X_i^T with
    X_i = Phi_i B; its inverse and determinant reduce to the r x r
    matrix G_i = H_i + diag(1 / lam), H_i = X_i^T X_i = B^T P_i B.
    Returns H, X^T y = B^T v and the Cholesky factors of G, stacked over
    the curves.
    """
    M, r = B.shape
    # vec(B^T P_i B) = vec(P_i) kron(B, B) for every curve, as one GEMM
    H = (batches.P.reshape(-1, M * M) @ np.kron(B, B)).reshape(-1, r, r)
    G = H.copy()
    G.reshape(-1, r * r)[:, :: r + 1] += 1.0 / lam
    return H, batches.v @ B, batched_cholesky(G)


def functional_loss(B: np.ndarray, lam: np.ndarray, batches: CurveBatches) -> float:
    """The functional negative log likelihood, averaged over curves.

    Uses the rank-r downdate of each marginal covariance, so no m x m
    factorization is formed; the per-curve terms are summed in curve order.
    """
    _, Xty, L = curve_factors(B, lam, batches)
    logdetG = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    z = lower_solve(L, Xty[:, :, None])[:, :, 0]
    quad = batches.q - np.einsum("gi,gi->g", z, z)
    logdet = logdetG + np.sum(np.log(lam))
    return float(np.sum(0.5 * (quad + logdet)) / batches.n)


def matrix_loss(B: np.ndarray, lam: np.ndarray, S: np.ndarray) -> float:
    G = 1.0 / lam + 1.0
    BtSB = B.T @ S @ B
    tr_term = np.trace(S) - np.sum(np.diag(BtSB) / G)
    logdet = np.sum(np.log(lam + 1.0))
    return float(tr_term + logdet)


def kl_divergence(Sigma: np.ndarray, Sigma_star: np.ndarray) -> float:
    """Kullback-Leibler divergence between centered Gaussians.

    Computed from the eigenvalues e_i of R = S^{-1/2} (S* - S) S^{-1/2}
    as  0.5 * sum(e_i - log(1 + e_i)),  which stays accurate when the
    two covariances are close (each summand is evaluated with log1p).
    """
    Sigma = np.asarray(Sigma, dtype=float)
    Sigma_star = np.asarray(Sigma_star, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (Sigma + Sigma.T))
    if evals.min() <= 0.0:
        raise ValueError("first covariance is not positive definite")
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    R = inv_sqrt @ (Sigma_star - Sigma) @ inv_sqrt
    e = np.linalg.eigvalsh(0.5 * (R + R.T))
    if e.min() <= -1.0:
        raise ValueError("second covariance is not positive definite")
    return float(0.5 * np.sum(e - np.log1p(e)))


@lru_cache(maxsize=4)
def _unit_gauss(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], cached and so read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class Kernel:
    """A finite-rank covariance kernel sum_k lam_k f_k(u) f_k(v).

    `eigenvalues` (r,) are positive and strictly decreasing;
    `eigenfunctions` maps points t (k,) to the (k, r) array of f_1..f_r
    at t.  Both the data-generating truth and a fitted model are one.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenfunctions: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1:
            raise ValueError("eigenvalues must be a 1-d array")
        if not (lam > 0).all() or (np.diff(lam) >= 0).any():
            raise ValueError("eigenvalues must be positive and strictly decreasing")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    def evaluator(self) -> "Kernel":
        # the benchmark's workloads measure distances to truth.evaluator()
        return self

    def check_orthonormal(self, npts: int = 512, tol: float = 1e-8) -> float:
        """Max deviation of the eigenfunction Gram matrix from identity."""
        x, w = _unit_gauss(npts)
        F = np.asarray(self.eigenfunctions(x), dtype=float)
        if F.shape != (npts, self.rank):
            raise ValueError(f"eigenfunctions gave shape {F.shape}, expected ({npts}, {self.rank})")
        G = F.T @ (w[:, None] * F)
        dev = float(np.abs(G - np.eye(self.rank)).max())
        if dev > tol:
            raise ValueError(f"eigenfunctions are not orthonormal (deviation {dev:.3e})")
        return dev


def kernel_from_params(params: ModelParams, basis: OrthoBasis) -> Kernel:
    """The fitted covariance kernel, with eigenfunctions phi(t)^T B."""
    B = params.B.B
    return Kernel(params.lam, lambda t: eval_basis(basis, t) @ B)


def kernel_l2_distance(k1: Kernel, k2: Kernel, npts: int = 128) -> float:
    """L2([0,1]^2) distance between two kernels (tensor Gauss rule)."""
    x, w = _unit_gauss(npts)
    F1, F2 = k1.eigenfunctions(x), k2.eigenfunctions(x)
    D = (F1 * k1.eigenvalues) @ F1.T - (F2 * k2.eigenvalues) @ F2.T
    return float(np.sqrt(np.einsum("i,ij,j->", w, D * D, w)))


def optimal_parameter(
    truth: Kernel, basis: OrthoBasis, r: int
) -> tuple[StiefelPoint, np.ndarray, float]:
    """Best rank-r approximation of a true kernel within the model space.

    Projects the eigenfunctions onto the basis, assembles the projected
    kernel's coefficient matrix, and keeps its top-r eigenpairs.  Returns
    the canonicalized frame, its eigenvalues, and the L2 approximation
    error of the resulting kernel relative to the truth.
    """
    coefs = project_function(basis, truth.eigenfunctions)
    Ccoef = (coefs * truth.eigenvalues) @ coefs.T
    evals, evecs = np.linalg.eigh(Ccoef)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if r > truth.rank or r > basis.M:
        raise ValueError("requested rank exceeds the truth rank or basis dimension")
    if evals[r - 1] <= 1e-12:
        raise DegenerateSpectrumError("projected kernel has rank below r")
    gaps = -np.diff(evals[: min(r + 1, evals.size)])
    if (gaps <= 1e-10).any():
        raise DegenerateSpectrumError("projected kernel has eigenvalue ties near the cut")
    B, lam = canonicalize(evecs[:, :r], evals[:r])
    point = StiefelPoint(B)
    approx = kernel_from_params(
        ModelParams(M=basis.M, r=r, B=point, lam=lam, sigma2=1.0), basis
    )
    beta = kernel_l2_distance(truth, approx)
    return point, lam, beta
