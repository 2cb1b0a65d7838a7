"""Simulation harness: truth construction, samplers, and experiments.

Everything is driven by counter-based seeding: the random stream of a
replicate is derived from (base_seed, n, replicate index) alone, so
results are byte-identical across reruns and independent of execution
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import matrixcase, optimizer
from .bspline import OrthoBasis, eval_basis, make_basis
from .model import (
    Dataset,
    ModelParams,
    SampleCov,
    TrueKernel,
    canonicalize,
    kernel_from_params,
    kernel_l2_distance,
    kl_divergence,
    optimal_parameter,
)
from .stiefel import StiefelPoint, TangentVector, exp_map


def _rng(*counters: int) -> np.random.Generator:
    """Deterministic stream from integer counters (the replicate hash)."""
    return np.random.default_rng(np.random.SeedSequence([int(c) for c in counters]))


def random_frame(M: int, r: int, seed: int) -> StiefelPoint:
    """A reproducible random orthonormal frame with canonical column signs."""
    Z = _rng(seed).standard_normal((M, r))
    Q, _ = np.linalg.qr(Z)
    Q, _ = canonicalize(Q, np.arange(r, 0, -1).astype(float))
    return StiefelPoint(Q)


def make_true_kernel(
    family: str,
    eigenvalues,
    M_ref: int = 4,
    seed: int = 0,
) -> TrueKernel:
    """A data-generating kernel with closed-form orthonormal eigenfunctions.

    family 'fourier': sqrt(2) sin / cos pairs of increasing frequency.
    family 'spline': functions that are exact elements of the reference
    spline space of dimension M_ref (so every model space with M >= 4
    and nested knots contains them when M_ref = 4, where the space is
    the cubic polynomials).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    r = lam.size
    if family == "fourier":

        def component(k):
            freq = 2.0 * np.pi * ((k // 2) + 1)
            if k % 2 == 0:
                return lambda t: np.sqrt(2.0) * np.sin(freq * np.asarray(t, dtype=float))
            return lambda t: np.sqrt(2.0) * np.cos(freq * np.asarray(t, dtype=float))

        fns = [component(k) for k in range(r)]
    elif family == "spline":
        basis = make_basis(M_ref)
        if r > M_ref:
            raise ValueError("rank exceeds the reference basis dimension")
        Z = _rng(seed).standard_normal((M_ref, r))
        Q, _ = np.linalg.qr(Z)
        Q, _ = canonicalize(Q, np.arange(r, 0, -1).astype(float))

        def component(k):
            return lambda t: eval_basis(basis, np.atleast_1d(np.asarray(t, dtype=float))) @ Q[:, k]

        fns = [component(k) for k in range(r)]
    else:
        raise ValueError(f"unknown kernel family {family!r}")
    kernel = TrueKernel(eigenvalues=lam, eigenfunctions=tuple(fns))
    kernel.check_orthonormal()
    return kernel


def sample_dataset(
    truth,
    regime: str,
    n: int,
    seed_counters,
    sigma2: float = 1.0,
    s: float = 1.0,
    m_bounds: tuple[int, int] | None = None,
    m: int | None = None,
) -> Dataset | SampleCov:
    """Draw one synthetic dataset.

    Functional regimes need a TrueKernel plus either m_bounds (sparse,
    per-curve count uniform on the closed range) or m (dense, common
    count) and return a curve Dataset.  The matrix regime needs a
    ModelParams truth and returns the SampleCov of n Gaussian vectors.
    """
    if regime == "sparse" and not (
        m_bounds is not None and len(m_bounds) == 2 and 1 <= m_bounds[0] <= m_bounds[1]
    ):
        raise ValueError(f"sparse regime needs m_bounds (low, high), 1 <= low <= high, got {m_bounds}")
    if regime == "dense" and (m is None or m < 1):
        raise ValueError(f"dense regime needs m >= 1, got {m}")
    rng = _rng(*seed_counters)
    if regime == "matrix":
        if not isinstance(truth, ModelParams):
            raise ValueError("matrix regime needs a ModelParams truth")
        B, lam = truth.B.B, truth.lam
        xi = rng.standard_normal((n, truth.r))
        eta = rng.standard_normal((n, truth.M))
        Y = xi @ (np.sqrt(truth.s * lam)[:, None] * B.T) + np.sqrt(truth.sigma2) * eta
        return SampleCov(Y.T @ Y / n, n)
    if not isinstance(truth, TrueKernel):
        raise ValueError("functional regimes need a TrueKernel truth")
    if regime == "sparse":
        counts = rng.integers(m_bounds[0], m_bounds[1] + 1, size=n)
    elif regime == "dense":
        counts = np.full(n, m, dtype=int)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    t, eps = np.empty(offsets[-1]), np.empty(offsets[-1])
    xi = np.empty((n, truth.rank))
    bounds = list(enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())))
    for i, (a, b) in bounds:
        t[a:b] = rng.uniform(0.0, 1.0, b - a)
        xi[i] = rng.standard_normal(truth.rank)
        eps[a:b] = rng.standard_normal(b - a)
    # one vectorized eigenfunction sweep over the pooled design points
    F = np.stack([f(t) for f in truth.eigenfunctions], axis=1)
    scores = np.sqrt(truth.eigenvalues) * xi
    signal = np.concatenate([np.empty(0), *(F[a:b] @ scores[i] for i, (a, b) in bounds)])
    return Dataset(t, signal + np.sqrt(sigma2) * eps, offsets)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a rate or score experiment."""

    regime: str
    n_grid: tuple[int, ...]
    replicates: int
    r: int
    base_seed: int = 0
    sigma2: float = 1.0
    s: float = 1.0
    m_bounds: tuple[int, int] | None = None
    m: int | None = None
    M_schedule: dict = field(default_factory=lambda: {"kind": "fixed", "M": 10})
    truth: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicates must be at least 1, got {self.replicates}")
        if not self.n_grid:
            raise ValueError("n_grid must list at least one sample size")

    def to_dict(self) -> dict:
        d = {
            "regime": self.regime,
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "r": self.r,
            "base_seed": self.base_seed,
            "sigma2": self.sigma2,
            "s": self.s,
            "M_schedule": dict(self.M_schedule),
            "truth": dict(self.truth),
            "fit": dict(self.fit),
        }
        if self.m_bounds is not None:
            d["m_bounds"] = list(self.m_bounds)
        if self.m is not None:
            d["m"] = self.m
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            regime=d["regime"],
            n_grid=tuple(int(v) for v in d["n_grid"]),
            replicates=int(d["replicates"]),
            r=int(d["r"]),
            base_seed=int(d.get("base_seed", 0)),
            sigma2=float(d.get("sigma2", 1.0)),
            s=float(d.get("s", 1.0)),
            m_bounds=tuple(int(v) for v in d["m_bounds"]) if "m_bounds" in d else None,
            m=int(d["m"]) if "m" in d else None,
            M_schedule=dict(d.get("M_schedule", {"kind": "fixed", "M": 10})),
            truth=dict(d.get("truth", {})),
            fit=dict(d.get("fit", {})),
        )


def schedule_M(schedule: dict, n: int) -> int:
    """Basis dimension for a sample size (fixed, or the slow n^(1/9) growth)."""
    kind = schedule.get("kind", "fixed")
    if kind == "fixed":
        return int(schedule["M"])
    if kind == "ninth-root":
        c = float(schedule.get("c", 2.0))
        return max(4, int(round(c * (n / np.log(n)) ** (1.0 / 9.0))))
    raise ValueError(f"unknown M schedule kind {kind!r}")


def build_truth(config: ExperimentConfig):
    """Instantiate the truth object described by a config."""
    t = dict(config.truth)
    family = t.get("family", "fourier")
    if config.regime == "matrix":
        M = int(t["M"])
        lam = np.asarray(t["eigenvalues"], dtype=float)
        frame = random_frame(M, lam.size, int(t.get("frame_seed", 1)))
        return ModelParams(
            M=M, r=lam.size, B=frame, lam=lam, sigma2=config.sigma2, s=config.s
        )
    return make_true_kernel(
        family,
        t["eigenvalues"],
        M_ref=int(t.get("M_ref", 4)),
        seed=int(t.get("seed", 0)),
    )


def _fit_config(config: ExperimentConfig) -> optimizer.FitConfig:
    known = {f.name for f in fields(optimizer.FitConfig)}
    unknown = sorted(set(config.fit) - known)
    if unknown:
        raise ValueError(
            f"unknown key(s) in 'fit': {', '.join(unknown)}; expected some of {sorted(known)}"
        )
    return optimizer.FitConfig(**{"restarts": 1, **config.fit})


def _require_two_distinct(ns) -> None:
    distinct = np.unique(ns)
    if distinct.size < 2:
        raise ValueError(
            f"a log-log slope needs at least two distinct n in n_grid, got {distinct.tolist()}"
        )


def loglog_slope(ns, values) -> tuple[float, float]:
    """Least-squares slope of log(values) on log(ns), with its standard error."""
    _require_two_distinct(ns)
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    X = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(X, y, rcond=None)
    dof = max(x.size - 2, 1)
    resid = y - X @ coef
    var = float(resid @ resid) / dof
    cov = var * np.linalg.inv(X.T @ X)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


@dataclass(frozen=True)
class RateResult:
    """Per-replicate loss table plus fitted log-log slopes."""

    config: ExperimentConfig
    rows: tuple[dict, ...]
    medians: dict
    slopes: dict
    betas: dict


def rate_experiment(config: ExperimentConfig, threads: int = 1) -> RateResult:
    """Fit the model across a sample-size grid and summarize loss decay.

    The rows' keys are the columns of the rates table.  threads is
    accepted and ignored: the replicates run serially, because a thread
    pool over these GIL-bound fits measured slower than one thread.
    """
    _require_two_distinct(config.n_grid)  # before any fit, not after them all
    truth = build_truth(config)
    fitcfg = _fit_config(config)
    loss_keys = ["frame_error", "eigenvalue_error"] + (
        ["kernel_l2"] if config.regime != "matrix" else []
    )
    rows, medians, betas = [], {}, {}
    for n in config.n_grid:
        if config.regime == "matrix":
            basis = None
            Bstar, lam_star, betas[n] = truth.B.B, truth.lam, 0.0
        else:
            basis = make_basis(schedule_M(config.M_schedule, n))
            frame, lam_star, betas[n] = optimal_parameter(truth, basis, config.r)
            Bstar, truth_eval = frame.B, truth.evaluator()
        cell = []
        for rep in range(config.replicates):
            data = sample_dataset(
                truth,
                config.regime,
                n,
                (config.base_seed, n, rep),
                sigma2=config.sigma2,
                s=config.s,
                m_bounds=config.m_bounds,
                m=config.m,
            )
            res = optimizer.fit(data, basis, config.r, config.sigma2, config.s, fitcfg)
            Bhat = matrixcase.align_signs(Bstar, res.params.B.B)
            row = {
                "n": n,
                "replicate": rep,
                "M": Bstar.shape[0],
                "converged": int(res.converged),
                "iters": res.n_iter,
                "frame_error": float(np.linalg.norm(Bhat - Bstar)),
                "eigenvalue_error": float(np.linalg.norm(res.params.lam - lam_star)),
            }
            if basis is not None:
                row["kernel_l2"] = kernel_l2_distance(
                    kernel_from_params(res.params, basis), truth_eval
                )
            cell.append(row)
        for key in loss_keys:
            medians[(n, key)] = float(np.median([row[key] for row in cell]))
        rows.extend(cell)
    slopes = {
        key: loglog_slope(config.n_grid, [medians[(n, key)] for n in config.n_grid])
        for key in loss_keys
    }
    return RateResult(
        config=config, rows=tuple(rows), medians=medians, slopes=slopes, betas=betas
    )


@dataclass(frozen=True)
class ScoreResult:
    """Score-expansion residual table and its rate-stability summary."""

    config: ExperimentConfig
    rows: tuple[dict, ...]
    medians: dict
    ratio_residual: float
    ratio_error: float
    max_delta_consistency: float


def score_experiment(config: ExperimentConfig, threads: int = 1) -> ScoreResult:
    """Check the first-order expansion of the estimator across sample sizes.

    For each replicate the frame residual is divided by gamma_n^2 and
    the raw frame error by gamma_n; the summary reports how much the
    per-n medians of these normalized quantities vary across the grid
    (max over min; near-constant means the expansion captures the
    estimator to second order).  The rows' keys are the columns of the
    score table; threads is accepted and ignored, as in rate_experiment.
    """
    if config.regime != "matrix":
        raise ValueError("the score experiment is defined for the matrix regime")
    if abs(config.sigma2 - 1.0) > 1e-12 or abs(config.s - 1.0) > 1e-12:
        raise ValueError("score experiments run on the normalized scale")
    truth = build_truth(config)
    rows, medians = [], {}
    for n in config.n_grid:
        cell = []
        for rep in range(config.replicates):
            data = sample_dataset(truth, "matrix", n, (config.base_seed, n, rep))
            report = matrixcase.score_residual(truth, data.cov, n)
            cell.append({
                "n": n,
                "replicate": rep,
                "gamma": report.gamma_n,
                "frame_error": report.frame_error,
                "eigenvalue_error": report.eigenvalue_error,
                "frame_residual": report.frame_residual,
                "eigenvalue_residual": report.eigenvalue_residual,
                "delta_consistency": report.delta_consistency,
            })
        g = cell[0]["gamma"]
        medians[(n, "residual_over_gamma2")] = float(
            np.median([row["frame_residual"] for row in cell]) / g**2
        )
        medians[(n, "error_over_gamma")] = float(
            np.median([row["frame_error"] for row in cell]) / g
        )
        rows.extend(cell)
    res_ratios = [medians[(n, "residual_over_gamma2")] for n in config.n_grid]
    err_ratios = [medians[(n, "error_over_gamma")] for n in config.n_grid]
    return ScoreResult(
        config=config,
        rows=tuple(rows),
        medians=medians,
        ratio_residual=float(max(res_ratios) / min(res_ratios)),
        ratio_error=float(max(err_ratios) / min(err_ratios)),
        max_delta_consistency=float(max(row["delta_consistency"] for row in rows)),
    )


@dataclass(frozen=True)
class KlScanResult:
    """Divergence-to-radius ratios over shared random directions."""

    alphas: tuple[float, ...]
    ratios: np.ndarray = field(repr=False)  # (n_alphas, n_directions) of K / alpha^2
    spread: dict = field(default_factory=dict)  # alpha -> max/min ratio
    stability: float = 0.0  # max relative drift between the two smallest alphas


def kl_ellipsoid_scan(
    params_star: ModelParams,
    alphas,
    n_directions: int = 200,
    seed: int = 0,
) -> KlScanResult:
    """Probe the local quadratic behaviour of the KL divergence.

    Directions are drawn once on the weighted ellipsoid
    (sigma2/s) (|A|^2 + |D|^2) + |C|^2 = 1 and reused for every radius
    alpha, so per-direction ratios K / alpha^2 are comparable across
    alphas.  Radii are restricted to alpha * sqrt(s / sigma2) <= 0.2.
    """
    alphas = tuple(sorted(float(a) for a in alphas))
    sigma2, s = params_star.sigma2, params_star.s
    if alphas[-1] * np.sqrt(s / sigma2) > 0.2:
        raise ValueError("largest alpha exceeds the small-radius regime")
    B = params_star.B.B
    M, r = B.shape
    lam = params_star.lam
    Gamma_star = s * (B * lam) @ B.T + sigma2 * np.eye(M)
    point = params_star.B
    rng = _rng(seed)
    w = sigma2 / s
    dirs = []
    for _ in range(n_directions):
        A = np.tril(rng.standard_normal((r, r)), -1)
        A = A - A.T
        C = rng.standard_normal((M, r))
        C = C - B @ (B.T @ C)
        D = rng.standard_normal(r)
        norm = np.sqrt(w * (np.sum(A * A) + np.sum(D * D)) + np.sum(C * C))
        dirs.append((A / norm, C / norm, D / norm))
    ratios = np.zeros((len(alphas), n_directions))
    for ia, alpha in enumerate(alphas):
        for idir, (A, C, D) in enumerate(dirs):
            U = TangentVector(point, alpha * A, alpha * C)
            Bp = exp_map(U).B
            lam_p = lam * np.exp(alpha * D)
            Gamma = s * (Bp * lam_p) @ Bp.T + sigma2 * np.eye(M)
            ratios[ia, idir] = kl_divergence(Gamma, Gamma_star) / alpha**2
    spread = {
        alpha: float(ratios[ia].max() / ratios[ia].min())
        for ia, alpha in enumerate(alphas)
    }
    stability = float(np.abs(ratios[1] / ratios[0] - 1.0).max()) if len(alphas) > 1 else 0.0
    return KlScanResult(alphas=alphas, ratios=ratios, spread=spread, stability=stability)


@dataclass(frozen=True)
class DesignReport:
    """Concentration of per-curve design second-moment matrices."""

    M: int
    n: int
    m: int
    max_dev_full: float
    mean_dev_full: float
    max_dev_frame: float
    sup_squared_norm_ratio: float  # sup_t |phi(t)|^2 / M over the probe grid


def design_concentration(
    basis: OrthoBasis,
    n: int,
    m: int,
    seed: int = 0,
    B: np.ndarray | None = None,
    probe_points: int = 2001,
) -> DesignReport:
    """Measure how close (1/m) Phi_i Phi_i^T is to the identity across curves."""
    rng = _rng(seed)
    M = basis.M
    max_dev = 0.0
    sum_dev = 0.0
    max_dev_frame = 0.0
    for _ in range(n):
        t = rng.uniform(0.0, 1.0, m)
        Phi = eval_basis(basis, t)
        R = Phi.T @ Phi / m
        dev = float(np.abs(np.linalg.eigvalsh(R - np.eye(M))).max())
        max_dev = max(max_dev, dev)
        sum_dev += dev
        if B is not None:
            Rb = B.T @ R @ B - np.eye(B.shape[1])
            max_dev_frame = max(max_dev_frame, float(np.abs(np.linalg.eigvalsh(Rb)).max()))
    grid = np.linspace(0.0, 1.0, probe_points)
    sup_ratio = float((eval_basis(basis, grid) ** 2).sum(axis=1).max() / M)
    return DesignReport(
        M=M,
        n=n,
        m=m,
        max_dev_full=max_dev,
        mean_dev_full=sum_dev / n,
        max_dev_frame=max_dev_frame,
        sup_squared_norm_ratio=sup_ratio,
    )


def eigen_inequality_check(A: np.ndarray, E: np.ndarray) -> dict:
    """Verify the eigenvalue and eigenvector perturbation bounds on one pair.

    Eigenvalues: sum of squared eigenvalue shifts is at most |E|_F^2.
    Eigenvectors: after sign alignment, |q_j - p_j| is at most
    5 x + 4 x^2 with x = |E|_2 / tau_j, where tau_j is the smallest gap
    from eigenvalue j to its neighbours (the spectrum is extended by
    +infinity above and 0 below, matching positive semidefinite use).
    """
    evals_a, vecs_a = np.linalg.eigh(A)
    evals_b, vecs_b = np.linalg.eigh(A + E)
    evals_a, vecs_a = evals_a[::-1], vecs_a[:, ::-1]
    evals_b, vecs_b = evals_b[::-1], vecs_b[:, ::-1]
    p = evals_a.size
    shift = float(np.sum((evals_a - evals_b) ** 2))
    fro2 = float(np.sum(E * E))
    op = float(np.linalg.norm(E, 2))
    vec_margins = np.zeros(p)
    for j in range(p):
        above = evals_a[j - 1] - evals_a[j] if j > 0 else np.inf
        below = evals_a[j] - evals_a[j + 1] if j < p - 1 else evals_a[j]
        tau = min(above, below)
        x = op / tau if tau > 0 else np.inf
        q = vecs_b[:, j] if vecs_b[:, j] @ vecs_a[:, j] >= 0 else -vecs_b[:, j]
        dist = float(np.linalg.norm(q - vecs_a[:, j]))
        vec_margins[j] = (5.0 * x + 4.0 * x**2) - dist
    return {
        "weilandt_margin": fro2 - shift,
        "vector_margin": float(vec_margins.min()),
    }


@dataclass(frozen=True)
class InequalityReport:
    trials: int
    weilandt_violations: int
    vector_violations: int
    min_weilandt_margin: float
    min_vector_margin: float


def inequality_oracles(trials: int, dim: int, seed: int = 0) -> InequalityReport:
    """Stress the perturbation bounds on random positive semidefinite pairs."""
    rng = _rng(seed)
    wv = vv = 0
    wmin = np.inf
    vmin = np.inf
    for _ in range(trials):
        Z = rng.standard_normal((dim, dim + 2))
        A = Z @ Z.T / (dim + 2)
        F = rng.standard_normal((dim, dim))
        E = 0.5 * (F + F.T)
        # perturbation sized relative to the typical spectral gap of A
        gaps = -np.diff(np.sort(np.linalg.eigvalsh(A))[::-1])
        gap_scale = max(float(np.median(gaps)), 1e-3) if gaps.size else 1.0
        target = rng.uniform(0.01, 1.5) * gap_scale
        E *= target / max(np.linalg.norm(E, 2), 1e-12)
        res = eigen_inequality_check(A, E)
        if res["weilandt_margin"] < 0:
            wv += 1
        if res["vector_margin"] < 0:
            vv += 1
        wmin = min(wmin, res["weilandt_margin"])
        vmin = min(vmin, res["vector_margin"])
    return InequalityReport(
        trials=trials,
        weilandt_violations=wv,
        vector_violations=vv,
        min_weilandt_margin=float(wmin),
        min_vector_margin=float(vmin),
    )
