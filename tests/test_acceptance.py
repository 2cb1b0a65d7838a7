"""End-to-end acceptance checks.

Each test prints one PASS line with the measured quantities and fails
loudly otherwise.  The slowest one is the sparse-regime rate study,
which runs a few hundred full fits (about a minute on four cores);
everything else finishes in seconds.  Budgets are asserted, so a
regression that makes a criterion slow fails the test rather than
silently eating CI time.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import random_orthonormal, spiked_sample_cov
from remlpc import cli
from remlpc.bspline import eval_basis, make_basis
from remlpc.matrixcase import reml_equals_pca
from remlpc.model import ModelParams
from remlpc.sim import (
    ExperimentConfig,
    design_concentration,
    inequality_oracles,
    kl_ellipsoid_scan,
    make_true_kernel,
    random_frame,
    rate_experiment,
    sample_dataset,
    score_experiment,
)
from remlpc.stiefel import (
    ProductPoint,
    ProductTangent,
    StiefelPoint,
    TangentVector,
    canonical_inner,
    exp_map,
    product_exp,
    product_inner,
    tangent_project,
)
from remlpc import calculus
from remlpc.model import (
    CurveData,
    Dataset,
    marginal_cov,
    matrix_loss,
)
from remlpc.optimizer import normalized_point, objective


THREADS = min(4, os.cpu_count() or 1)


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------- criterion 1


def test_criterion_01_reml_matches_pca():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst_grad, worst_frame, worst_lam = 0.0, 0.0, 0.0
    for k in range(100):
        gaps = rng.uniform(0.4, 2.0, 3)
        lam = 1.5 + np.cumsum(gaps)[::-1].copy()
        n = int(rng.integers(300, 3000))
        S = spiked_sample_cov(20, 3, n, seed=1000 + k, eigenvalues=lam)
        rep = reml_equals_pca(S, n, 3)
        worst_grad = max(worst_grad, rep.grad_norm_at_pca)
        worst_frame = max(worst_frame, rep.frame_distance)
        worst_lam = max(worst_lam, rep.eigenvalue_distance)
    dt = time.time() - t0
    ok = worst_grad < 1e-10 and worst_frame < 1e-6 and worst_lam < 1e-6 and dt < 60
    report(
        "criterion 1 (closed-form agreement)",
        ok,
        f"max grad at closed form {worst_grad:.2e}, max frame dist {worst_frame:.2e}, "
        f"max eigenvalue dist {worst_lam:.2e}, {dt:.1f}s over 100 instances",
    )


# -------------------------------------------------------------- criterion 2


def test_criterion_02_score_representation():
    t0 = time.time()
    cfg = ExperimentConfig(
        regime="matrix",
        n_grid=(256, 512, 1024, 2048, 4096, 8192),
        replicates=30,
        r=2,
        base_seed=7,
        truth={"M": 20, "eigenvalues": [3.0, 1.0], "frame_seed": 2},
    )
    sr = score_experiment(cfg, threads=THREADS)
    dt = time.time() - t0
    ok = (
        sr.ratio_residual < 4.0
        and sr.ratio_error < 4.0
        and sr.max_delta_consistency < 1e-10
        and dt < 300
    )
    report(
        "criterion 2 (first-order expansion scaling)",
        ok,
        f"residual/rate^2 spread {sr.ratio_residual:.3f} (<4), "
        f"error/rate spread {sr.ratio_error:.3f} (<4), "
        f"step-form agreement {sr.max_delta_consistency:.2e} (<1e-10), {dt:.1f}s",
    )


# -------------------------------------------------------------- criterion 3


def test_criterion_03_sparse_kernel_rate():
    t0 = time.time()
    cfg = ExperimentConfig(
        regime="sparse",
        n_grid=(128, 256, 512, 1024, 2048, 4096),
        replicates=50,
        r=3,
        base_seed=11,
        sigma2=0.25,
        m_bounds=(4, 5),
        M_schedule={"kind": "ninth-root", "c": 2.0},
        truth={"family": "spline", "eigenvalues": [2.0, 1.0, 0.5], "M_ref": 4, "seed": 5},
    )
    rr = rate_experiment(cfg, threads=THREADS)
    dt = time.time() - t0
    slope, se = rr.slopes["kernel_l2"]
    conv = sum(row["converged"] for row in rr.rows)
    ok = -0.58 <= slope <= -0.31 and conv == len(rr.rows) and dt < 1800
    report(
        "criterion 3 (sparse-design kernel recovery rate)",
        ok,
        f"kernel L2 slope {slope:.3f} +- {se:.3f} in [-0.58, -0.31], "
        f"{conv}/{len(rr.rows)} fits converged, {dt:.1f}s on {THREADS} threads",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_04_matrix_eigenvalue_rate():
    t0 = time.time()
    cfg = ExperimentConfig(
        regime="matrix",
        n_grid=(256, 512, 1024, 2048, 4096, 8192),
        replicates=30,
        r=3,
        base_seed=13,
        truth={"M": 20, "eigenvalues": [4.0, 2.0, 1.0], "frame_seed": 5},
    )
    rr = rate_experiment(cfg, threads=THREADS)
    dt = time.time() - t0
    slope, se = rr.slopes["eigenvalue_error"]
    conv = sum(row["converged"] for row in rr.rows)
    ok = -0.62 <= slope <= -0.38 and conv == len(rr.rows) and dt < 300
    report(
        "criterion 4 (matrix-regime eigenvalue rate)",
        ok,
        f"eigenvalue error slope {slope:.3f} +- {se:.3f} in [-0.62, -0.38], "
        f"{conv}/{len(rr.rows)} fits converged, {dt:.1f}s",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_05_kl_quadratic_sandwich():
    star = ModelParams(
        M=15, r=2, B=random_frame(15, 2, 4), lam=np.array([2.0, 1.0]), sigma2=1.0, s=1.0
    )
    res = kl_ellipsoid_scan(star, [1e-3, 3e-3, 1e-2, 3e-2], n_directions=200, seed=0)
    spread = max(res.spread.values())
    ok = spread < 50.0 and res.stability < 0.20
    report(
        "criterion 5 (local quadratic divergence geometry)",
        ok,
        f"max divergence/radius^2 spread {spread:.2f} (<50), "
        f"per-direction drift between smallest radii {res.stability:.4f} (<0.20)",
    )


# -------------------------------------------------------------- criterion 6


def _fd_slope(loss, theta, d, h):
    return (loss(product_exp(theta, d, h)) - loss(product_exp(theta, d, -h))) / (2 * h)


def _fd_curve(loss, theta, d, h):
    return (
        loss(product_exp(theta, d, h)) - 2 * loss(theta) + loss(product_exp(theta, d, -h))
    ) / h**2


def _rand_dir(theta, seed):
    rng = np.random.default_rng(seed)
    U = tangent_project(theta.point, rng.standard_normal(theta.point.B.shape))
    return ProductTangent(U, rng.standard_normal(theta.zeta.size))


def _rand_theta(M, r, seed):
    rng = np.random.default_rng(seed)
    B = random_orthonormal(M, r, seed)
    zeta = np.sort(rng.uniform(-0.8, 1.0, r))[::-1] - 0.06 * np.arange(r)
    return ProductPoint(B, zeta)


def test_criterion_06_derivative_stack():
    h = 1e-5
    worst_g = 0.0
    # 12 matrix-regime instances
    for k in range(12):
        theta = _rand_theta(7, 3, 100 + k)
        S = spiked_sample_cov(7, 3, 150, 200 + k)
        g = ProductTangent(calculus.grad_B(theta, S), calculus.grad_zeta(theta, S))
        d = _rand_dir(theta, 300 + k)
        want = _fd_slope(lambda th: matrix_loss(th.point.B, np.exp(th.zeta), S),
                         theta, d, h)
        worst_g = max(worst_g, abs(product_inner(g, d) - want) / max(1.0, abs(want)))
    # 8 functional-regime instances
    basis = make_basis(6)
    rng = np.random.default_rng(9)
    for k in range(8):
        theta = _rand_theta(6, 2, 400 + k)
        truth = ModelParams(M=6, r=2, B=theta.point, lam=np.exp(theta.zeta), sigma2=0.4, s=1.1)
        curves = []
        for _ in range(25):
            m = int(rng.integers(3, 8))
            t = rng.uniform(0.0, 1.0, m)
            Phi = eval_basis(basis, t).T
            curves.append(CurveData(
                times=t,
                values=np.linalg.cholesky(marginal_cov(truth, Phi)) @ rng.standard_normal(m),
            ))
        obj = objective(Dataset.functional(curves), basis, 0.4, 1.1)
        theta_n = normalized_point(truth)
        gp = obj.grad(theta_n)
        d = _rand_dir(theta_n, 500 + k)
        want = _fd_slope(obj.loss, theta_n, d, h)
        worst_g = max(
            worst_g,
            abs(product_inner(gp, d) - want) / max(1.0, abs(want)),
        )

    # second derivatives against second differences
    worst_h = 0.0
    for k in range(6):
        theta = _rand_theta(6, 2, 600 + k)
        S = spiked_sample_cov(6, 2, 120, 700 + k)
        Ub = tangent_project(theta.point, np.random.default_rng(800 + k).standard_normal((6, 2)))
        want = _fd_curve(lambda th: matrix_loss(th.point.B, np.exp(th.zeta), S),
                         theta, ProductTangent(Ub, np.zeros(2)), 1e-3)
        got = calculus.hessian_B_bilinear(theta, S, Ub, Ub)
        worst_h = max(worst_h, abs(got - want) / max(1.0, abs(want)))
        Hz = calculus.hessian_zeta(theta, S)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            dz = ProductTangent(TangentVector(theta.point, np.zeros((2, 2)), np.zeros((6, 2))), e)
            want = _fd_curve(lambda th: matrix_loss(th.point.B, np.exp(th.zeta), S),
                             theta, dz, 1e-4)
            worst_h = max(worst_h, abs(Hz[i] - want) / max(1.0, abs(want)))

    # inverse curvature operator at the population optimum
    worst_inv = 0.0
    theta = _rand_theta(8, 3, 900)
    for k in range(6):
        X = tangent_project(theta.point, np.random.default_rng(910 + k).standard_normal((8, 3)))
        Y = tangent_project(theta.point, np.random.default_rng(920 + k).standard_normal((8, 3)))
        Z = calculus.inv_hessian_star_B(theta, X)
        got = calculus.hessian_star_B_bilinear(theta, Z, Y)
        want = canonical_inner(X, Y)
        worst_inv = max(worst_inv, abs(got - want) / max(1.0, abs(want)))

    ok = worst_g <= 1e-5 and worst_h <= 1e-4 and worst_inv <= 1e-8
    report(
        "criterion 6 (derivative stack vs finite differences)",
        ok,
        f"worst gradient rel err {worst_g:.2e} (<=1e-5), "
        f"worst second-derivative rel err {worst_h:.2e} (<=1e-4), "
        f"inverse-curvature identity {worst_inv:.2e} (<=1e-8)",
    )


# -------------------------------------------------------------- criterion 7


def test_criterion_07_spline_basis_quality():
    # exact bandedness and a uniform spectral band for the scaled Gram
    lo, hi = np.inf, -np.inf
    for M in range(4, 65):
        b = make_basis(M)
        idx = np.abs(np.subtract.outer(np.arange(M), np.arange(M))) > 3
        if np.any(b.gram[idx] != 0.0):
            report("criterion 7 (spline basis quality)", False, f"Gram not banded at M={M}")
        ev = np.linalg.eigvalsh(M * b.gram)
        lo, hi = min(lo, ev.min()), max(hi, ev.max())
    band_ok = lo >= 0.025 and hi <= 1.45

    # sup-norm decay of smooth-function projections
    f = lambda t: np.sin(2.0 * np.pi * np.asarray(t)) + 0.5 * np.exp(-3.0 * np.asarray(t))
    grid = np.linspace(0.0, 1.0, 4001)
    Ms = np.array([8, 16, 32, 64])
    errs = []
    for M in Ms:
        b = make_basis(int(M))
        from remlpc.bspline import project_function

        c = project_function(b, f)
        errs.append(np.max(np.abs(eval_basis(b, grid) @ c - f(grid))))
    slope = float(np.polyfit(np.log(Ms), np.log(errs), 1)[0])

    # squared design row norms on generated data stay below 10 m M
    worst_ratio = 0.0
    truth = make_true_kernel("fourier", [2.0, 1.0], seed=3)
    for M, n, m_bounds in ((6, 50, (4, 8)), (10, 30, (3, 12))):
        b = make_basis(M)
        data = sample_dataset(truth, "sparse", n, (77, n, M), sigma2=0.25, m_bounds=m_bounds)
        for c in data.curves:
            Phi = eval_basis(b, c.times)
            worst_ratio = max(worst_ratio, np.sum(Phi**2) / (c.m * M))
    rep = design_concentration(make_basis(8), n=40, m=200, seed=1)
    worst_ratio = max(worst_ratio, rep.sup_squared_norm_ratio)

    ok = band_ok and slope <= -3.7 and worst_ratio <= 10.0
    report(
        "criterion 7 (spline basis quality)",
        ok,
        f"scaled Gram spectra in [{lo:.3f}, {hi:.3f}] (band [0.025, 1.45]), "
        f"projection sup-error slope {slope:.2f} (<=-3.7), "
        f"max squared row-norm ratio {worst_ratio:.2f} (<=10)",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_08_manifold_exponential():
    rng = np.random.default_rng(0)
    worst_feas = 0.0
    for k in range(1000):
        M = int(rng.integers(2, 10))
        r = int(rng.integers(1, M + 1))
        B = random_orthonormal(M, r, 5000 + k)
        U0 = tangent_project(B, rng.standard_normal((M, r)))
        scale = float(rng.uniform(0.05, 2.5))
        U = TangentVector(B, scale * U0.A, scale * U0.C)
        t = float(rng.uniform(0.0, 2.0))
        Q = exp_map(U, t)
        worst_feas = max(worst_feas, float(np.linalg.norm(Q.B.T @ Q.B - np.eye(r))))

    B = random_orthonormal(7, 2, 1)
    U = tangent_project(B, np.random.default_rng(2).standard_normal((7, 2)))
    t = 1e-3
    r1 = np.linalg.norm(exp_map(U, t).B - (B.B + t * U.full()))
    r2 = np.linalg.norm(exp_map(U, t / 2).B - (B.B + (t / 2) * U.full()))
    ratio = r1 / r2

    P = StiefelPoint(np.eye(5)[:, :1])
    C = np.zeros((5, 1))
    C[3, 0] = 1.0
    rot_err = 0.0
    for t in (0.2, 0.9, 1.7):
        got = exp_map(TangentVector(P, np.zeros((1, 1)), C), t).B.ravel()
        want = np.zeros(5)
        want[0], want[3] = np.cos(t), np.sin(t)
        rot_err = max(rot_err, float(np.max(np.abs(got - want))))

    ok = worst_feas <= 1e-10 and 3.0 <= ratio <= 5.0 and rot_err <= 1e-12
    report(
        "criterion 8 (geodesic feasibility and order)",
        ok,
        f"max feasibility defect {worst_feas:.2e} (<=1e-10) over 1000 draws, "
        f"first-order residual ratio {ratio:.2f} (expect 4 +- 25%), "
        f"plane-rotation error {rot_err:.2e} (<=1e-12)",
    )


# -------------------------------------------------------------- criterion 9


def test_criterion_09_eigen_inequality_oracles():
    rep = inequality_oracles(1000, 8, seed=0)
    ok = rep.weilandt_violations == 0 and rep.vector_violations == 0
    report(
        "criterion 9 (perturbation inequality oracles)",
        ok,
        f"0 violations target: eigenvalue-shift {rep.weilandt_violations}, "
        f"eigenvector {rep.vector_violations}; min margins "
        f"{rep.min_weilandt_margin:.2e} / {rep.min_vector_margin:.2e} over 1000 draws",
    )


# ------------------------------------------------------------- criterion 10


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "regime": "sparse", "n_grid": [64, 128], "replicates": 4, "r": 2,
        "base_seed": 21, "sigma2": 0.25, "m_bounds": [4, 6],
        "M_schedule": {"kind": "fixed", "M": 4},
        "truth": {"family": "spline", "eigenvalues": [2.0, 1.0], "M_ref": 4, "seed": 3},
    }))
    outs = []
    # experiments run serially and ignore --threads; threads=3 checks that
    # the flag is still accepted and leaves the output unchanged
    for tag, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / f"rates_{tag}.csv"
        rc = cli.main(["--quiet", "--threads", str(threads), "rates",
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    report(
        "criterion 10 (deterministic reruns)",
        ok,
        f"identical config and seed give byte-identical outputs across reruns "
        f"and thread counts (1, 1, 3); {len(outs[0])} bytes each",
    )
