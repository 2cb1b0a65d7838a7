import numpy as np
import pytest

from conftest import random_orthonormal, spiked_sample_cov
from remlpc.bspline import eval_basis, make_basis
from remlpc.model import CurveData, Dataset, ModelParams, marginal_cov
from remlpc.optimizer import FitConfig, fit, init_params, objective
from remlpc.matrixcase import pca_fit
from remlpc.stiefel import ProductPoint


def small_functional(n=60, M=5, r=2, seed=0, sigma2=0.3):
    basis = make_basis(M)
    rng = np.random.default_rng(seed)
    truth = ModelParams(M=M, r=r, B=random_orthonormal(M, r, seed + 1),
                        lam=np.array([2.0, 0.7]), sigma2=sigma2)
    curves = []
    for _ in range(n):
        m = int(rng.integers(4, 8))
        t = rng.uniform(0.0, 1.0, m)
        Phi = eval_basis(basis, t).T
        y = np.linalg.cholesky(marginal_cov(truth, Phi)) @ rng.standard_normal(m)
        curves.append(CurveData(times=t, values=y))
    return basis, Dataset.functional("sparse", curves), truth


def test_grad_tol_defaults_by_regime():
    S = spiked_sample_cov(6, 2, 100, seed=12)
    data = Dataset.matrix(S, 100)
    assert objective(data, None, 1.0).grad_tol == 1e-8
    basis, curves, _ = small_functional(n=10, seed=12)
    assert objective(curves, basis, 0.3).grad_tol == 1e-6
    # a configured grad_tol overrides the objective's default
    res = fit(data, None, 2, 1.0, 1.0, FitConfig(grad_tol=1e3, init="random", restarts=1))
    assert res.converged and res.n_iter == 0 and res.stop_reason == "grad-tol"


def test_matrix_fit_reaches_closed_form():
    S = spiked_sample_cov(12, 2, 500, seed=1)
    res = fit(Dataset.matrix(S, 500), None, 2, 1.0, 1.0,
              FitConfig(init="random", restarts=1, seed=5))
    pca = pca_fit(S, 2)
    assert res.converged
    assert np.max(np.abs(res.params.B.B - pca.B.B)) < 1e-6
    assert np.max(np.abs(res.params.lam - pca.lam)) < 1e-6


def test_pooled_pca_init_is_exact_in_matrix_regime():
    S = spiked_sample_cov(10, 3, 400, seed=2, eigenvalues=[4.0, 2.0, 1.0])
    res = fit(Dataset.matrix(S, 400), None, 3, 1.0, 1.0, FitConfig(restarts=1))
    assert res.converged and res.n_iter == 0
    pca = pca_fit(S, 3)
    assert np.max(np.abs(res.params.lam - pca.lam)) < 1e-12


def test_trace_is_strictly_monotone():
    basis, data, _ = small_functional(seed=3)
    res = fit(data, basis, 2, 0.3, 1.0, FitConfig(restarts=1, seed=1))
    assert res.converged
    assert np.all(np.diff(res.trace) < 0.0)
    assert res.loss == res.trace[-1]


def test_functional_fit_improves_on_truth_loss():
    basis, data, truth = small_functional(n=120, seed=4)
    res = fit(data, basis, 2, truth.sigma2, 1.0, FitConfig(restarts=2, seed=2))
    assert res.converged
    at_truth = ProductPoint(truth.B, np.log(truth.lam))
    assert res.loss <= objective(data, basis, truth.sigma2).loss(at_truth) + 1e-9


def test_stop_reason_vocabulary_and_max_iter():
    basis, data, _ = small_functional(seed=5)
    res = fit(data, basis, 2, 0.3, 1.0, FitConfig(max_iter=1, restarts=1))
    assert res.stop_reason in {"grad-tol", "loss-tol", "line-search", "max-iter"}
    assert res.stop_reason == "max-iter" and res.n_iter == 1 and not res.converged


def test_fit_is_deterministic():
    basis, data, _ = small_functional(seed=6)
    cfg = FitConfig(restarts=2, seed=11)
    a = fit(data, basis, 2, 0.3, 1.0, cfg)
    b = fit(data, basis, 2, 0.3, 1.0, cfg)
    assert a.params.to_dict() == b.params.to_dict()
    assert a.n_iter == b.n_iter and a.loss == b.loss


def test_restarts_pick_best_loss():
    basis, data, _ = small_functional(seed=7)
    res = fit(data, basis, 2, 0.3, 1.0, FitConfig(init="random", restarts=3, seed=3))
    assert res.restart_index in (0, 1, 2)
    single = [
        fit(data, basis, 2, 0.3, 1.0, FitConfig(init="random", restarts=1, seed=3))
    ]
    # the multi-restart winner can only improve on the first start
    assert res.loss <= single[0].loss + 1e-12


def test_plain_gradient_descent_still_works():
    S = spiked_sample_cov(8, 2, 300, seed=8)
    res = fit(Dataset.matrix(S, 300), None, 2, 1.0, 1.0,
              FitConfig(init="random", restarts=1, seed=7, fisher=False, max_iter=3000))
    pca = pca_fit(S, 2)
    assert np.max(np.abs(res.params.lam - pca.lam)) < 1e-4


def test_init_params_shapes_and_floor():
    rng = np.random.default_rng(9)
    S = spiked_sample_cov(9, 2, 250, seed=9)
    matrix_obj = objective(Dataset.matrix(S, 250), None, 1.0)
    for init in ("pooled-pca", "random"):
        p = init_params(matrix_obj, 2, init, rng)
        assert p.M == 9 and p.r == 2
        assert p.lam[0] > p.lam[1] > 0.0
    basis, data, _ = small_functional(seed=10)
    q = init_params(objective(data, basis, 0.3), 2, "pooled-pca", rng)
    assert q.M == 5 and q.lam[0] > q.lam[1] > 0.0 and q.sigma2 == 0.3
    with pytest.raises(ValueError):
        init_params(matrix_obj, 2, "given", rng)


def test_requested_rank_validated():
    S = spiked_sample_cov(6, 2, 100, seed=11)
    with pytest.raises(ValueError):
        fit(Dataset.matrix(S, 100), None, 0, 1.0)
    with pytest.raises(ValueError):
        fit(Dataset.matrix(S, 100), None, 7, 1.0)
