"""Model layer: parameters, datasets, marginal likelihoods, kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_orthonormal, random_product_point, spiked_sample_cov
from remlpc.bspline import eval_basis, make_basis
from remlpc.model import (
    CurveData,
    Dataset,
    DegenerateSpectrumError,
    Kernel,
    ModelParams,
    SampleCov,
    batched_cholesky,
    canonicalize,
    curve_batches,
    functional_loss,
    kernel_from_params,
    kernel_l2_distance,
    kl_divergence,
    lower_solve,
    marginal_cov,
    matrix_loss,
    optimal_parameter,
)
from remlpc.optimizer import FunctionalObjective, MatrixObjective, normalized_point, objective
from remlpc.sim import make_true_kernel
from remlpc.stiefel import ProductPoint, StiefelPoint


def toy_params(M=6, r=2, seed=0, sigma2=0.5, s=1.3):
    B = random_orthonormal(M, r, seed)
    lam = np.array([2.0, 0.8])[:r]
    return ModelParams(M=M, r=r, B=B, lam=lam, sigma2=sigma2, s=s)


def toy_curves(n, basis, params, seed=0, m_lo=3, m_hi=9):
    rng = np.random.default_rng(seed)
    curves = []
    for _ in range(n):
        m = int(rng.integers(m_lo, m_hi + 1))
        t = rng.uniform(0.0, 1.0, m)
        Phi = eval_basis(basis, t).T
        cov = marginal_cov(params, Phi)
        y = np.linalg.cholesky(cov) @ rng.standard_normal(m)
        curves.append(CurveData(times=t, values=y))
    return Dataset.functional(curves)


# ---------------------------------------------------------------- params


def test_params_reject_rising_eigenvalues():
    B = random_orthonormal(5, 2, 1)
    with pytest.raises(DegenerateSpectrumError):
        ModelParams(M=5, r=2, B=B, lam=np.array([1.0, 2.0]), sigma2=1.0)
    with pytest.raises(DegenerateSpectrumError):
        ModelParams(M=5, r=2, B=B, lam=np.array([1.0, 1.0]), sigma2=1.0)


def test_params_reject_bad_scales_and_shapes():
    B = random_orthonormal(5, 2, 1)
    lam = np.array([2.0, 1.0])
    with pytest.raises(ValueError):
        ModelParams(M=5, r=2, B=B, lam=lam, sigma2=0.0)
    with pytest.raises(ValueError):
        ModelParams(M=5, r=2, B=B, lam=lam, sigma2=1.0, s=-1.0)
    with pytest.raises(ValueError):
        ModelParams(M=5, r=3, B=B, lam=np.array([3.0, 2.0, 1.0]), sigma2=1.0)


def test_params_dict_roundtrip():
    p = toy_params()
    q = ModelParams.from_dict(p.to_dict())
    assert q.M == p.M and q.r == p.r
    assert np.array_equal(q.B.B, p.B.B)
    assert np.array_equal(q.lam, p.lam)
    assert q.sigma2 == p.sigma2 and q.s == p.s


def test_canonicalize_orders_and_fixes_signs():
    B = np.array([[0.0, -0.6], [-1.0, 0.0], [0.0, -0.8]])
    lam = np.array([1.0, 2.0])
    B2, lam2 = canonicalize(B, lam)
    assert np.array_equal(lam2, [2.0, 1.0])
    # each column flipped so its largest-magnitude entry is positive
    assert B2[0, 0] == 0.6 and B2[1, 1] == 1.0
    B3, lam3 = canonicalize(B2, lam2)
    assert np.array_equal(B3, B2) and np.array_equal(lam3, lam2)


@settings(max_examples=50)
@given(
    M=st.integers(2, 10),
    data=st.data(),
    seed=st.integers(0, 2**16),
    ties=st.booleans(),
)
def test_canonicalize_is_idempotent(M, data, seed, ties):
    r = data.draw(st.integers(1, M // 2 if ties else M))
    # eigenvalues drawn from a few values, so ties in lam are common
    lam = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                                      min_size=r, max_size=r)))
    rng = np.random.default_rng(seed)
    if ties:
        # columns (e_2k +- e_2k+1) / sqrt(2): two entries of equal magnitude
        B = np.zeros((M, r))
        for k in range(r):
            B[2 * k, k] = rng.choice([-1.0, 1.0]) / np.sqrt(2.0)
            B[2 * k + 1, k] = rng.choice([-1.0, 1.0]) / np.sqrt(2.0)
    else:
        B = random_orthonormal(M, r, seed).B
    B1, lam1 = canonicalize(B, lam)
    B2, lam2 = canonicalize(B1, lam1)
    assert np.array_equal(B2, B1) and np.array_equal(lam2, lam1)
    assert np.all(np.diff(lam1) <= 0.0)
    # the result is B with its columns reordered and sign-flipped
    order = np.argsort(-lam, kind="stable")
    signs = np.sign(np.einsum("mk,mk->k", B[:, order], B1))
    assert np.array_equal(B1, B[:, order] * signs)


# ---------------------------------------------------------------- datasets


def test_matrix_dataset_validation():
    S = np.eye(3)
    d = SampleCov(S, 10)
    assert d.n == 10
    asym = S.copy()
    asym[0, 1] = 1e-13  # symmetrized silently
    SampleCov(asym, 5)
    bad = np.diag([1.0, -1e-5, 1.0])
    with pytest.raises(ValueError):
        SampleCov(bad, 5)
    with pytest.raises(ValueError):
        SampleCov(S, 0)
    for bad_value in (np.nan, np.inf):
        nonfinite = S.copy()
        nonfinite[1, 1] = bad_value
        with pytest.raises(ValueError, match="finite"):
            SampleCov(nonfinite, 5)


def test_functional_dataset_validation():
    def one_curve(t, y):
        return Dataset.functional([CurveData(times=np.array(t), values=np.array(y))])

    c = [CurveData(times=np.array([0.1, 0.5]), values=np.array([1.0, 2.0]))]
    d = Dataset.functional(c)
    assert d.n == 1 and d.curves[0].m == 2
    with pytest.raises(ValueError):
        one_curve([0.1], [1.0, 2.0])
    with pytest.raises(ValueError):
        one_curve([1.2], [0.0])
    for t, y in (([np.nan, 0.5], [1.0, 2.0]), ([0.1, 0.5], [1.0, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            one_curve(t, y)


def test_dataset_validates_its_columns():
    t, y = np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0])
    assert Dataset(t=t, y=y, offsets=[0, 1, 3]).n == 2
    with pytest.raises(ValueError, match="at least one curve"):
        Dataset.functional([])
    with pytest.raises(ValueError, match="a curve needs at least one observation"):
        Dataset(t=t, y=y, offsets=[0, 1, 1, 3])
    for offsets in ([0, 2], [1, 3]):
        with pytest.raises(ValueError, match="split by offsets"):
            Dataset(t=t, y=y, offsets=offsets)
    with pytest.raises(ValueError, match="equal length"):
        Dataset(t=t, y=y[:2], offsets=[0, 3])
    with pytest.raises(ValueError, match="design points must lie"):
        Dataset(t=[0.1, 0.2, 1.5], y=y, offsets=[0, 1, 3])
    with pytest.raises(ValueError, match="design points and values must be finite"):
        Dataset(t=t, y=[1.0, np.nan, 3.0], offsets=[0, 2, 3])


def curve_batches_reference(data, basis):
    """Per-curve loop: each curve's P = Phi^T Phi, v = Phi^T y and q = y^T y."""
    P, v, q = [], [], []
    for c in data.curves:
        Phi = eval_basis(basis, c.times)
        P.append(Phi.T @ Phi)
        v.append(Phi.T @ c.values)
        q.append(c.values @ c.values)
    return np.array(P), np.array(v), np.array(q)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40)
@example(counts=[3, 1, 2, 1, 5, 2], M=5, seed=0)
@given(counts=st.lists(st.integers(1, 7), min_size=1, max_size=40),
       M=st.integers(4, 8), seed=st.integers(0, 2**16))
def test_columnar_batches_match_the_per_curve_loop(counts, M, seed):
    rng = np.random.default_rng(seed)
    curves = [CurveData(times=rng.uniform(0.0, 1.0, m), values=rng.standard_normal(m))
              for m in counts]
    data = Dataset.functional(curves)
    assert len(data.curves) == len(curves)
    for view, c in zip(data.curves, curves):
        assert same_bits(view.times, c.times) and same_bits(view.values, c.values)
    basis = make_basis(M)
    batches = curve_batches(data, basis)
    P, v, q = curve_batches_reference(data, basis)
    assert batches.n == len(counts) and batches.m.tolist() == counts
    for got, want in ((batches.P, P), (batches.v, v), (batches.q, q)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


# ------------------------------------------------------- likelihood pieces


def test_marginal_cov_formula():
    basis = make_basis(6)
    params = toy_params(M=6)
    t = np.array([0.2, 0.4, 0.9])
    Phi = eval_basis(basis, t).T
    X = Phi.T @ params.B.B
    want = params.s * X @ np.diag(params.lam) @ X.T + params.sigma2 * np.eye(3)
    assert np.max(np.abs(marginal_cov(params, Phi) - want)) < 1e-14


# random problem sizes and scales for the differential tests below
SIZES = dict(
    M=st.integers(4, 8),
    r=st.integers(1, 3),
    sigma2=st.floats(0.05, 4.0),
    s=st.floats(0.2, 5.0),
    seed=st.integers(0, 2**16),
)


def params_at(theta, sigma2, s):
    M, r = theta.point.shape
    return ModelParams(M=M, r=r, B=theta.point, lam=theta.lam, sigma2=sigma2, s=s)


@settings(max_examples=30)
@given(m_lo=st.integers(1, 4), m_span=st.integers(0, 6), **SIZES)
def test_functional_loss_matches_dense_marginals(M, r, m_lo, m_span, sigma2, s, seed):
    # data from one random model, the loss evaluated at another
    basis = make_basis(M)
    truth = params_at(random_product_point(M, r, seed), sigma2, s)
    data = toy_curves(12, basis, truth, seed=seed, m_lo=m_lo, m_hi=m_lo + m_span)
    theta = random_product_point(M, r, seed + 1, zeta_scale=1.5)
    params = params_at(theta, sigma2, s)
    theta_n = normalized_point(params)
    obj = objective(data, basis, sigma2, s)
    # each curve's term is the loss of that curve alone
    terms = np.array([
        objective(Dataset(c.times, c.values, [0, c.m]), basis, sigma2, s).loss(theta_n)
        for c in data.curves])
    dense = []
    for c in data.curves:
        cov = marginal_cov(params, eval_basis(basis, c.times).T)
        sign, logdet = np.linalg.slogdet(cov)
        dense.append(0.5 * (c.values @ np.linalg.solve(cov, c.values) + logdet))
    dense = np.array(dense)
    assert np.all(np.abs(terms - dense) <= 1e-10 * np.maximum(1.0, np.abs(dense)))
    want = np.mean(dense)
    assert abs(obj.loss(theta_n) - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=30)
@given(**SIZES)
def test_matrix_loss_matches_dense_formula(M, r, sigma2, s, seed):
    S = spiked_sample_cov(M, r, 300, seed=seed, sigma2=sigma2, s=s)
    theta = random_product_point(M, r, seed + 1, zeta_scale=1.5)
    B, lam = theta.point.B, theta.lam
    gamma = s * (B * lam) @ B.T + sigma2 * np.eye(M)
    sign, logdet = np.linalg.slogdet(gamma)
    want = np.trace(np.linalg.solve(gamma, S)) + logdet
    got = objective(SampleCov(S, 300), None, sigma2, s).loss(
        normalized_point(params_at(theta, sigma2, s)))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def spd_batch(n, r, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, r + 2, r)) * rng.uniform(0.1, 10.0, (n, 1, 1))
    return A.transpose(0, 2, 1) @ A + 1e-3 * np.eye(r)


@settings(max_examples=30)
@given(n=st.integers(1, 40), r=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_batched_cholesky_matches_lapack(n, r, seed):
    G = spd_batch(n, r, seed)
    L = batched_cholesky(G)
    want = np.linalg.cholesky(G)
    scale = np.sqrt(np.abs(G).max(axis=(1, 2)))[:, None, None]
    assert np.all(np.abs(L - want) <= 1e-12 * scale)
    b = np.random.default_rng(seed + 1).standard_normal((n, r, 2))
    z = lower_solve(L, b)
    assert np.all(np.abs(L @ z - b) <= 1e-10 * (1.0 + np.abs(b)))


def test_batched_cholesky_rejects_indefinite_and_nan():
    G = spd_batch(8, 3, 0)
    bad = G.copy()
    # positive diagonal, so only elimination reveals the negative pivot
    bad[5] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(np.linalg.LinAlgError):
        batched_cholesky(bad)
    bad = G.copy()
    bad[2, 1, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        batched_cholesky(bad)


def test_objective_factory_dispatches_by_regime():
    params = toy_params(M=5, seed=9)
    theta = ProductPoint(params.B, np.log(params.lam))
    B, lam = theta.point.B, theta.lam
    S = spiked_sample_cov(5, 2, 100, seed=10)
    obj = objective(SampleCov(S, 100), None, params.sigma2, params.s)
    assert isinstance(obj, MatrixObjective) and obj.dim == 5
    assert obj.loss(theta) == matrix_loss(B, lam, obj.S) + obj.offset
    basis = make_basis(5)
    data = toy_curves(10, basis, params, seed=11)
    obj = objective(data, basis, params.sigma2, params.s)
    assert isinstance(obj, FunctionalObjective) and obj.dim == 5
    want = functional_loss(B, lam, obj.batches) + obj.offset
    assert obj.loss(theta) == want
    with pytest.raises(ValueError):
        objective(data, None, params.sigma2)  # functional data needs a basis


# ------------------------------------------------------------- divergence


def test_kl_divergence_zero_at_equal_and_matches_dense():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((5, 5))
    S1 = A @ A.T + np.eye(5)
    B = rng.standard_normal((5, 5))
    S2 = B @ B.T + np.eye(5)
    assert kl_divergence(S1, S1) == 0.0
    # first argument is the reference law whose inverse appears
    M = np.linalg.solve(S2, S1)
    want = 0.5 * (np.trace(M) - 5 - np.linalg.slogdet(M)[1])
    assert abs(kl_divergence(S2, S1) - want) < 1e-12
    assert kl_divergence(S2, S1) > 0.0
    with pytest.raises(ValueError):
        kl_divergence(S1, np.diag([1.0, 1.0, 1.0, 1.0, -0.1]))


# ----------------------------------------------------------------- kernels


def test_kernel_distance_orthonormal_ranks():
    # K1 = a f1 f1', K2 = b f2 f2' with orthonormal f1, f2:
    # squared L2 distance is a^2 + b^2
    F = make_true_kernel("fourier", [1.0, 0.5], seed=0).eigenfunctions
    k1 = Kernel([2.0], lambda t: F(t)[:, :1])
    k2 = Kernel([1.5], lambda t: F(t)[:, 1:])
    d = kernel_l2_distance(k1, k2)
    assert abs(d - np.sqrt(2.0**2 + 1.5**2)) < 1e-10
    assert kernel_l2_distance(k1, k1) < 1e-12


@pytest.mark.parametrize("M", [5, 10])
def test_kernel_distance_matches_coefficient_oracle(M):
    # kernels in the span of one orthonormal basis are exactly
    # B1 diag(lam1) B1^T - B2 diag(lam2) B2^T apart in coefficient space
    basis = make_basis(M)
    p1 = ModelParams(M=M, r=3, B=random_orthonormal(M, 3, 1), lam=[3.0, 1.2, 0.4], sigma2=1.0)
    p2 = ModelParams(M=M, r=2, B=random_orthonormal(M, 2, 2), lam=[2.0, 0.9], sigma2=1.0)
    C1 = (p1.B.B * p1.lam) @ p1.B.B.T
    C2 = (p2.B.B * p2.lam) @ p2.B.B.T
    exact = np.linalg.norm(C1 - C2)
    d = kernel_l2_distance(kernel_from_params(p1, basis), kernel_from_params(p2, basis))
    assert abs(d - exact) <= 1e-5 * exact


def test_orthonormality_checker_flags_scaled_function():
    F = make_true_kernel("fourier", [1.0, 0.5], seed=0).eigenfunctions
    with pytest.raises(ValueError, match="not orthonormal"):
        Kernel([1.0], lambda t: 2.0 * F(t)[:, :1]).check_orthonormal()
    # one eigenvalue too many for the map's two columns
    with pytest.raises(ValueError, match="expected"):
        Kernel([1.0, 0.5, 0.2], F).check_orthonormal()
    with pytest.raises(ValueError, match="strictly decreasing"):
        Kernel([0.5, 1.0], F)


def test_optimal_parameter_exact_for_nested_truth():
    # spline-family truth drawn from the reference space is representable
    # once the basis contains that space, so the bias term vanishes
    truth = make_true_kernel("spline", [2.0, 1.0, 0.5], M_ref=4, seed=5)
    basis = make_basis(4)
    B, lam, beta = optimal_parameter(truth, basis, 3)
    assert beta < 1e-10
    assert np.max(np.abs(lam - truth.eigenvalues)) < 1e-10
    # recovered kernel matches the truth in L2
    p = ModelParams(M=4, r=3, B=B, lam=lam, sigma2=1.0)
    assert kernel_l2_distance(kernel_from_params(p, basis), truth) < 1e-8


def test_optimal_parameter_bias_shrinks_with_basis():
    truth = make_true_kernel("fourier", [2.0, 1.0], seed=3)
    betas = []
    for M in (6, 12, 24):
        _, _, beta = optimal_parameter(truth, make_basis(M), 2)
        betas.append(beta)
    assert betas[0] > betas[1] > betas[2]
    assert betas[2] < 1e-3


def test_optimal_parameter_rank_guard():
    truth = make_true_kernel("spline", [2.0, 1.0], M_ref=4, seed=1)
    with pytest.raises(ValueError):
        optimal_parameter(truth, make_basis(4), 3)
