"""Derivative stack: gradients, Hessians, and the local score step.

Finite differences run along geodesics, so they respect the frame
constraint while probing the closed forms.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_product_point, random_tangent, spiked_sample_cov
from remlpc import calculus
from remlpc.bspline import eval_basis, make_basis
from remlpc.model import (
    CurveData,
    Dataset,
    ModelParams,
    SampleCov,
    curve_batches,
    functional_loss,
    marginal_cov,
    matrix_loss,
)
from remlpc.optimizer import MatrixObjective, objective
from remlpc.stiefel import (
    ProductPoint,
    ProductTangent,
    StiefelPoint,
    TangentVector,
    canonical_inner,
    exp_map,
    intrinsic_grad,
    product_exp,
    product_inner,
)


def matrix_loss_at(theta, S, sigma2=1.0, s=1.0):
    return matrix_loss(theta.point.B, np.exp(theta.zeta), sigma2, s, S)


def geodesic_fd(loss, theta, d, h):
    up = loss(product_exp(theta, d, h))
    dn = loss(product_exp(theta, d, -h))
    return (up - dn) / (2.0 * h)


def second_fd(loss, theta, d, h):
    up = loss(product_exp(theta, d, h))
    dn = loss(product_exp(theta, d, -h))
    return (up - 2.0 * loss(theta) + dn) / h**2


def b_direction(U):
    return ProductTangent(U, np.zeros(U.base.B.shape[1]))


def make_functional(M, r, n, seed, sigma2=0.4, s=1.1, m_bounds=(3, 7)):
    basis = make_basis(M)
    rng = np.random.default_rng(seed)
    theta = random_product_point(M, r, seed)
    params = ModelParams(M=M, r=r, B=theta.point, lam=np.sort(rng.uniform(0.5, 3.0, r))[::-1],
                         sigma2=sigma2, s=s)
    curves = []
    for _ in range(n):
        m = int(rng.integers(m_bounds[0], m_bounds[1] + 1))
        t = rng.uniform(0.0, 1.0, m)
        Phi = eval_basis(basis, t).T
        y = np.linalg.cholesky(marginal_cov(params, Phi)) @ rng.standard_normal(m)
        curves.append(CurveData(times=t, values=y))
    data = Dataset.functional(curves)
    return basis, data, curve_batches(data, basis)


# ------------------------------------------------------- frozen examples


def test_frozen_normalized_gradients():
    # B = e1 in the plane, unit eigenvalue: the gradient points straight
    # along the orthogonal complement with weight given by the cross term
    theta = ProductPoint(StiefelPoint(np.eye(2)[:, :1]), np.zeros(1))
    g = calculus.grad_B(theta, np.ones((2, 2)))
    assert np.array_equal(g.full().ravel(), [0.0, -1.0])
    assert np.array_equal(calculus.grad_zeta(theta, np.ones((2, 2))), [0.25])


def test_frozen_score_step():
    theta = ProductPoint(StiefelPoint(np.eye(2)[:, :1]), np.zeros(1))
    dB, dz = calculus.score_delta(theta, np.diag([3.0, 1.0]))
    assert np.max(np.abs(dB.full())) == 0.0
    assert np.allclose(dz, [1.0], atol=1e-14)


# ----------------------------------------------------- gradient FD checks


def test_normalized_gradient_matches_fd():
    h = 1e-5
    for k in range(8):
        M, r = 7, 3
        theta = random_product_point(M, r, 100 + k)
        S = spiked_sample_cov(M, r, 200, 200 + k)
        g = ProductTangent(calculus.grad_B(theta, S), calculus.grad_zeta(theta, S))
        rng = np.random.default_rng(300 + k)
        d = ProductTangent(random_tangent(theta.point, 400 + k), rng.standard_normal(r))
        want = geodesic_fd(lambda th: matrix_loss_at(th, S), theta, d, h)
        got = product_inner(g, d)
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))


# random problem sizes and scales for the gradient differential tests
SIZES = dict(
    M=st.integers(4, 8),
    r=st.integers(1, 3),
    sigma2=st.floats(0.2, 3.0),
    s=st.floats(0.3, 3.0),
    seed=st.integers(0, 2**16),
)


def objective_fd_check(obj, theta, seed, h=1e-5):
    """The objective's gradient against central differences of its loss
    along a random geodesic through theta."""
    rng = np.random.default_rng(seed)
    r = theta.zeta.size
    d = ProductTangent(random_tangent(theta.point, seed + 1), rng.standard_normal(r))
    want = geodesic_fd(obj.loss, theta, d, h)
    got = product_inner(obj.grad(theta), d)
    assert abs(got - want) < 1e-6 * max(1.0, abs(want))


@settings(max_examples=30)
@given(**SIZES)
def test_scaled_gradient_matches_fd(M, r, sigma2, s, seed):
    S = spiked_sample_cov(M, r, 150, seed, sigma2=sigma2, s=s)
    theta = random_product_point(M, r, seed + 1)
    objective_fd_check(objective(SampleCov(S, 150), None, sigma2, s), theta, seed + 2)


@settings(max_examples=30)
@given(m_lo=st.integers(1, 4), m_span=st.integers(0, 6), **SIZES)
def test_functional_gradient_matches_fd(M, r, m_lo, m_span, sigma2, s, seed):
    basis, data, _ = make_functional(M, r, 20, seed, sigma2=sigma2, s=s,
                                     m_bounds=(m_lo, m_lo + m_span))
    theta = random_product_point(M, r, seed + 1)
    objective_fd_check(objective(data, basis, sigma2, s), theta, seed + 2)


@settings(max_examples=40)
@example(counts=[], M=4, r=3, extra=0, sigma2=0.25, s=1.0, seed=0)
@given(counts=st.lists(st.integers(1, 12), max_size=12), extra=st.integers(1, 4), **SIZES)
def test_curve_statistics_match_the_dense_likelihood(counts, M, r, extra, sigma2, s, seed):
    # every draw has a curve with m = 1, one with m = r - 1 (m < r once
    # r > 1) and one with m > M, next to the drawn ones
    counts = [1, max(1, r - 1), M + extra, *counts]
    rng = np.random.default_rng(seed)
    curves = [CurveData(times=rng.uniform(0.0, 1.0, m), values=2.0 * rng.standard_normal(m))
              for m in counts]
    basis = make_basis(M)
    batches = curve_batches(Dataset.functional(curves), basis)
    theta = random_product_point(M, r, seed + 1, zeta_scale=1.5)
    B, lam_eff = theta.point.B, s * theta.lam
    params = ModelParams(M=M, r=r, B=theta.point, lam=theta.lam, sigma2=sigma2, s=s)
    loss, F, gz = 0.0, np.zeros((M, r)), np.zeros(r)
    for c in curves:
        Phi = eval_basis(basis, c.times).T
        cov = marginal_cov(params, Phi)
        Siy = np.linalg.solve(cov, c.values)
        loss += 0.5 * (c.values @ Siy + np.linalg.slogdet(cov)[1])
        # dense derivative Phi (Sigma^-1 - Sigma^-1 y y^T Sigma^-1) Phi^T B diag(s lam)
        W = np.linalg.inv(cov) - np.outer(Siy, Siy)
        dF = Phi @ W @ Phi.T @ B * lam_eff
        F += dF
        gz += 0.5 * np.einsum("mk,mk->k", B, dF)
    n = len(curves)
    want_loss = loss / n
    got_loss = functional_loss(B, theta.lam, sigma2, s, batches)
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    got = calculus.grad_functional_raw(theta.point, theta.lam, sigma2, s, batches)
    want_U = intrinsic_grad(theta.point, F / n).full()
    assert np.max(np.abs(got.U.full() - want_U)) <= 1e-10 * max(1.0, np.max(np.abs(want_U)))
    want_z = gz / n
    assert np.max(np.abs(got.dzeta - want_z)) <= 1e-10 * max(1.0, np.max(np.abs(want_z)))


def test_objective_grads_call_the_kernels(monkeypatch):
    sigma2, s = 0.4, 1.1
    basis, data, batches = make_functional(5, 2, 12, seed=21, sigma2=sigma2, s=s)
    theta = random_product_point(5, 2, 22)
    g = objective(data, basis, sigma2, s).grad(theta)
    want = calculus.grad_functional_raw(theta.point, theta.lam, sigma2, s, batches)
    assert np.array_equal(g.U.full(), want.U.full())
    assert np.array_equal(g.dzeta, want.dzeta)
    S = spiked_sample_cov(5, 2, 90, 23, sigma2=sigma2, s=s)
    obj = objective(SampleCov(S, 90), None, sigma2, s)
    calls = []

    def counted(name):
        kernel = getattr(calculus, name)

        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        return wrapper

    for name in ("grad_B_scaled", "grad_zeta_scaled"):
        monkeypatch.setattr(calculus, name, counted(name))
    gm = obj.grad(theta)
    # one call of each kernel per gradient
    assert calls == ["grad_B_scaled", "grad_zeta_scaled"]
    theta_n, Sn = calculus.rescaled(theta, S, sigma2, s)
    assert np.max(np.abs(gm.U.full() - calculus.grad_B(theta_n, Sn).full())) < 1e-14
    assert np.max(np.abs(gm.dzeta - calculus.grad_zeta(theta_n, Sn))) < 1e-14
    gv = ProductTangent(gm.U, gm.dzeta)
    assert gm.norm() == np.sqrt(product_inner(gv, gv))


# ------------------------------------------------------ hessian FD checks


def test_hessian_B_matches_second_differences():
    h = 1e-3
    for k in range(5):
        theta = random_product_point(6, 2, 900 + k)
        S = spiked_sample_cov(6, 2, 120, 950 + k)
        U = random_tangent(theta.point, 990 + k)
        want = second_fd(lambda th: matrix_loss_at(th, S), theta, b_direction(U), h)
        got = calculus.hessian_B_bilinear(theta, S, U, U)
        assert abs(got - want) < 1e-4 * max(1.0, abs(want))


def test_hessian_zeta_matches_second_differences():
    h = 1e-4
    theta = random_product_point(7, 3, 31)
    S = spiked_sample_cov(7, 3, 140, 32)
    H = calculus.hessian_zeta(theta, S)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        d = ProductTangent(TangentVector(theta.point, np.zeros((3, 3)), np.zeros((7, 3))), e)
        want = second_fd(lambda th: matrix_loss_at(th, S), theta, d, h)
        assert abs(H[i] - want) < 1e-4 * max(1.0, abs(want))


def test_cross_derivative_matches_fd():
    # d/dzeta_i of the B-gradient, probed against differenced gradients
    h = 1e-6
    theta = random_product_point(6, 2, 41)
    S = spiked_sample_cov(6, 2, 100, 42)
    U = random_tangent(theta.point, 43)
    for i in range(2):
        zp = theta.zeta.copy()
        zp[i] += h
        zm = theta.zeta.copy()
        zm[i] -= h
        gp = calculus.grad_B(ProductPoint(theta.point, zp), S)
        gm = calculus.grad_B(ProductPoint(theta.point, zm), S)
        want = (canonical_inner(gp, U) - canonical_inner(gm, U)) / (2.0 * h)
        got = canonical_inner(calculus.dgrad_B_dzeta(theta, S, i), U)
        assert abs(got - want) < 1e-5 * max(1.0, abs(want))


# ----------------------------------------------- curvature at the optimum


def at_optimum(M, r, seed):
    theta = random_product_point(M, r, seed)
    lam = np.exp(theta.zeta)
    S = theta.point.B @ np.diag(lam) @ theta.point.B.T + np.eye(M)
    return theta, S


def test_population_hessian_closed_form():
    theta, S = at_optimum(7, 3, 51)
    for k in range(4):
        X = random_tangent(theta.point, 60 + k)
        Y = random_tangent(theta.point, 70 + k)
        full = calculus.hessian_B_bilinear(theta, S, X, Y)
        star = calculus.hessian_star_B_bilinear(theta, X, Y)
        assert abs(full - star) < 1e-12 * max(1.0, abs(full))


def test_inverse_hessian_composes_to_identity():
    theta, S = at_optimum(8, 3, 81)
    for k in range(4):
        X = random_tangent(theta.point, 90 + k)
        Y = random_tangent(theta.point, 95 + k)
        # H(H^{-1} X, Y) recovers the canonical pairing <X, Y>
        Z = calculus.inv_hessian_star_B(theta, X)
        got = calculus.hessian_star_B_bilinear(theta, Z, Y)
        want = canonical_inner(X, Y)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_cross_block_vanishes_at_optimum():
    theta, S = at_optimum(6, 2, 101)
    for k in range(2):
        c = calculus.dgrad_B_dzeta(theta, S, k)
        assert np.max(np.abs(c.full())) < 1e-12


def test_score_step_equals_newton_step():
    theta, gamma = at_optimum(7, 3, 111)
    S = spiked_sample_cov(7, 3, 400, 112)
    dB, dlam = calculus.score_delta(theta, S)
    # frame block: the resolvent form IS the preconditioned gradient step
    g = calculus.grad_B(theta, S)
    alt = calculus.inv_hessian_star_B(theta, g).scaled(-1.0)
    assert np.max(np.abs(dB.full() - alt.full())) < 1e-12
    # eigenvalue block follows the explicit compression formula
    B = theta.point.B
    want = np.diag(B.T @ S @ B) - (1.0 + theta.lam)
    assert np.max(np.abs(dlam - want)) < 1e-13
    # both blocks vanish when the sample covariance equals the model one
    dB0, dlam0 = calculus.score_delta(theta, gamma)
    assert np.max(np.abs(dB0.full())) < 1e-13
    assert np.max(np.abs(dlam0)) < 1e-13


def test_near_degenerate_spectrum_raises():
    B = StiefelPoint(np.eye(5)[:, :2])
    theta = ProductPoint(B, np.array([0.5, 0.5 - 1e-12]))
    X = random_tangent(B, 3)
    with pytest.raises(calculus.NearDegenerateError):
        calculus.inv_hessian_star_B(theta, X)


def test_rescaling_reduces_general_scale_to_normalized():
    sigma2, s = 0.6, 1.7
    theta = random_product_point(6, 2, 121)
    S = spiked_sample_cov(6, 2, 130, 122, sigma2=sigma2, s=s)
    theta_n, Sn = calculus.rescaled(theta, S, sigma2, s)
    assert np.max(np.abs(theta_n.zeta - (theta.zeta + np.log(s) - np.log(sigma2)))) < 1e-15
    assert np.max(np.abs(Sn - S / sigma2)) < 1e-15
    # the matrix objective shifts zeta and hands the kernels S~ B = S B / sigma2
    obj = MatrixObjective(S, sigma2, s)
    theta_o = ProductPoint(theta.point, theta.zeta + obj.shift)
    SB = (S @ theta.point.B) / sigma2
    g_gen = calculus.grad_B_scaled(theta_o, SB)
    g_norm = calculus.grad_B(theta_n, Sn)
    assert np.max(np.abs(g_gen.full() - g_norm.full())) < 1e-13
    z_gen = calculus.grad_zeta_scaled(theta_o, SB)
    z_norm = calculus.grad_zeta(theta_n, Sn)
    assert np.max(np.abs(z_gen - z_norm)) < 1e-13
