from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from conftest import random_orthonormal, random_product_point, random_tangent
from remlpc import stiefel
from remlpc.stiefel import (
    BaseMismatchError,
    ProductPoint,
    ProductTangent,
    StiefelPoint,
    TangentVector,
    canonical_inner,
    exp_map,
    intrinsic_grad,
    product_exp,
    product_inner,
    skew_exp,
    tangent_project,
)


def test_point_validation_branches():
    B = np.eye(5)[:, :2]
    StiefelPoint(B)  # exact
    # small drift gets repaired back onto the manifold
    P = StiefelPoint(B + 1e-8)
    assert np.linalg.norm(P.B.T @ P.B - np.eye(2)) < 1e-12
    with pytest.raises(ValueError):
        StiefelPoint(B + 1e-2)
    with pytest.raises(ValueError):
        StiefelPoint(np.ones((3, 4)))  # more columns than rows


def test_tangent_requires_skew_A():
    P = random_orthonormal(6, 2, 0)
    with pytest.raises(ValueError):
        TangentVector(P, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((6, 2)))


def test_exact_skew_is_bitwise_tril_form():
    rng = np.random.default_rng(30)
    for r in range(1, 7):
        A = rng.standard_normal((r, r))
        L = np.tril(A, -1)
        assert stiefel._exact_skew(A).tobytes() == (L - L.T).tobytes()


def test_split_then_rebuild_roundtrip():
    P = random_orthonormal(7, 3, 1)
    U = random_tangent(P, 2)
    V = TangentVector(P, P.B.T @ U.full(), U.full())
    assert np.max(np.abs(V.A - U.A)) < 1e-13
    assert np.max(np.abs(V.C - U.C)) < 1e-13
    Z = np.random.default_rng(3).standard_normal((7, 3))
    with pytest.raises(ValueError):
        TangentVector(P, P.B.T @ Z, Z)


def test_projection_is_idempotent():
    P = random_orthonormal(8, 3, 4)
    Z = np.random.default_rng(5).standard_normal((8, 3))
    U = tangent_project(P, Z)
    V = tangent_project(P, U.full())
    assert np.max(np.abs(U.full() - V.full())) < 1e-13


def test_intrinsic_grad_represents_trace_pairing():
    # <intrinsic_grad(F), U>_c == tr(F^T U) for every tangent U
    P = random_orthonormal(9, 3, 6)
    rng = np.random.default_rng(7)
    F = rng.standard_normal((9, 3))
    G = intrinsic_grad(P, F)
    for k in range(5):
        U = random_tangent(P, 10 + k)
        lhs = canonical_inner(G, U)
        rhs = float(np.trace(F.T @ U.full()))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_canonical_inner_blocks():
    P = random_orthonormal(6, 2, 8)
    U = random_tangent(P, 9)
    a_only = TangentVector(P, U.A, np.zeros_like(U.C))
    c_only = TangentVector(P, np.zeros_like(U.A), U.C)
    assert abs(canonical_inner(a_only, a_only) - 0.5 * np.sum(U.A**2)) < 1e-14
    assert abs(canonical_inner(c_only, c_only) - np.sum(U.C**2)) < 1e-14
    assert abs(canonical_inner(a_only, c_only)) < 1e-14
    Q = random_orthonormal(6, 2, 99)
    with pytest.raises(BaseMismatchError):
        canonical_inner(U, random_tangent(Q, 1))


def test_exp_map_feasibility_bulk():
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(300):
        M = int(rng.integers(2, 12))
        r = int(rng.integers(1, M + 1))
        P = random_orthonormal(M, r, 1000 + k)
        U = random_tangent(P, 2000 + k, scale=float(rng.uniform(0.1, 3.0)))
        t = float(rng.uniform(0.0, 2.0))
        Q = exp_map(U, t)
        worst = max(worst, np.linalg.norm(Q.B.T @ Q.B - np.eye(r)))
    assert worst < 1e-10


def test_exp_map_zero_time():
    P = random_orthonormal(5, 2, 3)
    U = random_tangent(P, 4)
    assert np.max(np.abs(exp_map(U, 0.0).B - P.B)) == 0.0


def test_exp_map_plane_rotation():
    # base e1, direction e2: the geodesic is a circle in the (e1, e2) plane
    P = StiefelPoint(np.eye(4)[:, :1])
    C = np.zeros((4, 1))
    C[1, 0] = 1.0
    U = TangentVector(P, np.zeros((1, 1)), C)
    for t in (0.1, 0.5, 1.2):
        got = exp_map(U, t).B.ravel()
        want = np.array([np.cos(t), np.sin(t), 0.0, 0.0])
        assert np.max(np.abs(got - want)) < 1e-12


def test_exp_map_pure_A_is_matrix_exponential():
    P = random_orthonormal(6, 3, 11)
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 3))
    A = A - A.T
    U = TangentVector(P, A, np.zeros((6, 3)))
    for t in (0.3, 1.0):
        assert np.max(np.abs(exp_map(U, t).B - P.B @ expm(t * A))) < 1e-12


def _zero_column(C):
    C[:, 1] = 0.0


def _repeated_column(C):
    C[:, 2] = C[:, 0]


def _zero(C):
    C[:] = 0.0


@pytest.mark.parametrize("M, r, degrade", [
    (8, 3, _zero_column),
    (8, 3, _repeated_column),
    (5, 3, None),  # M < 2r: the normal block has rank at most M - r
    (4, 4, _zero),  # r = M: the normal space is trivial
], ids=["zero-column", "repeated-column", "M-below-2r", "r-equals-M"])
def test_exp_map_rank_deficient_normal_part(M, r, degrade):
    # reference: [B Qc] expm(t S) [I; 0] with Qc an SVD basis of col(C)
    # and S = [[A, -Rc^T], [Rc, 0]], Rc = Qc^T C
    P = random_orthonormal(M, r, 13)
    U0 = random_tangent(P, 14)
    C = U0.C.copy()
    if degrade is not None:
        degrade(C)
    U = TangentVector(P, U0.A, C)
    u, sv, _ = np.linalg.svd(U.C, full_matrices=False)
    Qc = u[:, sv > 1e-10]
    Rc = Qc.T @ U.C
    k = Qc.shape[1]
    S = np.block([[U.A, -Rc.T], [Rc, np.zeros((k, k))]])
    t = 1.3
    E = expm(t * S)
    Q = exp_map(U, t)
    assert np.max(np.abs(Q.B - (P.B @ E[:r, :r] + Qc @ E[r:, :r]))) < 1e-12
    assert np.linalg.norm(Q.B.T @ Q.B - np.eye(r)) < 1e-11


def test_exp_map_first_order_residual_quarters():
    P = random_orthonormal(7, 2, 15)
    U = random_tangent(P, 16)
    t = 1e-3
    r1 = np.linalg.norm(exp_map(U, t).B - (P.B + t * U.full()))
    r2 = np.linalg.norm(exp_map(U, t / 2).B - (P.B + (t / 2) * U.full()))
    assert 0.75 * 4.0 <= r1 / r2 <= 1.25 * 4.0


@settings(max_examples=30)
@given(
    M=st.integers(2, 12),
    data=st.data(),
    seed=st.integers(0, 2**16),
    scale=st.floats(0.05, 3.0),
)
def test_factored_geodesic_matches_expm_on_halving_sequence(M, data, seed, scale):
    # a line search evaluates one direction at t = 1, 1/2, ..., 2^-40; the
    # direction is factored once and every trial agrees with the
    # Edelman-Arias-Smith geodesic [B Q] expm(t S) [I; 0], S = [[A, -R^T], [R, 0]],
    # built here from an unpivoted QR (the geodesic does not depend on the QR)
    r = data.draw(st.integers(1, M))
    P = random_orthonormal(M, r, seed)
    U = random_tangent(P, seed + 1, scale=scale)
    Q, R = np.linalg.qr(U.C)
    S = np.block([[U.A, -R.T], [R, np.zeros((R.shape[0], R.shape[0]))]])
    with mock.patch.object(stiefel, "geodesic_factors", wraps=stiefel.geodesic_factors) as f:
        for t in 0.5 ** np.arange(41):
            got = exp_map(U, t).B
            E = expm(t * S)
            want = P.B @ E[:r, :r] + Q @ E[r:, :r]
            assert np.max(np.abs(got - want)) < 1e-12
            assert np.linalg.norm(got.T @ got - np.eye(r)) < 1e-12
    assert f.call_count == 1


def test_skew_exp_orthogonal():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((5, 5))
    A = A - A.T
    Q = skew_exp(A)
    assert np.linalg.norm(Q.T @ Q - np.eye(5)) < 1e-13
    assert np.max(np.abs(Q - expm(A))) < 1e-12


def test_skew_exp_accurate_at_extreme_norms():
    for seed in range(10):
        A = np.random.default_rng(seed).standard_normal((6, 6))
        A = A - A.T
        # a backtracking line search can try steps this long; a Pade-based
        # exponential drifts past the orthogonality check at this norm
        big = A * (1.2e4 / np.linalg.norm(A))
        Q = skew_exp(big)
        assert np.linalg.norm(Q.T @ Q - np.eye(6)) < 1e-13
        assert np.max(np.abs(Q - expm(big))) < 1e-9
        # and this short: Q - I must keep its relative accuracy
        tiny = A * (1e-9 / np.linalg.norm(A))
        step = skew_exp(tiny) - np.eye(6)
        assert np.max(np.abs(step - (expm(tiny) - np.eye(6)))) < 1e-14 * 1e-9


def test_exponential_of_a_non_unitary_eigensystem_is_rejected():
    # V is no eigenvector basis of a Hermitian matrix, so I + V diag(.) V^H
    # is not orthogonal; the check itself must catch it
    w = np.array([1.0, -1.0])
    V = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(stiefel.GeodesicError, match="lost orthogonality"):
        stiefel._exp_from_eigh(w, V, 0.5)


def test_product_exp_moves_both_blocks():
    theta = random_product_point(6, 2, 18)
    U = random_tangent(theta.point, 19)
    dz = np.array([0.2, -0.1])
    out = product_exp(theta, ProductTangent(U, dz), 1.0)
    assert np.max(np.abs(out.zeta - (theta.zeta + dz))) < 1e-15
    assert np.max(np.abs(out.point.B - exp_map(U, 1.0).B)) < 1e-14


def test_product_inner_adds_zeta_block():
    theta = random_product_point(6, 2, 20)
    U = random_tangent(theta.point, 21)
    d = ProductTangent(U, np.array([1.0, 2.0]))
    assert abs(product_inner(d, d) - (canonical_inner(U, U) + 5.0)) < 1e-13
