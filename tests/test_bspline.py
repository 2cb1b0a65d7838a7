"""Clamped cubic spline basis: knots, Gram structure, orthonormalization."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BSpline

from remlpc.bspline import OrthoBasis, eval_basis, make_basis, project_function


def raw_bspline_design(basis, t):
    knots = basis.knots
    return BSpline.design_matrix(np.asarray(t), knots, 3, extrapolate=False).toarray()


def test_dimension_floor():
    with pytest.raises(ValueError):
        make_basis(3)
    make_basis(4)


def test_knot_structure():
    b = make_basis(7)
    k = b.knots
    assert k.size == 7 + 4
    assert np.all(k[:4] == 0.0) and np.all(k[-4:] == 1.0)
    interior = k[4:-4]
    # equally spaced interior knots on (0, 1)
    assert np.allclose(interior, np.arange(1, 4) / 4.0)


def test_raw_partition_of_unity():
    b = make_basis(9)
    t = np.linspace(0.0, 1.0, 501)
    D = raw_bspline_design(b, t)
    assert np.max(np.abs(D.sum(axis=1) - 1.0)) < 1e-12


def test_gram_banded_exactly():
    # cubic splines overlap at most 3 neighbours; outside the band the
    # entries must be identically zero, not merely small
    for M in (4, 5, 9, 16):
        G = make_basis(M).gram
        for i in range(M):
            for j in range(M):
                if abs(i - j) > 3:
                    assert G[i, j] == 0.0


def test_gram_corner_value():
    # first basis function at M=4 is the Bernstein cubic (1-t)^3,
    # whose squared integral is 1/7
    G = make_basis(4).gram
    assert abs(G[0, 0] - 1.0 / 7.0) < 1e-14


def test_gram_matches_quadrature_oracle():
    # integrate per knot interval; the product is a smooth polynomial there
    b = make_basis(6)
    edges = np.unique(b.knots)
    for i, j in [(0, 0), (0, 3), (2, 4), (5, 5), (1, 2)]:
        val = sum(
            quad(
                lambda t: raw_bspline_design(b, [t])[0, i] * raw_bspline_design(b, [t])[0, j],
                a,
                c,
            )[0]
            for a, c in zip(edges[:-1], edges[1:])
        )
        assert abs(b.gram[i, j] - val) < 1e-12


def test_orthonormalized_columns():
    # 24-point Gauss rule per knot interval integrates the products exactly
    for M in (4, 8, 13):
        b = make_basis(M)
        x, w = np.polynomial.legendre.leggauss(24)
        edges = np.unique(b.knots)
        nodes, weights = [], []
        for a, c in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (c - a) * x + 0.5 * (c + a))
            weights.append(0.5 * (c - a) * w)
        nodes = np.concatenate(nodes)
        weights = np.concatenate(weights)
        Phi = eval_basis(b, nodes)
        G = (Phi * weights[:, None]).T @ Phi
        assert np.max(np.abs(G - np.eye(M))) < 1e-12


def test_eval_matches_scipy_oracle():
    b = make_basis(11)
    t = np.linspace(0.0, 1.0, 257)
    D = raw_bspline_design(b, t)
    assert np.max(np.abs(D @ b.gram_inv_sqrt - eval_basis(b, t))) < 1e-13


def test_eval_rejects_out_of_domain():
    b = make_basis(4)
    with pytest.raises(ValueError):
        eval_basis(b, np.array([-0.01]))
    with pytest.raises(ValueError):
        eval_basis(b, np.array([0.5, 1.01]))


def test_eval_scalar_and_shape():
    b = make_basis(6)
    row = eval_basis(b, 0.4)
    assert row.shape == (1, 6)
    assert np.allclose(row, eval_basis(b, np.array([0.4])))


def test_projection_reproduces_span_member():
    b = make_basis(8)
    coef = np.zeros(8)
    coef[2] = 1.3
    coef[5] = -0.4
    f = lambda t: eval_basis(b, t) @ coef
    c = project_function(b, lambda t: f(np.atleast_1d(t)).ravel())
    assert np.max(np.abs(c - coef)) < 1e-12
    # a map to (k, 2) arrays projects each column
    C = project_function(b, lambda t: np.stack([f(t), -2.0 * f(t)], axis=1))
    assert np.max(np.abs(C - np.stack([coef, -2.0 * coef], axis=1))) < 1e-12


def test_projection_sup_error_decays_fast():
    # smooth target: projection error in sup norm should fall at least
    # like M^-3.7 for cubic pieces (measured closer to M^-4.3)
    f = lambda t: np.sin(2.0 * np.pi * np.asarray(t)) + 0.5 * np.exp(-3.0 * np.asarray(t))
    grid = np.linspace(0.0, 1.0, 4001)
    Ms = np.array([8, 16, 32, 64])
    errs = []
    for M in Ms:
        b = make_basis(int(M))
        c = project_function(b, f)
        errs.append(np.max(np.abs(eval_basis(b, grid) @ c - f(grid))))
    slope = np.polyfit(np.log(Ms), np.log(errs), 1)[0]
    assert slope <= -3.7, f"sup-error slope {slope:.2f}"
