"""Orthonormalized cubic B-spline basis on [0, 1].

The raw basis is the clamped cubic B-spline family on an equispaced knot
grid (boundary knots repeated four times, M - 3 equal interior
subintervals, M + 4 knots in total).  The working basis is the raw one
multiplied by the inverse square root of its Gram matrix, so the M
functions are exactly orthonormal in L2[0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_DEGREE = 3


def _knot_vector(M: int) -> np.ndarray:
    if M < 4:
        raise ValueError(f"basis dimension must be at least 4, got {M}")
    interior = np.linspace(0.0, 1.0, M - 2)[1:-1]
    return np.concatenate([np.zeros(4), interior, np.ones(4)])


def _raw_design(knots: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values of all raw cubic B-splines at points t, shape (len(t), M).

    Cox-de Boor recursion, vectorized over evaluation points.  Only the
    four splines alive on each knot interval are computed.
    """
    k = _DEGREE
    M = len(knots) - k - 1
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("evaluation points must be one-dimensional")
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    idx = np.searchsorted(knots, t, side="right") - 1
    idx = np.clip(idx, k, M - 1)

    # vals[:, j] holds B_{idx-k+j, d} during the degree-d sweep
    vals = np.zeros((t.size, k + 1))
    vals[:, k] = 1.0
    for d in range(1, k + 1):
        for j in range(k - d, k + 1):
            i = idx - k + j
            left = knots[i]
            dl = knots[i + d] - left
            a = np.where(dl > 0.0, (t - left) / np.where(dl > 0.0, dl, 1.0), 0.0)
            term = a * vals[:, j]
            if j + 1 <= k:
                right = knots[i + d + 1]
                dr = right - knots[i + 1]
                b = np.where(dr > 0.0, (right - t) / np.where(dr > 0.0, dr, 1.0), 0.0)
                term = term + b * vals[:, j + 1]
            vals[:, j] = term

    out = np.zeros((t.size, M))
    rows = np.arange(t.size)
    for j in range(k + 1):
        out[rows, idx - k + j] = vals[:, j]
    return out


def _gauss_nodes(breaks: np.ndarray, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over the break intervals."""
    x, w = np.polynomial.legendre.leggauss(npts)
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    nodes = 0.5 * (b - a) * (x[None, :] + 1.0) + a
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormalized clamped cubic B-spline basis of dimension M."""

    M: int
    knots: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    gram_inv_sqrt: np.ndarray = field(repr=False)

    @property
    def breakpoints(self) -> np.ndarray:
        return self.knots[_DEGREE : self.M + 1]


def make_basis(M: int) -> OrthoBasis:
    """Build the orthonormalized basis of dimension M (M >= 4).

    The Gram matrix of the raw basis is integrated exactly: products of
    cubic splines are piecewise degree-6 polynomials, so a 4-point
    Gauss-Legendre rule per knot interval is exact up to rounding.
    """
    knots = _knot_vector(M)
    breaks = knots[_DEGREE : M + 1]
    nodes, weights = _gauss_nodes(breaks, 4)
    design = _raw_design(knots, nodes)
    gram = design.T @ (weights[:, None] * design)
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    if evals.min() <= 0.0:
        raise ArithmeticError("raw spline Gram matrix is not positive definite")
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    return OrthoBasis(M=M, knots=knots, gram=gram, gram_inv_sqrt=inv_sqrt)


def eval_basis(basis: OrthoBasis, t) -> np.ndarray:
    """Values of the M orthonormal functions at points t, shape (len(t), M)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _raw_design(basis.knots, t) @ basis.gram_inv_sqrt


def project_function(basis: OrthoBasis, f) -> np.ndarray:
    """Coefficients of the L2 projection of f onto the orthonormal basis.

    Uses a composite 24-point Gauss-Legendre rule per knot interval,
    which integrates smooth integrands to near machine accuracy.
    """
    nodes, weights = _gauss_nodes(basis.breakpoints, 24)
    fv = np.asarray(f(nodes), dtype=float)
    if fv.shape != nodes.shape:
        raise ValueError("function must map a 1-d array to a 1-d array of values")
    return eval_basis(basis, nodes).T @ (weights * fv)
