import numpy as np
from hypothesis import settings

from remlpc.stiefel import ProductPoint, StiefelPoint, TangentVector, tangent_project

# every property test draws the same examples on every run, however long it takes
settings.register_profile("remlpc", derandomize=True, deadline=None)
settings.load_profile("remlpc")


def random_orthonormal(M, r, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((M, r)))
    return StiefelPoint(Q)


def random_tangent(point, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal(point.B.shape)
    U = tangent_project(point, Z)
    return TangentVector(point, scale * U.A, scale * U.C)


def random_product_point(M, r, seed, zeta_scale=0.7):
    rng = np.random.default_rng(seed)
    B = random_orthonormal(M, r, seed)
    zeta = np.sort(rng.uniform(-1.0, 1.0, r) * zeta_scale)[::-1]
    # strictly decreasing zeta, gaps at least 0.05
    zeta = zeta - 0.05 * np.arange(r)
    return ProductPoint(B, zeta)


def spiked_sample_cov(M, r, n, seed, eigenvalues=None, sigma2=1.0, s=1.0):
    """Sample covariance of n Gaussian vectors from a rank-r spiked model."""
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        eigenvalues = np.linspace(2.0 * r, 2.0, r)
    lam = np.asarray(eigenvalues, dtype=float)
    B = random_orthonormal(M, r, seed + 1).B
    X = rng.standard_normal((n, r)) * np.sqrt(s * lam)
    E = rng.standard_normal((n, M)) * np.sqrt(sigma2)
    Y = X @ B.T + E
    return Y.T @ Y / n
