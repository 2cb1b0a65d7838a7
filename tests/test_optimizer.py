import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_orthonormal, random_product_point, random_tangent, spiked_sample_cov
from remlpc.bspline import eval_basis, make_basis
from remlpc import calculus, model, optimizer, stiefel
from remlpc.model import CurveData, Dataset, ModelParams, SampleCov, canonicalize, marginal_cov
from remlpc.optimizer import FitConfig, fit, init_params, objective
from remlpc.matrixcase import pca_fit
from remlpc.sim import make_true_kernel, sample_dataset
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
    return basis, Dataset.functional(curves), truth


def test_grad_tol_defaults_by_regime():
    S = spiked_sample_cov(6, 2, 100, seed=12)
    data = SampleCov(S, 100)
    assert objective(data, None, 1.0).grad_tol == 1e-8
    basis, curves, _ = small_functional(n=10, seed=12)
    assert objective(curves, basis, 0.3).grad_tol == 1e-6
    # a configured grad_tol overrides the objective's default
    res = fit(data, None, 2, 1.0, 1.0, FitConfig(grad_tol=1e3, init="random", restarts=1))
    assert res.converged and res.n_iter == 0 and res.stop_reason == "grad-tol"


@pytest.mark.parametrize("grad_tol", [-1.0, 0.0, np.nan, np.inf])
def test_fit_rejects_a_grad_tol_that_is_not_positive_and_finite(grad_tol):
    data = SampleCov(spiked_sample_cov(6, 2, 100, seed=12), 100)
    with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
        fit(data, None, 2, 1.0, 1.0, FitConfig(grad_tol=grad_tol))


def test_matrix_fit_reaches_closed_form():
    S = spiked_sample_cov(12, 2, 500, seed=1)
    res = fit(SampleCov(S, 500), None, 2, 1.0, 1.0,
              FitConfig(init="random", restarts=1, seed=5))
    pca = pca_fit(S, 2)
    assert res.converged
    assert np.max(np.abs(res.params.B.B - pca.B.B)) < 1e-6
    assert np.max(np.abs(res.params.lam - pca.lam)) < 1e-6


def test_pooled_pca_init_is_exact_in_matrix_regime():
    S = spiked_sample_cov(10, 3, 400, seed=2, eigenvalues=[4.0, 2.0, 1.0])
    res = fit(SampleCov(S, 400), None, 3, 1.0, 1.0, FitConfig(restarts=1))
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


def test_grad_tol_fit_never_repeats_a_gradient(monkeypatch):
    # the step that stops on grad-tol has just taken the gradient at the
    # final point, so fit must not take it there a second time
    truth = make_true_kernel("spline", [2.0, 1.0, 0.5], M_ref=4, seed=3)
    data = sample_dataset(truth, "sparse", 512, (1, 512, 0), sigma2=0.25, m_bounds=(4, 5))
    points = []
    kernel = calculus.grad_functional_raw

    def recording(point, lam, *args):
        points.append((point.B.tobytes(), lam.tobytes()))
        return kernel(point, lam, *args)

    monkeypatch.setattr(calculus, "grad_functional_raw", recording)
    res = fit(data, make_basis(4), 3, 0.25, 1.0, FitConfig(restarts=1, seed=1))
    assert res.stop_reason == "grad-tol"
    assert len(points) == len(set(points)) == res.n_iter + 1


class RejectFirst:
    """An objective whose first k loss evaluations fail any Armijo test."""

    def __init__(self, inner, k):
        self.inner, self.left = inner, k

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def loss(self, theta):
        if self.left:
            self.left -= 1
            return np.inf
        return self.inner.loss(theta)


@pytest.mark.parametrize("k", [0, 3, 9])
def test_backtracking_factors_its_direction_once(monkeypatch, k):
    # each halving re-evaluates the same geodesic at a shorter t; only the
    # exponentiation of the eigenvalues may be redone
    S = spiked_sample_cov(8, 2, 200, 3)
    obj = objective(SampleCov(S, 200), None, 1.0)
    theta = ProductPoint(random_orthonormal(8, 2, 4), np.log([2.0, 1.0]))
    counts = {"geodesic_factors": 0, "product_exp": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(stiefel, "geodesic_factors")
    counted(optimizer, "product_exp")
    _, info = optimizer.step(theta, RejectFirst(obj, k), obj.loss(theta))
    assert info.halvings == k and info.step_size == 0.5**k
    assert counts == {"geodesic_factors": 1, "product_exp": k + 1}


@pytest.mark.parametrize("k", [0, 3])
def test_failed_geodesic_is_a_rejected_trial(monkeypatch, k):
    # a trial whose geodesic loses orthogonality is halved like one that
    # fails the Armijo test; it neither ends the fit nor is accepted
    S = spiked_sample_cov(8, 2, 200, 3)
    obj = objective(SampleCov(S, 200), None, 1.0)
    theta = ProductPoint(random_orthonormal(8, 2, 4), np.log([2.0, 1.0]))
    exp, left = optimizer.product_exp, [k]

    def failing(*args):
        if left[0]:
            left[0] -= 1
            raise stiefel.GeodesicError("matrix exponential lost orthogonality")
        return exp(*args)

    monkeypatch.setattr(optimizer, "product_exp", failing)
    moved, info = optimizer.step(theta, obj, obj.loss(theta))
    assert info.halvings == k and info.step_size == 0.5**k and not info.stalled
    assert info.loss == obj.loss(moved) < obj.loss(theta)


def overflowing_trial_design():
    # the first random-start restart tries a step at which every lam is
    # inf; curves with m = 2 < r = 3 then have a singular G_i
    truth = make_true_kernel("spline", [2.0, 1.0, 0.5], M_ref=5)
    return sample_dataset(truth, "sparse", 512, (1, 8), sigma2=0.25, m_bounds=(2, 6))


def test_trial_whose_loss_cannot_be_factored_is_rejected():
    res = fit(overflowing_trial_design(), make_basis(8), 3, 0.25)
    assert np.isfinite(res.params.B.B).all() and np.isfinite(res.params.lam).all()
    assert res.stop_reason == "grad-tol" and res.converged


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its calls."""
    fn, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


SPLINE_TRUTH = make_true_kernel("spline", [2.0, 1.0, 0.5], M_ref=4, seed=5)


def test_fit_started_at_the_eigenvalue_floor_reaches_interior_optimum(monkeypatch):
    # the pooled start puts lam_3 at its floor of 1e-6; Fisher scoring alone
    # stalled there for 500 iterations at loss 5.2 and over 6000 loss calls,
    # but the optimum is interior (lam about (2.19, 1.17, 0.51))
    data = sample_dataset(SPLINE_TRUTH, "sparse", 64, (1, 64, 1), sigma2=0.25, m_bounds=(4, 5))
    losses = counting(monkeypatch, model, "functional_loss")
    res = fit(data, make_basis(4), 3, 0.25, 1.0, FitConfig(restarts=1))
    assert res.stop_reason == "grad-tol" and res.converged
    assert len(losses) < 1000
    assert res.loss < 2.48
    assert res.params.lam[2] > 0.1


def duplicated_design():
    """300 sparse curves (m 2..4), each point listed twice with the same value."""
    truth = make_true_kernel("fourier", [1.0, 0.5], seed=1)
    d = sample_dataset(truth, "sparse", 300, (1, 300, 0), sigma2=0.25, m_bounds=(2, 4))
    return Dataset(t=np.repeat(d.t, 2), y=np.repeat(d.y, 2),
                   offsets=2 * d.offsets)


def assert_finite_fit(res):
    assert np.isfinite(res.params.B.B).all() and np.isfinite(res.params.lam).all()
    assert np.isfinite(res.loss) and np.isfinite(res.grad_norm)


def test_duplicated_design_times_fit_to_grad_tol():
    res = fit(duplicated_design(), make_basis(6), 2, 0.25, 1.0, FitConfig(restarts=1))
    assert_finite_fit(res)
    assert res.stop_reason == "grad-tol" and res.converged


def test_misspecified_sigma2_slides_to_a_rank_deficient_optimum():
    # sigma2 = 4 against a true 0.25: lam_2 slides towards 0 and the descent
    # stops on loss-tol, reported converged, at a gradient norm far above
    # grad_tol.  A named stop for this case is still to come.
    res = fit(duplicated_design(), make_basis(6), 2, 4.0, 1.0, FitConfig(restarts=1))
    assert_finite_fit(res)
    assert res.stop_reason == "loss-tol" and res.converged
    assert res.params.lam[1] < 1e-4 and res.grad_norm > 1e-6


# final loss of the fit below under Fisher scoring, which took 30 iterations
FISHER_LOSS_SEED1 = 2.7059911379121337


def test_curve_descent_converges_superlinearly():
    data = sample_dataset(SPLINE_TRUTH, "sparse", 2048, (1, 2048, 0), sigma2=0.25,
                          m_bounds=(2, 10))
    res = fit(data, make_basis(4), 3, 0.25, 1.0, FitConfig(restarts=1))
    assert res.stop_reason == "grad-tol"
    assert res.n_iter <= 18
    assert res.loss <= FISHER_LOSS_SEED1 + 1e-12


def fisher_direction(theta, grad, obj):
    """The population-Hessian preconditioned direction, written out."""
    theta_n = ProductPoint(theta.point, theta.zeta + np.log(obj.s) - np.log(obj.sigma2))
    dB = calculus.inv_hessian_star_B(theta_n, grad.U).scaled(-1.0)
    lam_n = theta_n.lam
    return dB, -np.minimum(((1.0 + lam_n) / lam_n) ** 2, 1e4) * grad.dzeta


FUNCTIONAL = small_functional(n=40, seed=13)


def regime_objective(regime, M, r, seed):
    """An objective of the regime with its (M, r); curve data is fixed at M=5, r=2."""
    if regime == "matrix":
        S = spiked_sample_cov(M, r, 200, seed)
        return objective(SampleCov(S, 200), None, 1.0), M, r
    basis, data, _ = FUNCTIONAL
    return objective(data, basis, 0.3), basis.M, 2


def flat_tangent(point, seed, scale=1.0):
    U = random_tangent(point, seed, scale)
    dz = np.random.default_rng(seed + 1).standard_normal(point.shape[1])
    return optimizer.CurvatureMemory.flat(stiefel.ProductTangent(U, scale * dz))


@settings(max_examples=20)
@given(regime=st.sampled_from(["matrix", "functional"]), M=st.integers(5, 9),
       r=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_empty_memory_gives_the_fisher_direction_bit_for_bit(regime, M, r, seed):
    obj, M, r = regime_objective(regime, M, r, seed)
    theta = random_product_point(M, r, seed)
    grad = obj.grad(theta)
    dB, dz = fisher_direction(theta, grad, obj)
    for memory in (None, optimizer.CurvatureMemory(5, M, r)):
        d = optimizer._direction(theta, grad, obj, memory)
        assert np.array_equal(d.U.A, dB.A) and np.array_equal(d.U.C, dB.C)
        assert np.array_equal(d.dzeta, dz)


def filled_memory(point, k, seed):
    """A memory holding k random pairs with y^T s > 0 at `point`."""
    M, r = point.shape
    memory = optimizer.CurvatureMemory(optimizer.CURVATURE_PAIRS, M, r)
    for i in range(k):
        s = flat_tangent(point, seed + 2 * i)
        y = flat_tangent(point, seed + 2 * i + 1)
        y = y if (memory.weight * y) @ s > 0.0 else -y
        memory.add(s, y)
    return memory


@settings(max_examples=25)
@given(M=st.integers(4, 9), r=st.integers(1, 3), k=st.integers(1, 7),
       seed=st.integers(0, 2**16), degenerate=st.booleans())
def test_two_loop_direction_descends_and_meets_the_secant_equation(M, r, k, seed, degenerate):
    obj, M, r = regime_objective("matrix", M, r, seed)
    theta = random_product_point(M, r, seed)
    if degenerate:  # tied eigenvalues: H0 falls back to the identity
        theta = ProductPoint(theta.point, np.zeros(r) if r > 1 else np.array([-30.0]))
        with pytest.raises(calculus.NearDegenerateError):
            calculus.inv_hessian_star_B(theta, random_tangent(theta.point, seed))
    memory = filled_memory(theta.point, k, seed)
    assert len(memory) == min(k, optimizer.CURVATURE_PAIRS)
    g = flat_tangent(theta.point, seed + 1000)
    gA, gC, gz = memory.split(g)
    grad = stiefel.ProductTangent(stiefel.TangentVector(theta.point, gA, gC), gz.copy())
    d = optimizer._direction(theta, grad, obj, memory)
    assert stiefel.product_inner(grad, d) < 0.0
    # the two-loop operator maps the newest y to the newest s
    yA, yC, yz = memory.split(memory.Y[-1])
    y_grad = stiefel.ProductTangent(stiefel.TangentVector(theta.point, yA, yC), yz.copy())
    d_y = optimizer._direction(theta, y_grad, obj, memory)
    s_row = memory.flat(d_y)
    assert np.allclose(-s_row, memory.S[-1], rtol=1e-8, atol=1e-8 * np.abs(memory.S[-1]).max())


@settings(max_examples=15)
@given(M=st.integers(4, 9), r=st.integers(1, 3), k=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_pair_without_positive_curvature_leaves_memory_unchanged(M, r, k, seed):
    point = random_orthonormal(M, r, seed)
    memory = filled_memory(point, k, seed)
    before = (memory.S.copy(), memory.Y.copy(), memory.rho.copy())
    s = flat_tangent(point, seed + 500)
    for y in (-s, np.zeros_like(s)):  # y^T s < 0 and y^T s = 0
        memory.add(s, y)
        assert all(np.array_equal(a, b) for a, b in zip(before, (memory.S, memory.Y, memory.rho)))


def test_memory_moves_with_the_base_point():
    # after a step every stored pair is tangent at the new frame, and the
    # pending step becomes the newest pair, with y the gradient difference
    theta = random_product_point(7, 3, 21)
    memory = filled_memory(theta.point, 2, 21)
    dz = np.array([1.0, -0.5, 0.25])
    step_dir = stiefel.ProductTangent(random_tangent(theta.point, 5), dz)
    zero = stiefel.TangentVector(theta.point, np.zeros((3, 3)), np.zeros((7, 3)))
    memory.remember(theta.point.B, 0.1, step_dir, stiefel.ProductTangent(zero, np.zeros(3)))
    new = stiefel.product_exp(theta, step_dir, 0.1)
    # a gradient along the step makes y^T s > 0
    g_new = stiefel.ProductTangent(stiefel.tangent_project(new.point, step_dir.U.full()), dz)
    memory.observe(new.point.B, g_new)
    assert len(memory) == 3 and memory.pending is None
    for row in np.vstack((memory.S, memory.Y)):
        A, C, _ = memory.split(row)
        assert np.array_equal(A, -A.T)
        assert np.max(np.abs(new.point.B.T @ C)) < 1e-12
    assert np.array_equal(memory.split(memory.S[-1])[2], 0.1 * dz)
    assert np.array_equal(memory.split(memory.Y[-1])[2], dz)


def test_matrix_objective_keeps_no_curvature_pairs():
    S = spiked_sample_cov(8, 2, 300, seed=8)
    assert objective(SampleCov(S, 300), None, 1.0).curvature_pairs == 0
    basis, data, _ = FUNCTIONAL
    assert objective(data, basis, 0.3).curvature_pairs == optimizer.CURVATURE_PAIRS


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


def test_init_params_shapes_and_floor():
    rng = np.random.default_rng(9)
    S = spiked_sample_cov(9, 2, 250, seed=9)
    matrix_obj = objective(SampleCov(S, 250), None, 1.0)
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
        fit(SampleCov(S, 100), None, 0, 1.0)
    with pytest.raises(ValueError):
        fit(SampleCov(S, 100), None, 7, 1.0)


def pooled_fit_reference(data, basis, r, ridge):
    """The pooled initializer as one kron per curve and one per point."""
    M = basis.M
    AtA = np.zeros((M * M, M * M))
    Atb = np.zeros(M * M)
    for c in data.curves:
        Phi = eval_basis(basis, c.times)
        P = Phi.T @ Phi
        v = Phi.T @ c.values
        AtA += np.kron(P, P)
        Atb += np.kron(v, v)
        for pj, yj in zip(Phi, c.values):
            outer = np.kron(pj, pj)
            AtA -= np.outer(outer, outer)
            Atb -= yj ** 2 * outer
    scale = max(np.trace(AtA) / (M * M), 1.0)
    AtA[np.diag_indices_from(AtA)] += ridge * scale
    C = np.linalg.solve(AtA, Atb).reshape(M, M)
    evals, evecs = np.linalg.eigh(0.5 * (C + C.T))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    B0, lam0 = canonicalize(evecs[:, :r], np.maximum(evals[:r], 1e-6))
    return B0, optimizer._strictly_decreasing(lam0)


@settings(max_examples=12)
@given(M=st.integers(4, 10), r=st.integers(1, 3), m_lo=st.integers(1, 5),
       m_span=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_pooled_initializer_matches_pairwise_reference(M, r, m_lo, m_span, seed):
    basis = make_basis(M)
    rng = np.random.default_rng(seed)
    m_hi = m_lo + m_span
    # the m_hi group alone is longer than one chunk of the accumulation
    per_m = model.CHUNK_ROWS // m_hi + 7
    ms = np.repeat(np.arange(m_lo, m_hi + 1), per_m)
    # curves y = Phi^T B xi + noise with score variances 3, 1.5, 0.6
    curve = np.repeat(np.arange(ms.size), ms)
    t = rng.uniform(0.0, 1.0, curve.size)
    scores = rng.standard_normal((ms.size, 3)) * np.sqrt([3.0, 1.5, 0.6])
    frame = random_orthonormal(M, 3, seed + 1).B
    mean = np.sum((eval_basis(basis, t) @ frame) * scores[curve], 1)
    y = mean + np.sqrt(0.2) * rng.standard_normal(curve.size)
    ends = np.cumsum(ms)[:-1]
    curves = [CurveData(times=tc, values=yc) for tc, yc in zip(np.split(t, ends), np.split(y, ends))]
    data = Dataset.functional(curves)
    batches = objective(data, basis, 0.2).batches
    point, lam = optimizer._pooled_fit_functional(batches, M, r, optimizer.INIT_RIDGE)
    B_ref, lam_ref = pooled_fit_reference(data, basis, r, optimizer.INIT_RIDGE)
    assert np.all(np.abs(lam - lam_ref) <= 1e-10 * lam_ref)
    assert np.max(np.abs(point.B - B_ref)) <= 1e-10


def test_pooled_initializer_needs_pairs():
    basis = make_basis(4)
    rng = np.random.default_rng(0)
    curves = [CurveData(times=rng.uniform(0.0, 1.0, 1), values=rng.standard_normal(1))
              for _ in range(200)]
    obj = objective(Dataset.functional(curves), basis, 0.25)
    with pytest.raises(ValueError, match="no curve has two or more observations"):
        obj.pooled_start(3)


# ------------------------------------------- the dense-design oracle


def dense_design(M, r, extra, sigma2, seed, per_group):
    """Curves drawn from the model in groups g of per_group curves, each
    with m_g = M + extra[g] points and the orthonormal design Phi_i = Q_g
    (m_g x M).  Returns their batches (P_i = I, v_i = Q_g^T y_i), S_bar =
    (1/n) sum_i Q_g^T y_i y_i^T Q_g and const = 0.5 mean_i(|y_i - Q_g Q_g^T
    y_i|^2 / sigma2 + (m_i - M) log sigma2)."""
    rng = np.random.default_rng(seed)
    B = random_orthonormal(M, r, seed + 1).B
    signal = sigma2 * np.linspace(6.0, 3.0, r)  # the truth's s * lam
    v, q, m, D, d = [], [], [], 0.0, 0.0
    S_bar, const = np.zeros((M, M)), 0.0
    for e in extra:
        Q, _ = np.linalg.qr(rng.standard_normal((M + e, M)))
        xi = rng.standard_normal((per_group, r)) * np.sqrt(signal)
        y = (xi @ B.T) @ Q.T + np.sqrt(sigma2) * rng.standard_normal((per_group, M + e))
        z = y @ Q
        S_bar += z.T @ z
        const += np.sum((y - z @ Q.T) ** 2) / sigma2 + per_group * e * np.log(sigma2)
        v.append(z)
        q.append(np.sum(y * y, axis=1))
        m += [M + e] * per_group
        K = np.einsum("ja,jb->jab", Q, Q).reshape(-1, M * M)
        D = D + per_group * (K.T @ K)
        d = d + K.T @ np.sum(y * y, axis=0)
    n = len(m)
    P = np.broadcast_to(np.eye(M), (n, M, M)).copy()
    batches = model.CurveBatches(P, np.vstack(v), np.concatenate(q), np.array(m), D, d)
    return batches, S_bar / n, 0.5 * const / n


@settings(max_examples=25)
@given(M=st.integers(3, 7), r=st.integers(1, 3),
       extra=st.lists(st.integers(0, 4), min_size=2, max_size=4),
       sigma2=st.floats(0.2, 2.0), s=st.floats(0.5, 2.0), seed=st.integers(0, 2**16))
def test_dense_design_equals_half_the_matrix_objective(M, r, extra, sigma2, s, seed):
    # with Phi_i = Q orthonormal, y_i splits into Q^T y_i, which sees the
    # matrix-regime covariance, and a residual that sees sigma2 alone
    batches, S_bar, const = dense_design(M, r, extra, sigma2, seed, per_group=200)
    fobj = optimizer.FunctionalObjective(batches, M, sigma2, s)
    mobj = optimizer.MatrixObjective(S_bar, sigma2, s)
    theta = random_product_point(M, r, seed + 2)
    want = 0.5 * mobj.loss(theta) + const
    assert abs(fobj.loss(theta) - want) <= 1e-12 * max(1.0, abs(want))
    gf, gm = fobj.grad(theta), mobj.grad(theta)
    assert np.max(np.abs(gf.U.full() - 0.5 * gm.U.full())) < 1e-10
    assert np.max(np.abs(gf.dzeta - 0.5 * gm.dzeta)) < 1e-10
    pca = pca_fit(S_bar, r, sigma2, s)
    assert fobj.grad(ProductPoint(pca.B, np.log(pca.lam))).norm() < 1e-10


def test_dense_design_descent_lands_on_the_closed_form():
    batches, S_bar, _ = dense_design(5, 3, [0, 2, 4], 0.5, seed=4, per_group=1400)
    obj = optimizer.FunctionalObjective(batches, 5, 0.5, 1.0)
    start = init_params(obj, 3, "pooled-pca", None)
    theta0 = ProductPoint(start.B, np.log(start.lam))
    theta, _, reason, _, _ = optimizer._run_descent(theta0, obj, FitConfig())
    assert reason == "grad-tol"
    B, lam = canonicalize(theta.point.B, theta.lam)
    pca = pca_fit(S_bar, 3, 0.5, 1.0)
    assert np.max(np.abs(B - pca.B.B)) < 1e-5
    assert np.max(np.abs(lam - pca.lam)) < 1e-5
