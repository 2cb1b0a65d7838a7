"""Simulation harness: truths, sampling, schedules, experiments, oracles."""

import dataclasses

import numpy as np
import pytest

from remlpc import sim
from remlpc.bspline import make_basis
from remlpc.sim import (
    ExperimentConfig,
    design_concentration,
    eigen_inequality_check,
    inequality_oracles,
    kl_ellipsoid_scan,
    loglog_slope,
    make_true_kernel,
    random_frame,
    rate_experiment,
    sample_dataset,
    schedule_M,
    score_experiment,
)
from remlpc.model import ModelParams, SampleCov


TINY_MATRIX = ExperimentConfig(
    regime="matrix", n_grid=(64, 128), replicates=3, r=2, base_seed=1,
    truth={"M": 8, "eigenvalues": [3.0, 1.0], "frame_seed": 1},
)


def test_true_kernel_families():
    four = make_true_kernel("fourier", [2.0, 1.0, 0.5], seed=0)
    assert four.check_orthonormal() < 1e-10
    spl = make_true_kernel("spline", [2.0, 1.0], M_ref=5, seed=1)
    # global quadrature over the piecewise-cubic kinks limits resolution
    assert spl.check_orthonormal() < 1e-8
    with pytest.raises(ValueError):
        make_true_kernel("spline", [3.0, 2.0, 1.0, 0.5, 0.1], M_ref=4)
    with pytest.raises(ValueError):
        make_true_kernel("wavelet", [1.0])


def test_sample_dataset_shapes_and_determinism():
    truth = make_true_kernel("fourier", [2.0, 1.0], seed=2)
    d1 = sample_dataset(truth, "sparse", 30, (9, 30, 0), sigma2=0.5, m_bounds=(4, 6))
    d2 = sample_dataset(truth, "sparse", 30, (9, 30, 0), sigma2=0.5, m_bounds=(4, 6))
    assert d1.n == 30
    for a, b in zip(d1.curves, d2.curves):
        assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)
        assert 4 <= a.m <= 6
    d3 = sample_dataset(truth, "sparse", 30, (9, 30, 1), sigma2=0.5, m_bounds=(4, 6))
    assert not np.array_equal(d1.curves[0].values, d3.curves[0].values)


def test_sample_dataset_dense_and_matrix():
    truth = make_true_kernel("fourier", [2.0, 1.0], seed=3)
    dense = sample_dataset(truth, "dense", 5, (1, 5, 0), m=25)
    assert all(c.m == 25 for c in dense.curves)
    star = ModelParams(M=6, r=2, B=random_frame(6, 2, 4),
                       lam=np.array([3.0, 1.0]), sigma2=1.0)
    mat = sample_dataset(star, "matrix", 200, (2, 200, 0))
    assert isinstance(mat, SampleCov) and mat.cov.shape == (6, 6) and mat.n == 200
    evals = np.linalg.eigvalsh(mat.cov)
    assert evals.min() > 0.0


def test_sparse_regime_needs_bounds():
    truth = make_true_kernel("fourier", [1.0], seed=4)
    with pytest.raises(ValueError):
        sample_dataset(truth, "sparse", 5, (0, 5, 0))
    with pytest.raises(ValueError):
        sample_dataset(truth, "dense", 5, (0, 5, 0))


@pytest.mark.parametrize("seed", range(6))
def test_bad_curve_sizes_fail_before_any_draw(seed):
    # (0, 12) once passed at some seeds and failed at others, depending on
    # whether a zero count was drawn
    truth = make_true_kernel("fourier", [1.0], seed=4)
    for bounds in ((0, 12), (5, 3), (-1, 2)):
        with pytest.raises(ValueError, match="m_bounds"):
            sample_dataset(truth, "sparse", 4, (seed, 4, 0), m_bounds=bounds)
    with pytest.raises(ValueError, match="needs m >= 1"):
        sample_dataset(truth, "dense", 4, (seed, 4, 0), m=0)


def test_basis_dimension_schedules():
    assert schedule_M({"kind": "fixed", "M": 10}, 999) == 10
    # slow growth with a floor at the cubic minimum
    assert schedule_M({"kind": "ninth-root", "c": 2.0}, 128) == 4
    assert schedule_M({"kind": "ninth-root", "c": 2.0}, 10**6) == 7
    assert schedule_M({"kind": "ninth-root", "c": 6.0}, 4096) == 12
    with pytest.raises(ValueError):
        schedule_M({"kind": "hyperbolic"}, 100)


def test_experiment_config_roundtrip():
    cfg = ExperimentConfig(
        regime="sparse", n_grid=(32, 64), replicates=2, r=2, base_seed=3,
        sigma2=0.25, m_bounds=(4, 5), M_schedule={"kind": "fixed", "M": 6},
        truth={"family": "fourier", "eigenvalues": [2.0, 1.0], "seed": 1},
    )
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("n_grid", [(64,), (64, 64)])
def test_rate_experiment_rejects_one_n_before_fitting(monkeypatch, n_grid):
    fits = []
    monkeypatch.setattr(sim.optimizer, "fit", lambda *a, **k: fits.append(a))
    cfg = dataclasses.replace(TINY_MATRIX, n_grid=n_grid)
    with pytest.raises(ValueError, match="two distinct n in n_grid"):
        rate_experiment(cfg)
    assert fits == []


def test_loglog_slope_recovers_power_law():
    ns = np.array([100, 200, 400, 800])
    slope, se = loglog_slope(ns, 3.0 * ns ** -0.5)
    assert abs(slope + 0.5) < 1e-12
    assert se < 1e-12


def test_rate_experiment_rows_and_thread_invariance():
    r1 = rate_experiment(TINY_MATRIX, threads=1)
    r2 = rate_experiment(TINY_MATRIX, threads=3)
    assert r1.rows == r2.rows
    assert len(r1.rows) == 2 * 3
    assert set(r1.rows[0]) >= {"n", "replicate", "M", "converged", "frame_error",
                               "eigenvalue_error"}
    assert set(r1.slopes) == {"frame_error", "eigenvalue_error"}
    for n in TINY_MATRIX.n_grid:
        assert (n, "frame_error") in r1.medians


def test_rate_experiment_sparse_reports_kernel_error():
    cfg = ExperimentConfig(
        regime="sparse", n_grid=(40, 80), replicates=2, r=1, base_seed=5,
        sigma2=0.25, m_bounds=(4, 5), M_schedule={"kind": "fixed", "M": 4},
        truth={"family": "spline", "eigenvalues": [2.0], "M_ref": 4, "seed": 2},
    )
    rr = rate_experiment(cfg, threads=2)
    assert all("kernel_l2" in row for row in rr.rows)
    assert all(row["converged"] for row in rr.rows)
    assert set(rr.betas) == {40, 80}
    assert max(rr.betas.values()) < 1e-10  # truth lives inside the model space


def test_score_experiment_outputs():
    sr = score_experiment(TINY_MATRIX, threads=1)
    assert sr.max_delta_consistency < 1e-12
    assert sr.ratio_residual >= 1.0 and sr.ratio_error >= 1.0
    with pytest.raises(ValueError):
        score_experiment(ExperimentConfig(
            regime="sparse", n_grid=(16,), replicates=1, r=1, m_bounds=(4, 5),
            truth={"family": "fourier", "eigenvalues": [1.0]}), threads=1)


def test_kl_scan_quadratic_behaviour():
    p = ModelParams(M=8, r=2, B=random_frame(8, 2, 3), lam=np.array([2.0, 1.0]),
                    sigma2=1.0, s=1.0)
    res = kl_ellipsoid_scan(p, [1e-3, 3e-3], n_directions=40, seed=1)
    assert np.asarray(res.ratios).shape == (2, 40)
    assert np.all(np.asarray(res.ratios) > 0.0)
    assert res.stability < 0.05  # ratios barely move between tiny radii
    with pytest.raises(ValueError):
        kl_ellipsoid_scan(p, [0.5], n_directions=4, seed=0)


def test_design_concentration_improves_with_m():
    basis = make_basis(6)
    small = design_concentration(basis, n=40, m=20, seed=0)
    big = design_concentration(basis, n=40, m=500, seed=0)
    assert big.max_dev_full < small.max_dev_full
    assert small.sup_squared_norm_ratio <= 10.0
    assert big.sup_squared_norm_ratio <= 10.0
    framed = design_concentration(basis, n=20, m=50, seed=1, B=random_frame(6, 2, 2).B)
    assert framed.max_dev_frame <= framed.max_dev_full + 1e-12


def test_eigen_inequality_check_diagonal_case():
    A = np.diag([2.0, 1.0])
    E = np.diag([0.3, 0.0])
    out = eigen_inequality_check(A, E)
    # diagonal perturbation makes the eigenvalue-shift bound tight
    assert abs(out["weilandt_margin"]) < 1e-12
    assert out["vector_margin"] > 0.0


def test_inequality_oracles_bulk():
    rep = inequality_oracles(200, 6, seed=1)
    assert rep.trials == 200
    assert rep.weilandt_violations == 0
    assert rep.vector_violations == 0
    assert rep.min_weilandt_margin > -1e-12
    assert rep.min_vector_margin > -1e-12
