"""REML estimation of principal components for sparse functional data
and spiked covariance matrices, by geodesic descent on the product of a
Stiefel manifold and a log-eigenvalue space."""

from .bspline import OrthoBasis, eval_basis, make_basis, project_function
from .calculus import (
    NearDegenerateError,
    grad_B,
    grad_zeta,
    hessian_B_bilinear,
    hessian_star_B_bilinear,
    hessian_zeta,
    inv_hessian_star_B,
    score_delta,
)
from .matrixcase import PcaAgreement, ScoreReport, SignalTooWeakError, pca_fit, reml_equals_pca, score_residual
from .model import (
    CurveData,
    Dataset,
    DegenerateSpectrumError,
    Kernel,
    ModelParams,
    SampleCov,
    canonicalize,
    kernel_from_params,
    kernel_l2_distance,
    kl_divergence,
    marginal_cov,
    optimal_parameter,
)
from .optimizer import FitConfig, FitResult, FunctionalObjective, MatrixObjective, fit, init_params, normalized_point, objective, step
from .sim import (
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
from .stiefel import (
    ProductPoint,
    ProductTangent,
    StiefelPoint,
    TangentVector,
    canonical_inner,
    exp_map,
    intrinsic_grad,
    product_inner,
    skew_exp,
    tangent_project,
)

__version__ = "0.1.0"
