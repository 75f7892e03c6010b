"""Robust image deblurring under mixed Poisson-Gaussian noise with outliers.

The package reconstructs a nonnegative image from one or more blurred,
noisy observations.  Residuals are rescaled by the signal-dependent
standard deviation of the Poisson-Gaussian model and passed through a
saturating (Talwar) loss, so corrupted measurements stop influencing
the fit instead of dominating it.  The smoothed objective is minimized
by a projected Newton method whose inner systems are solved with
preconditioned conjugate gradients entirely in the Fourier domain; the
regularization weight can be chosen automatically by generalized
cross-validation with a randomized trace estimate.
"""

from .gcv import (
    GcvEvaluation,
    GcvOptions,
    gcv_eval,
    minimize_gcv,
    rademacher_probe,
    robust_weights,
    trace_term,
    write_gcv_trace,
)
from .gridfft import (
    COUNTS,
    InverseTransformError,
    OpCounts,
    count_transforms,
    dft2,
    embed_psf,
    idft2,
    read_pgm,
    read_raw,
    write_pgm,
    write_raw,
)
from .objective import (
    BETA_95,
    ConvexityReport,
    Evaluation,
    LossFunction,
    Objective,
    chain_rule_weights,
    convexity_diagnostic,
    loss_eval,
    talwar_weights,
)
from .operators import BlurOperator, Workspace, hessian_apply, laplacian_symbol
from .precond import Preconditioner, build_dhat, precond_build
from .solver import (
    LineSearchError,
    PcgBreakdownError,
    SolverOptions,
    SolverReport,
    default_start,
    linesearch,
    projected_gradient_map,
    projected_newton,
    projected_pcg,
)
from .testbed import (
    CARBON_ASH_PSF_PARAMS,
    GaussianPsfParams,
    ProblemInstance,
    ScanPoint,
    gaussian_psf,
    inject_random_corruptions,
    lambda_scan,
    load_instance,
    make_instance,
    psf_center,
    relative_error,
    save_instance,
    simulate_data,
    synthetic_scene,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_95",
    "BlurOperator",
    "CARBON_ASH_PSF_PARAMS",
    "COUNTS",
    "ConvexityReport",
    "GaussianPsfParams",
    "GcvEvaluation",
    "GcvOptions",
    "InverseTransformError",
    "LineSearchError",
    "LossFunction",
    "Objective",
    "OpCounts",
    "PcgBreakdownError",
    "Preconditioner",
    "ProblemInstance",
    "ScanPoint",
    "SolverOptions",
    "SolverReport",
    "Workspace",
    "Evaluation",
    "build_dhat",
    "chain_rule_weights",
    "convexity_diagnostic",
    "count_transforms",
    "default_start",
    "dft2",
    "embed_psf",
    "gaussian_psf",
    "gcv_eval",
    "hessian_apply",
    "idft2",
    "inject_random_corruptions",
    "lambda_scan",
    "laplacian_symbol",
    "linesearch",
    "load_instance",
    "loss_eval",
    "make_instance",
    "minimize_gcv",
    "precond_build",
    "projected_gradient_map",
    "projected_newton",
    "projected_pcg",
    "psf_center",
    "rademacher_probe",
    "read_pgm",
    "read_raw",
    "relative_error",
    "robust_weights",
    "save_instance",
    "simulate_data",
    "synthetic_scene",
    "talwar_weights",
    "trace_term",
    "write_gcv_trace",
    "write_pgm",
    "write_raw",
]
