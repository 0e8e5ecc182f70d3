"""Derivative-free score and observed-information estimation.

Perturb the parameter with a shrinking Gaussian prior, compute posterior
moments of the perturbation, and rescale them into derivative estimates.
For state-space models with sample-only dynamics the moments come from an
extended bootstrap particle filter with fixed-lag smoothing.
"""

from .general import (
    DegeneratePosteriorError,
    FDConfig,
    GeneralModel,
    PosteriorMoments,
    fd_info,
    fd_score,
    observed_info_from_moments,
    posterior_moments_is,
    posterior_moments_quadrature,
    score_from_moments,
)
from .perturbation import PerturbationKernel, make_gaussian_kernel
from .results import InfoEstimate, ScoreEstimate
from .smc import (
    ExtendedFilterConfig,
    FixedLagAccumulator,
    ParticleCollapseError,
    bootstrap_loglik,
    observed_info_from_accumulator,
    resample,
    run_extended_bootstrap,
    score_from_accumulator,
)
from .state_space import (
    KalmanDerivatives,
    LinearGaussianSSM,
    OracleAccuracyWarning,
    ParameterDomainError,
    StateSpaceModel,
    kalman_loglik,
    kalman_score_info,
    load_observations,
    make_nonlinear_shock_model,
    save_observations,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "DegeneratePosteriorError",
    "ExtendedFilterConfig",
    "FDConfig",
    "FixedLagAccumulator",
    "GeneralModel",
    "InfoEstimate",
    "KalmanDerivatives",
    "LinearGaussianSSM",
    "OracleAccuracyWarning",
    "ParameterDomainError",
    "ParticleCollapseError",
    "PerturbationKernel",
    "PosteriorMoments",
    "ScoreEstimate",
    "StateSpaceModel",
    "bootstrap_loglik",
    "fd_info",
    "fd_score",
    "kalman_loglik",
    "kalman_score_info",
    "load_observations",
    "make_gaussian_kernel",
    "make_nonlinear_shock_model",
    "observed_info_from_accumulator",
    "observed_info_from_moments",
    "posterior_moments_is",
    "posterior_moments_quadrature",
    "resample",
    "run_extended_bootstrap",
    "save_observations",
    "score_from_accumulator",
    "score_from_moments",
    "simulate",
]
