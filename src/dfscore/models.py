"""Reference likelihood surfaces with known derivatives.

These are the test beds for the generic estimators, each with its exact
score and observed information: a Gaussian location model whose artificial
posterior is conjugate, and a scalar Poisson log-link model.
"""

from __future__ import annotations

import math

import numpy as np

from .general import GeneralModel, PosteriorMoments
from .perturbation import PerturbationKernel

__all__ = [
    "gaussian_location_model",
    "gaussian_location_derivatives",
    "conjugate_posterior_moments",
    "poisson_loglink_model",
    "poisson_loglink_derivatives",
]


def gaussian_location_model(y=0.0, obs_sd: float = 1.0, dim: int = 1) -> GeneralModel:
    """Independent Gaussian observations with the parameter as location.

    ``l(theta) = sum_i -(theta_i - y_i)^2 / (2 obs_sd^2)`` plus constants;
    true score is ``(y - theta) / obs_sd^2`` and the observed information is
    ``I / obs_sd^2``.

    The squares are summed one contiguous column of the component-major
    batch at a time, so the value does not depend on the batch's layout.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    y = np.broadcast_to(np.asarray(y, dtype=np.float64), (dim,)).copy()
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if not 0.0 < obs_sd < math.inf:  # also true for NaN
        raise ValueError("obs_sd must be > 0 and finite")
    const = -0.5 * dim * math.log(2.0 * math.pi * obs_sd**2)

    def log_likelihood(thetas: np.ndarray) -> np.ndarray:
        s = thetas[:, 0] - y[0]
        s *= s
        for i in range(1, dim):
            diff = thetas[:, i] - y[i]
            diff *= diff
            s += diff
        s *= 0.5
        s /= obs_sd**2
        return np.subtract(const, s, out=s)

    return GeneralModel(dim=dim, log_likelihood=log_likelihood)


def gaussian_location_derivatives(theta, y=0.0, obs_sd: float = 1.0) -> tuple:
    """The exact (score, information) of ``gaussian_location_model``."""
    theta = np.asarray(theta, dtype=np.float64)
    return (y - theta) / obs_sd**2, np.eye(theta.size) / obs_sd**2


def conjugate_posterior_moments(
    theta, tau: float, kernel: PerturbationKernel, y=0.0, obs_sd: float = 1.0
) -> PosteriorMoments:
    """Closed-form artificial-posterior moments for the Gaussian location model.

    With prior N(theta, tau^2 sigma_i^2) per coordinate and likelihood
    N(y_i, obs_sd^2), the posterior is Gaussian with
    mean ``theta + tau^2 sigma_i^2 (y_i - theta_i) / (obs_sd^2 + tau^2 sigma_i^2)``
    and variance ``tau^2 sigma_i^2 obs_sd^2 / (obs_sd^2 + tau^2 sigma_i^2)``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    d = kernel.dim
    y = np.broadcast_to(np.asarray(y, dtype=np.float64), (d,))
    prior_var = tau**2 * kernel.variances()
    denom = obs_sd**2 + prior_var
    mean = theta + prior_var * (y - theta) / denom
    var = prior_var * obs_sd**2 / denom
    return PosteriorMoments(mean=mean, covariance=np.diag(var), ess=None, n=None)


def poisson_loglink_model(y: int) -> GeneralModel:
    """Scalar Poisson count with log-link rate: l(theta) = y theta - exp(theta).

    True score is ``y - exp(theta)``, observed information ``exp(theta)``.
    """
    if not float(y).is_integer():  # also true for NaN and inf
        raise ValueError(f"y must be an integer count, got {y!r}")
    if y < 0:
        raise ValueError("y must be a non-negative count")
    const = -math.lgamma(y + 1)

    def log_likelihood(thetas: np.ndarray) -> np.ndarray:
        t = thetas[:, 0]
        with np.errstate(over="ignore"):
            return y * t - np.exp(t) + const

    return GeneralModel(dim=1, log_likelihood=log_likelihood)


def poisson_loglink_derivatives(theta, y: int) -> tuple:
    """The exact (score, information) of ``poisson_loglink_model(y)``."""
    with np.errstate(over="ignore"):
        rate = np.exp(theta[0])
    return np.array([y - rate]), np.array([[rate]])
