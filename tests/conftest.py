"""Hypothesis settings, fixtures and helpers shared by the test suite.

Examples run without a per-example deadline, because a loaded machine is
not a failure.  A failing example prints its ``@reproduce_failure`` blob,
so a log is enough to replay it.  Test modules import the plain helpers
below with ``from conftest import ...``.
"""

import numpy as np
import pytest
from hypothesis import settings

from dfscore import kernels
from dfscore.general import PosteriorMoments

settings.register_profile("dfscore", deadline=None, print_blob=True)
settings.load_profile("dfscore")


@pytest.fixture
def normalized_weights(monkeypatch):
    """A list that receives a copy of every weight vector the filter
    normalises, through ``kernels.normalize_log_weights``."""
    seen = []
    normalize = kernels.normalize_log_weights

    def recording(logw):
        w, lse = normalize(logw)
        seen.append(w.copy())
        return w, lse

    monkeypatch.setattr(kernels, "normalize_log_weights", recording)
    return seen


def conjugate_posterior_moments(theta, tau, kernel, y=0.0, obs_sd=1.0) -> PosteriorMoments:
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
