"""The failure contract's argument checks: bad input raises a ValueError that
says what is wrong, and bad output from a user callable names the callable."""

import numpy as np
import pytest

import dfscore as dfs
from dfscore.models import gaussian_location_model, poisson_loglink_model
from dfscore.smc import ExtendedFilterConfig

K1 = dfs.make_gaussian_kernel([1.0])
K2 = dfs.make_gaussian_kernel([1.0, 1.0])
RNG = np.random.default_rng
LINEAR = dfs.LinearGaussianSSM(free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0})


def chain(obs_logdensity):
    """A random-walk chain observed through ``obs_logdensity``."""
    return dfs.StateSpaceModel(
        param_dim=1,
        init_sampler=lambda t, r: r.standard_normal(t.shape[0]),
        transition_sampler=lambda x, t, r: x + r.standard_normal(x.shape[0]),
        obs_logdensity=obs_logdensity,
    )


def filter_config(n=10):
    return ExtendedFilterConfig(theta=np.zeros(1), tau=0.1, kernel=K1, lag=1, n_particles=n)


def test_obs_logdensity_of_the_wrong_shape_names_the_callable_and_the_step():
    steps = []

    def obs_logdensity(y, x, t):
        steps.append(y)
        return np.zeros(x.shape[0] - (len(steps) == 3))

    with pytest.raises(ValueError, match=r"obs_logdensity returned shape \(9,\) at step 3"):
        dfs.run_extended_bootstrap(chain(obs_logdensity), np.zeros(5), filter_config(), RNG(0))


@pytest.mark.parametrize("moments", ["is", "quadrature"])
def test_log_likelihood_of_the_wrong_shape_names_the_callable(moments):
    model = dfs.GeneralModel(dim=1, log_likelihood=lambda t: np.zeros((t.shape[0], 1)))
    with pytest.raises(ValueError, match=r"log_likelihood returned shape \(\d+, 1\)"):
        if moments == "is":
            dfs.posterior_moments_is(model, np.zeros(1), 0.1, K1, 100, RNG(0))
        else:
            dfs.posterior_moments_quadrature(model, np.zeros(1), 0.1, K1)


MOMENTS = dfs.PosteriorMoments(mean=np.zeros(1), covariance=np.eye(1))
MOMENTS2 = dfs.PosteriorMoments(mean=np.array([0.1, 0.2]), covariance=0.01 * np.eye(2))
ACC2 = dfs.FixedLagAccumulator(
    means=np.full((3, 2), 0.1), covariances=np.tile(0.01 * np.eye(2), (3, 1, 1)),
    pair_sums=np.zeros((3, 2, 2)), loglik_estimate=0.0,
    readoff_horizon=np.arange(1, 4), ess_trace=np.ones(3),
)


def moments_with_covariance(value):
    return dfs.PosteriorMoments(mean=np.zeros(1), covariance=np.full((1, 1), value))
CUBE = dfs.GeneralModel(dim=3, log_likelihood=lambda t: np.zeros(t.shape[0]))

ARGUMENT_CHECKS = {
    "filter-no-observations": (
        lambda: dfs.run_extended_bootstrap(chain(None), np.zeros(0), filter_config(), RNG(0)),
        "need at least one observation",
    ),
    "filter-kernel-dimension": (
        lambda: dfs.run_extended_bootstrap(
            LINEAR.state_space(), np.zeros(3),
            ExtendedFilterConfig(theta=np.zeros(2), tau=0.1, kernel=K2, lag=1, n_particles=10),
            RNG(0),
        ),
        "model and kernel dimensions differ",
    ),
    "moments-covariance-shape": (
        lambda: dfs.PosteriorMoments(mean=np.zeros(2), covariance=np.eye(3)),
        "covariance shape does not match mean",
    ),
    "moments-ess-above-n": (
        lambda: dfs.PosteriorMoments(mean=np.zeros(1), covariance=np.eye(1), ess=11.0, n=10),
        r"ess must lie in \[1, n\]",
    ),
    "moments-horizon-zero": (
        lambda: dfs.PosteriorMoments(mean=np.zeros(1), covariance=np.eye(1), horizon=0),
        "horizon must be >= 1",
    ),
    "quadrature-dim-above-two": (
        lambda: dfs.posterior_moments_quadrature(
            CUBE, np.zeros(3), 0.1, dfs.make_gaussian_kernel([1.0] * 3)
        ),
        "dim <= 2 only",
    ),
    "quadrature-kernel-dimension": (
        lambda: dfs.posterior_moments_quadrature(
            gaussian_location_model(dim=1), np.zeros(1), 0.1, K2
        ),
        "model and kernel dimensions differ",
    ),
    "quadrature-tau-zero": (
        lambda: dfs.posterior_moments_quadrature(
            gaussian_location_model(dim=1), np.zeros(1), 0.0, K1
        ),
        "tau must be > 0",
    ),
    "score-tau-zero": (
        lambda: dfs.score_from_moments(MOMENTS, np.zeros(1), 0.0, K1), "tau must be > 0"
    ),
    "info-tau-zero": (lambda: dfs.observed_info_from_moments(MOMENTS, 0.0, K1), "tau must be > 0"),
    "score-mean-not-finite": (
        lambda: dfs.score_from_moments(
            dfs.PosteriorMoments(mean=np.array([np.nan]), covariance=np.eye(1)), np.zeros(1),
            0.1, K1,
        ),
        "posterior mean must be finite",
    ),
    "score-theta-scalar-for-two-dimensions": (
        lambda: dfs.score_from_moments(MOMENTS2, 0.05, 0.1, K2),
        r"theta has shape \(\), posterior mean has shape \(2,\)",
    ),
    "accumulator-score-theta-shape": (
        lambda: dfs.score_from_accumulator(ACC2, np.array([0.05]), 0.1, K2),
        r"theta has shape \(1,\), posterior mean has shape \(2,\)",
    ),
    "info-covariance-nan": (
        lambda: dfs.observed_info_from_moments(moments_with_covariance(np.nan), 0.1, K1),
        "posterior covariance must be finite",
    ),
    "info-covariance-inf": (
        lambda: dfs.observed_info_from_moments(moments_with_covariance(np.inf), 0.1, K1),
        "posterior covariance must be finite",
    ),
    "fd-h-zero": (lambda: dfs.FDConfig(h=0.0, base_seed=0), "h must be > 0"),
    "kernel-center-shape": (
        lambda: K1.sample(np.zeros(2), 0.1, RNG(0)), r"center has shape \(2,\)"
    ),
    "kernel-no-stream": (lambda: K1.sample(np.zeros(1), 0.1), "either rng or z"),
    "kernel-tau-negative": (lambda: K1.sample(np.zeros(1), -0.1, RNG(0)), "tau must be >= 0"),
    "info-not-square": (lambda: dfs.InfoEstimate(np.zeros((2, 3))), "must be square"),
    "info-not-symmetric": (
        lambda: dfs.InfoEstimate(np.array([[1.0, 2.0], [3.0, 1.0]])), "exactly symmetric"
    ),
    "simulate-horizon-zero": (
        lambda: dfs.simulate(LINEAR.state_space(), np.zeros(1), 0, RNG(0)), "horizon must be >= 1"
    ),
    "free-duplicate-name": (
        lambda: dfs.LinearGaussianSSM(free=("phi", "phi"), fixed={"log_sigma_v": 0.0,
                                                                 "log_sigma_w": 0.0}),
        "duplicate names in free",
    ),
    "fixed-unknown-name": (
        lambda: dfs.LinearGaussianSSM(free=("phi", "log_sigma_v", "log_sigma_w"),
                                      fixed={"psi": 0.0}),
        "unknown parameter name 'psi'",
    ),
    "init-bogus": (lambda: dfs.LinearGaussianSSM(init="bogus"), "init must be"),
    "fixed-init-sd-zero": (
        lambda: dfs.LinearGaussianSSM(init="fixed", init_sd=0.0), "init_sd must be > 0"
    ),
    "params-theta-shape": (lambda: LINEAR.params(np.zeros(2)), r"theta must have shape \(1,\)"),
    "gaussian-obs-sd-zero": (lambda: gaussian_location_model(obs_sd=0.0), "obs_sd must be > 0"),
    "gaussian-obs-sd-nan": (
        lambda: gaussian_location_model(obs_sd=np.nan), "obs_sd must be > 0 and finite"
    ),
    "gaussian-obs-sd-inf": (
        lambda: gaussian_location_model(obs_sd=np.inf), "obs_sd must be > 0 and finite"
    ),
    "gaussian-y-not-finite": (
        lambda: gaussian_location_model(y=[0.0, np.inf], dim=2), "y must be finite"
    ),
    "gaussian-dim-zero": (lambda: gaussian_location_model(dim=0), "dim must be >= 1"),
    "poisson-negative-count": (lambda: poisson_loglink_model(-1), "non-negative count"),
    "poisson-count-nan": (lambda: poisson_loglink_model(np.nan), "integer count, got nan"),
    "poisson-count-fraction": (lambda: poisson_loglink_model(2.5), "integer count, got 2.5"),
}


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS.keys())
def test_bad_argument_raises_a_value_error_saying_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=message):
        call()
