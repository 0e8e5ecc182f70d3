"""Importance-sampling estimators, FD baselines, and the quadrature oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfscore as dfs
from dfscore import kernels
from dfscore.general import DegeneratePosteriorError, FDConfig, GeneralModel, GridSpec
from dfscore.models import (
    conjugate_posterior_moments,
    gaussian_location_model,
    poisson_loglink_model,
)

THETA = np.array([1.0])
K1 = dfs.make_gaussian_kernel([1.0])


def flat_model(dim=1, c=-2.5):
    return GeneralModel(dim=dim, log_likelihood=lambda t: np.full(t.shape[0], c))


# ---------------------------------------------------------------------------
# importance-sampling moments
# ---------------------------------------------------------------------------


def test_flat_likelihood_gives_uniform_weights_exactly():
    n = 1000
    rng = np.random.default_rng(3)
    mom = dfs.posterior_moments_is(flat_model(), THETA, 0.2, K1, n, rng)
    # same draws, explicitly uniform weights: results must match bitwise
    draws = K1.sample(THETA, 0.2, np.random.default_rng(3), size=n)
    mean, cov = kernels.weighted_mean_cov(draws, np.full(n, 1.0 / n))
    assert np.array_equal(mom.mean, mean)
    assert np.array_equal(mom.covariance, cov)
    assert mom.ess == pytest.approx(n, rel=1e-12)


def test_is_moments_match_conjugate_closed_form():
    # posterior mean 1 - 0.01/1.01, variance 0.01/1.01 (theta=1, tau=0.1)
    n = 10**5
    mom = dfs.posterior_moments_is(
        gaussian_location_model(dim=1), THETA, 0.1, K1, n, np.random.default_rng(11)
    )
    exact = conjugate_posterior_moments(THETA, 0.1, K1)
    se_mean = np.sqrt(exact.covariance[0, 0] / mom.ess)
    assert abs(mom.mean[0] - exact.mean[0]) < 3 * se_mean
    assert exact.mean[0] == pytest.approx(0.9900990099009901, rel=1e-12)
    se_var = exact.covariance[0, 0] * np.sqrt(2.0 / mom.ess)
    assert abs(mom.covariance[0, 0] - exact.covariance[0, 0]) < 4 * se_var


def test_weights_sum_to_one_and_ess_bounds():
    rng = np.random.default_rng(0)
    model = gaussian_location_model(dim=2)
    mom = dfs.posterior_moments_is(
        model, np.array([0.5, -0.5]), 0.3, dfs.make_gaussian_kernel([1.0, 1.0]), 5000, rng
    )
    assert 1.0 <= mom.ess <= mom.n
    assert np.array_equal(mom.covariance, mom.covariance.T)


def test_degenerate_posterior_raises():
    model = GeneralModel(dim=1, log_likelihood=lambda t: np.full(t.shape[0], -np.inf))
    with pytest.raises(DegeneratePosteriorError):
        dfs.posterior_moments_is(model, THETA, 0.1, K1, 100, np.random.default_rng(0))


def test_is_moments_validation():
    with pytest.raises(ValueError):
        dfs.posterior_moments_is(
            flat_model(), THETA, 0.1, K1, 1, np.random.default_rng(0)
        )
    with pytest.raises(ValueError):
        dfs.posterior_moments_is(
            flat_model(dim=2), THETA, 0.1, K1, 10, np.random.default_rng(0)
        )


# ---------------------------------------------------------------------------
# score / information rescaling
# ---------------------------------------------------------------------------


def test_score_zero_when_mean_equals_center():
    mom = dfs.PosteriorMoments(mean=THETA, covariance=np.eye(1) * 0.01)
    assert dfs.score_from_moments(mom, THETA, 0.1, K1).values[0] == 0.0


def test_score_conjugate_closed_form_and_tau_shrink():
    exact = conjugate_posterior_moments(THETA, 0.1, K1)
    s = dfs.score_from_moments(exact, THETA, 0.1, K1)
    assert s.values[0] == pytest.approx(-1.0 / 1.01, rel=1e-12)
    exact5 = conjugate_posterior_moments(THETA, 0.05, K1)
    s5 = dfs.score_from_moments(exact5, THETA, 0.05, K1)
    assert s5.values[0] == pytest.approx(-1.0 / 1.0025, rel=1e-12)
    # bias shrinks by ~4x when tau halves (second-order bias)
    assert abs(s5.values[0] + 1.0) < 0.3 * abs(s.values[0] + 1.0)


def test_info_zero_when_covariance_equals_prior():
    tau = 0.2
    mom = dfs.PosteriorMoments(mean=THETA, covariance=tau**2 * K1.covariance())
    info = dfs.observed_info_from_moments(mom, tau, K1)
    assert np.all(info.values == 0.0)


def test_info_conjugate_closed_form():
    exact = conjugate_posterior_moments(THETA, 0.1, K1)
    info = dfs.observed_info_from_moments(exact, 0.1, K1)
    assert info.values[0, 0] == pytest.approx(1.0 / 1.01, rel=1e-12)


def test_info_product_model_off_diagonals_vanish():
    tau = 0.1
    k2 = dfs.make_gaussian_kernel([1.0, 1.0])
    model = gaussian_location_model(dim=2)
    mom = dfs.posterior_moments_is(
        model, np.array([1.0, -0.5]), tau, k2, 200000, np.random.default_rng(21)
    )
    info = dfs.observed_info_from_moments(mom, tau, k2)
    # independent coordinates: the off-diagonal is zero within MC error.
    # The sampled covariance's off-diagonal entry has sd v/sqrt(ess) under
    # independence, amplified by tau^-4 in the information rescaling.
    v = tau**2 / (1.0 + tau**2)
    se = v / np.sqrt(mom.ess) / tau**4
    assert abs(info.values[0, 1]) < 4 * se
    assert abs(info.values[0, 0] - 1.0) < 4 * se + 0.05
    assert np.array_equal(info.values, info.values.T)


def test_rescalers_take_only_a_matching_perturbation_kernel():
    mom = dfs.PosteriorMoments(mean=np.array([0.1, 0.2]), covariance=0.01 * np.eye(2))
    theta = np.zeros(2)
    for sigma in (np.array([1.0, 1.0]), np.eye(2), [1.0, 1.0]):
        with pytest.raises(TypeError, match="PerturbationKernel"):
            dfs.score_from_moments(mom, theta, 0.1, sigma)
        with pytest.raises(TypeError, match="PerturbationKernel"):
            dfs.observed_info_from_moments(mom, 0.1, sigma)
    # a kernel of the wrong dimension would broadcast silently
    with pytest.raises(ValueError, match="dimension"):
        dfs.score_from_moments(mom, theta, 0.1, K1)
    with pytest.raises(ValueError, match="dimension"):
        dfs.observed_info_from_moments(mom, 0.1, K1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), d=st.integers(2, 4))
def test_info_symmetric_bitwise_for_random_moments(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    mom = dfs.PosteriorMoments(mean=rng.normal(size=d), covariance=a @ a.T)
    kern = dfs.make_gaussian_kernel(rng.uniform(0.5, 2.0, size=d))
    info = dfs.observed_info_from_moments(mom, 0.3, kern)
    assert np.array_equal(info.values, info.values.T)


def test_score_equivariance_power_of_two_rescaling():
    # same seed => identical injected normals; (tau, Sigma) -> (tau/c, c^2 Sigma)
    model = gaussian_location_model(dim=1)
    for c in (2.0, 4.0, 1024.0):
        kc = dfs.make_gaussian_kernel([c])
        m1 = dfs.posterior_moments_is(model, THETA, 0.2, K1, 4000, np.random.default_rng(9))
        m2 = dfs.posterior_moments_is(model, THETA, 0.2 / c, kc, 4000, np.random.default_rng(9))
        s1 = dfs.score_from_moments(m1, THETA, 0.2, K1)
        s2 = dfs.score_from_moments(m2, THETA, 0.2 / c, kc)
        assert np.array_equal(s1.values, s2.values)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    data=st.data(),
    a=st.floats(0.1, 10.0),
    tau=st.floats(0.1, 0.5),
)
def test_is_score_equivariant_under_coordinate_rescaling(seed, d, data, a, tau):
    # theta_i -> a theta_i with sigma_i -> a sigma_i: same normals, same
    # weights up to rounding, so score component i scales by 1/a.  The
    # draws' rounding reaches the score as |theta| eps / (tau sigma)^2, so
    # tau and n keep the estimate well away from zero for a relative bound.
    i = data.draw(st.integers(0, d - 1))
    theta = np.random.default_rng(seed).uniform(1.0, 2.0, size=d)
    scale = np.ones(d)
    scale[i] = a
    model = gaussian_location_model(dim=d)
    scaled = GeneralModel(dim=d, log_likelihood=lambda t: model.log_likelihood(t / scale))
    kern = dfs.make_gaussian_kernel(np.linspace(0.8, 1.2, d))
    kern_a = dfs.make_gaussian_kernel(kern.sigmas * scale)
    m1 = dfs.posterior_moments_is(model, theta, tau, kern, 20000, np.random.default_rng(seed))
    m2 = dfs.posterior_moments_is(
        scaled, theta * scale, tau, kern_a, 20000, np.random.default_rng(seed)
    )
    s1 = dfs.score_from_moments(m1, theta, tau, kern).values
    s2 = dfs.score_from_moments(m2, theta * scale, tau, kern_a).values
    assert abs(s2[i] * a - s1[i]) <= 1e-12 * abs(s1[i])


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def quadratic(theta, rng):
    return -0.5 * float(theta @ theta)


def test_fd_exact_on_quadratics():
    cfg = FDConfig(h=0.1, base_seed=0)
    s = dfs.fd_score(quadratic, THETA, cfg)
    assert s.values[0] == pytest.approx(-1.0, abs=1e-10)
    info = dfs.fd_info(quadratic, THETA, cfg)
    assert info.values[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_fd_quartic_direct_arithmetic():
    # -(1.1^4 - 0.9^4)/0.2 = -4.04
    s = dfs.fd_score(lambda t, r: -float(t[0] ** 4), THETA, FDConfig(h=0.1, base_seed=0))
    assert s.values[0] == pytest.approx(-4.04, rel=1e-12)


def test_fd_cross_stencil_on_bilinear():
    f = lambda t, r: 2.0 * t[0] * t[1] - t[0] ** 2
    info = dfs.fd_info(f, np.array([0.3, -0.4]), FDConfig(h=0.05, base_seed=1))
    assert info.values[0, 1] == pytest.approx(-2.0, abs=1e-9)
    assert info.values[1, 0] == info.values[0, 1]
    assert info.values[0, 0] == pytest.approx(2.0, abs=1e-8)


def test_fd_uses_independent_streams_per_node():
    seen = []

    def noisy(theta, rng):
        seen.append(rng.integers(0, 2**63))
        return 0.0

    dfs.fd_score(noisy, np.array([0.0, 0.0]), FDConfig(h=0.1, base_seed=5))
    assert len(set(seen)) == len(seen)


def test_fd_propagates_nonfinite_evaluations():
    with pytest.raises(ValueError):
        dfs.fd_score(lambda t, r: float("nan"), THETA, FDConfig(h=0.1))


def _node_rng(config, k):
    return np.random.default_rng(np.random.SeedSequence((config.base_seed, k)))


def loop_fd_score(loglik, theta, config):
    """Per-coordinate reference: node pair (+e_r, -e_r) on streams 2r, 2r+1."""
    d, h = theta.size, config.h
    values = np.empty(d)
    for r in range(d):
        e = np.zeros(d)
        e[r] = h
        up = float(loglik(theta + e, _node_rng(config, 2 * r)))
        down = float(loglik(theta - e, _node_rng(config, 2 * r + 1)))
        values[r] = (up - down) / (2.0 * h)
    return values


def loop_fd_info(loglik, theta, config):
    """Per-coordinate reference: the 3-point diagonal, then the 4-point cross
    stencil for each pair r < s, streams numbered in that order."""
    d, h = theta.size, config.h
    hess = np.empty((d, d))
    k = 0
    for r in range(d):
        e = np.zeros(d)
        e[r] = h
        up = float(loglik(theta + e, _node_rng(config, k)))
        mid = float(loglik(theta, _node_rng(config, k + 1)))
        down = float(loglik(theta - e, _node_rng(config, k + 2)))
        k += 3
        hess[r, r] = (up - 2.0 * mid + down) / h**2
    for r in range(d):
        for s in range(r + 1, d):
            er = np.zeros(d)
            es = np.zeros(d)
            er[r] = h
            es[s] = h
            pp = float(loglik(theta + er + es, _node_rng(config, k)))
            pm = float(loglik(theta + er - es, _node_rng(config, k + 1)))
            mp = float(loglik(theta - er + es, _node_rng(config, k + 2)))
            mm = float(loglik(theta - er - es, _node_rng(config, k + 3)))
            k += 4
            hess[r, s] = hess[s, r] = (pp - pm - mp + mm) / (4.0 * h**2)
    return -hess


def noisy_loglik(theta, rng):
    weights = np.arange(1.0, theta.size + 1.0)
    smooth = -0.5 * float(weights @ theta**2) + float(np.sin(theta).sum())
    return smooth + 0.01 * rng.standard_normal()


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**31),
    h=st.floats(1e-4, 0.5),
    theta0=st.floats(-2.0, 2.0),
)
def test_fd_stencil_matches_per_coordinate_loops_bitwise(d, seed, h, theta0):
    theta = theta0 + np.linspace(-0.3, 0.4, d)
    cfg = FDConfig(h=h, base_seed=seed)
    score = dfs.fd_score(noisy_loglik, theta, cfg).values
    info = dfs.fd_info(noisy_loglik, theta, cfg).values
    assert np.array_equal(score, loop_fd_score(noisy_loglik, theta, cfg))
    assert np.array_equal(info, loop_fd_info(noisy_loglik, theta, cfg))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_quadrature_flat_likelihood_recovers_prior():
    mom = dfs.posterior_moments_quadrature(flat_model(), THETA, 0.2, K1)
    assert abs(mom.mean[0] - 1.0) < 1e-8
    assert abs(mom.covariance[0, 0] - 0.04) < 1e-8


def test_quadrature_matches_conjugate_closed_form():
    mom = dfs.posterior_moments_quadrature(
        gaussian_location_model(dim=1), THETA, 0.1, K1
    )
    exact = conjugate_posterior_moments(THETA, 0.1, K1)
    assert abs(mom.mean[0] - exact.mean[0]) < 1e-6
    assert abs(mom.covariance[0, 0] - exact.covariance[0, 0]) < 1e-8


def test_quadrature_poisson_score():
    # true score y - e^theta = 3 - e at theta=1
    model = poisson_loglink_model(3)
    tau = 0.05
    mom = dfs.posterior_moments_quadrature(model, THETA, tau, K1)
    score = dfs.score_from_moments(mom, THETA, tau, K1)
    assert abs(score.values[0] - (3.0 - np.e)) < 1e-2


def test_quadrature_2d_and_dim_guard():
    k2 = dfs.make_gaussian_kernel([1.0, 1.0])
    model = gaussian_location_model(dim=2)
    mom = dfs.posterior_moments_quadrature(
        model, np.array([0.5, -0.2]), 0.1, k2, GridSpec(points_per_axis=2001)
    )
    exact = conjugate_posterior_moments(np.array([0.5, -0.2]), 0.1, k2)
    np.testing.assert_allclose(mom.mean, exact.mean, atol=1e-8)
    np.testing.assert_allclose(mom.covariance, exact.covariance, atol=1e-8)

    model3 = GeneralModel(dim=3, log_likelihood=lambda t: np.zeros(t.shape[0]))
    with pytest.raises(ValueError):
        dfs.posterior_moments_quadrature(
            model3, np.zeros(3), 0.1, dfs.make_gaussian_kernel([1.0] * 3)
        )


def test_grid_spec_floors():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=500)
    with pytest.raises(ValueError):
        GridSpec(half_width_sds=4.0)


def _point_array_quadrature(model, theta, tau, kernel, grid=GridSpec()):
    # reference: every grid node as a row of an (m^d, d) point array, one
    # likelihood call and one weighted_mean_cov over all nodes
    m = grid.points_per_axis
    axes, log_trap = [], []
    for i in range(model.dim):
        half = grid.half_width_sds * tau * kernel.sigmas[i]
        axes.append(np.linspace(theta[i] - half, theta[i] + half, m))
        coeff = np.full(m, axes[i][1] - axes[i][0])
        coeff[0] *= 0.5
        coeff[-1] *= 0.5
        log_trap.append(np.log(coeff))
    if model.dim == 1:
        points = axes[0][:, None]
        logw = log_trap[0]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([g0.ravel(), g1.ravel()])
        logw = (log_trap[0][:, None] + log_trap[1][None, :]).ravel()
    z = (points - theta) / (tau * kernel.sigmas)
    log_post = model.log_likelihood(points) - 0.5 * np.sum(z * z, axis=1) + logw
    w, _ = kernels.normalize_log_weights(log_post)
    return kernels.weighted_mean_cov(points, w)


def correlated_gaussian_model(mu, precision):
    def log_likelihood(thetas):
        diff = thetas - mu
        return -0.5 * np.einsum("ni,ij,nj->n", diff, precision, diff)

    return GeneralModel(dim=len(mu), log_likelihood=log_likelihood)


@pytest.mark.parametrize(
    "model, theta, sigmas, tau",
    [
        # non-zero off-diagonal precision, so the cross term is not zero
        (
            correlated_gaussian_model(np.array([1.0, 0.4]), np.array([[2.0, 0.8], [0.8, 1.5]])),
            np.array([0.5, -0.3]),
            [1.0, 2.5],
            0.1,
        ),
        (poisson_loglink_model(3), THETA, [1.0], 0.05),
    ],
    ids=["gaussian-2d-correlated", "poisson-1d"],
)
def test_quadrature_matches_point_array_reference(model, theta, sigmas, tau):
    kernel = dfs.make_gaussian_kernel(sigmas)
    mom = dfs.posterior_moments_quadrature(model, theta, tau, kernel)
    ref_mean, ref_cov = _point_array_quadrature(model, theta, tau, kernel)
    np.testing.assert_allclose(mom.mean, ref_mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mom.covariance, ref_cov, rtol=1e-12, atol=0)
    if model.dim == 2:
        assert abs(ref_cov[0, 1]) > 1e-4
    assert mom.n == 2001**model.dim


def test_quadrature_streams_grid_in_row_blocks():
    calls = []

    def log_likelihood(thetas):
        calls.append(thetas.copy())
        return np.zeros(thetas.shape[0])

    theta = np.array([0.5, -0.2])
    kernel = dfs.make_gaussian_kernel([1.0, 2.0])
    dfs.posterior_moments_quadrature(GeneralModel(dim=2, log_likelihood=log_likelihood),
                                     theta, 0.1, kernel)
    m = GridSpec().points_per_axis
    a0 = np.linspace(0.5 - 0.8, 0.5 + 0.8, m)
    a1 = np.linspace(-0.2 - 1.6, -0.2 + 1.6, m)
    g0, g1 = np.meshgrid(a0, a1, indexing="ij")
    assert len(calls) > 1
    assert all(c.shape[0] < m * m and c.shape[0] % m == 0 for c in calls)
    np.testing.assert_array_equal(np.concatenate(calls), np.column_stack([g0.ravel(), g1.ravel()]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quadrature_bad_value_in_one_block_raises(bad):
    theta = np.array([0.5, -0.2])

    def log_likelihood(thetas):
        out = np.zeros(thetas.shape[0])
        out[thetas[:, 0] > theta[0] + 0.79] = bad  # only the last grid rows
        return out

    with pytest.raises(ValueError, match="finite values or -inf"):
        dfs.posterior_moments_quadrature(GeneralModel(dim=2, log_likelihood=log_likelihood),
                                         theta, 0.1, dfs.make_gaussian_kernel([1.0, 1.0]))


@pytest.mark.parametrize("dim", [1, 2])
def test_quadrature_all_minus_inf_is_degenerate(dim):
    model = GeneralModel(dim=dim, log_likelihood=lambda t: np.full(t.shape[0], -np.inf))
    with pytest.raises(DegeneratePosteriorError):
        dfs.posterior_moments_quadrature(model, np.zeros(dim), 0.1,
                                         dfs.make_gaussian_kernel([1.0] * dim))


def test_quadrature_2d_peak_memory_is_bounded():
    # the (m, m) float64 log-posterior matrix is 32 MB at m = 2001; a point
    # array of all m^2 nodes with its temporaries peaks near 460 MB
    model = gaussian_location_model(y=0.3, dim=2)
    kernel = dfs.make_gaussian_kernel([1.0, 2.5])
    tracemalloc.start()
    try:
        dfs.posterior_moments_quadrature(model, np.array([0.5, -0.2]), 0.1, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_is_converges_to_quadrature_moments():
    # oracle equivalence: at N=1e6 the IS mean is within 4 SE of quadrature
    model = gaussian_location_model(dim=1)
    tau = 0.1
    quad = dfs.posterior_moments_quadrature(model, THETA, tau, K1)
    mom = dfs.posterior_moments_is(model, THETA, tau, K1, 10**6, np.random.default_rng(17))
    se = np.sqrt(quad.covariance[0, 0] / mom.ess)
    assert abs(mom.mean[0] - quad.mean[0]) < 4 * se


def test_bias_order_is_second_order_in_tau():
    # |score bias| ~ tau^2 on the conjugate model with exact moments
    taus = np.array([0.4, 0.2, 0.1, 0.05])
    biases = []
    for tau in taus:
        exact = conjugate_posterior_moments(THETA, tau, K1)
        s = dfs.score_from_moments(exact, THETA, tau, K1)
        biases.append(abs(s.values[0] + 1.0))
    from dfscore.harness import fit_loglog_slope

    fit = fit_loglog_slope(taus, biases)
    assert 1.9 <= fit.slope <= 2.1
