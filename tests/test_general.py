"""Importance-sampling estimators, FD baselines, and the quadrature oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfscore as dfs
from dfscore import kernels
from dfscore.general import DegeneratePosteriorError, FDConfig, GeneralModel
from dfscore.models import gaussian_location_model, poisson_loglink_model

from conftest import conjugate_posterior_moments

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


_BLOCK = kernels._BLOCK_ROWS


def noisy_location_model(dim, rng):
    """Gaussian location log-likelihood plus noise drawn from ``rng``, so a
    likelihood call moves the same generator as the prior draws."""
    exact = gaussian_location_model(y=0.3, dim=dim)
    return GeneralModel(
        dim=dim,
        log_likelihood=lambda t: exact.log_likelihood(t) + 0.1 * rng.standard_normal(t.shape[0]),
    )


@settings(max_examples=15)
@given(
    n=st.sampled_from([2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7, 3 * _BLOCK]),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_is_matches_one_whole_array_pass(n, d, seed):
    # the reference draws all n rows at once, makes one likelihood call on
    # them and weights them in one pass; the blocked draws and calls must
    # reproduce it bit for bit at every n, since both end in the same moment
    # kernel (checked against the whole-array formula in test_kernels), and
    # leave the generator in the same state
    theta = np.linspace(-0.5, 0.5, d)
    kernel = dfs.make_gaussian_kernel(np.linspace(1.0, 2.5, d))
    rng = np.random.default_rng(seed)
    mom = dfs.posterior_moments_is(noisy_location_model(d, rng), theta, 0.1, kernel, n, rng)

    ref_rng = np.random.default_rng(seed)
    thetas = kernel.sample(theta, 0.1, ref_rng, size=n)
    logl = noisy_location_model(d, ref_rng).log_likelihood(thetas)
    w, _ = kernels.normalize_log_weights(logl)
    mean, cov = kernels.weighted_mean_cov(thetas, w)
    assert np.array_equal(mom.mean, mean)
    assert np.array_equal(mom.covariance, cov)
    assert mom.ess == min(max(1.0 / float(w @ w), 1.0), float(n))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_is_temporaries_are_block_sized():
    # past the block size the peak is the (d, n) draws and the (n,)
    # log-likelihood, which the weights overwrite, plus block-sized temporaries
    n, d = 16 * _BLOCK, 2
    model = gaussian_location_model(dim=d)
    kernel = dfs.make_gaussian_kernel([1.0, 2.5])
    tracemalloc.start()
    try:
        dfs.posterior_moments_is(model, np.zeros(d), 0.1, kernel, n, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (d + 1) * 8 * n + 8 * d * 8 * _BLOCK


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
    mom = dfs.PosteriorMoments(mean=THETA, covariance=tau**2 * np.diag(K1.variances()))
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


@settings(max_examples=40)
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


@settings(max_examples=30)
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
        dfs.fd_score(lambda t, r: float("nan"), THETA, FDConfig(h=0.1, base_seed=0))


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


@settings(max_examples=40)
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
    mom = dfs.posterior_moments_quadrature(model, np.array([0.5, -0.2]), 0.1, k2)
    exact = conjugate_posterior_moments(np.array([0.5, -0.2]), 0.1, k2)
    np.testing.assert_allclose(mom.mean, exact.mean, atol=1e-8)
    np.testing.assert_allclose(mom.covariance, exact.covariance, atol=1e-8)

    model3 = GeneralModel(dim=3, log_likelihood=lambda t: np.zeros(t.shape[0]))
    with pytest.raises(ValueError):
        dfs.posterior_moments_quadrature(
            model3, np.zeros(3), 0.1, dfs.make_gaussian_kernel([1.0] * 3)
        )


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_location_likelihood_bits_do_not_depend_on_layout(d):
    rng = np.random.default_rng(d)
    y, obs_sd = rng.normal(size=d), 0.7
    model = gaussian_location_model(y=y, obs_sd=obs_sd, dim=d)
    component_major = 3.0 * rng.normal(size=(d, 1001))
    thetas = component_major.T
    got = model.log_likelihood(thetas)
    # the expression the column-wise sum replaced, on the layout dfscore passes
    const = -0.5 * d * math.log(2.0 * math.pi * obs_sd**2)
    diff = thetas - y
    assert np.array_equal(got, const - 0.5 * np.sum(diff * diff, axis=1) / obs_sd**2)
    rows = np.ascontiguousarray(thetas)
    assert np.array_equal(model.log_likelihood(rows), got)
    assert np.array_equal(model.log_likelihood(rows[3:900:7]), got[3:900:7])
    assert np.array_equal(model.log_likelihood(thetas[::-2]), got[::-2])


def test_quadrature_2d_conjugate_bits_are_pinned():
    # float reprs of the 2-D quadrature's output, recorded before the
    # column-wise likelihood and the reused node block; both must keep them
    model = gaussian_location_model(y=[0.3, -0.7], obs_sd=1.0, dim=2)
    kernel = dfs.make_gaussian_kernel([1.0, 2.5])
    mom = dfs.posterior_moments_quadrature(model, np.array([0.5, -0.2]), 0.1, kernel)
    assert mom.mean.tolist() == [0.49801980198019813, -0.229411764705882]
    assert mom.covariance.tolist() == [
        [0.009900990099009311, 9.619861369400736e-20],
        [9.619861369400736e-20, 0.058823529411763706],
    ]


def _point_array_quadrature(model, theta, tau, kernel):
    # reference: every node of the 2001-point, +-8 prior SD grid as a row of
    # an (m^d, d) point array, one likelihood call and one weighted_mean_cov
    m = 2001
    axes, log_trap = [], []
    for i in range(model.dim):
        half = 8.0 * tau * kernel.sigmas[i]
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


def _running_shift_model(drop):
    # on the grid of theta = (0.5, -0.3), tau = 0.1, sigma0 = 1 the 16-row
    # blocks arrive in row order: the first block is all -inf, the next third
    # of the rows sit `drop` nats below a correlated Gaussian, and one block in
    # the middle of the peak region is all -inf, so the shift starts at -inf,
    # rises through the low rows, jumps at the Gaussian and keeps rising
    # towards its peak
    m, rows = 2001, 16
    lo, step = 0.5 - 0.8, 1.6 / (m - 1)
    gaussian = correlated_gaussian_model(np.array([0.55, -0.1]), np.array([[60.0, 25.0], [25.0, 30.0]]))

    def log_likelihood(thetas):
        row = np.rint((thetas[:, 0] - lo) / step).astype(int)
        out = gaussian.log_likelihood(thetas)
        out[row < m // 3] -= drop
        out[(row < rows) | ((row >= 62 * rows) & (row < 63 * rows))] = -np.inf
        return out

    return GeneralModel(dim=2, log_likelihood=log_likelihood)


def _assert_matches_point_array(model, theta, tau, kernel):
    mom = dfs.posterior_moments_quadrature(model, theta, tau, kernel)
    ref_mean, ref_cov = _point_array_quadrature(model, theta, tau, kernel)
    np.testing.assert_allclose(mom.mean, ref_mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mom.covariance, ref_cov, rtol=1e-12, atol=0)
    return mom, ref_cov


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
        (_running_shift_model(5.0), np.array([0.5, -0.3]), [1.0, 2.5], 0.1),
        (_running_shift_model(1000.0), np.array([0.5, -0.3]), [1.0, 2.5], 0.1),
    ],
    ids=["gaussian-2d-correlated", "poisson-1d", "running-shift-5", "running-shift-1000"],
)
def test_quadrature_matches_point_array_reference(model, theta, sigmas, tau):
    kernel = dfs.make_gaussian_kernel(sigmas)
    mom, ref_cov = _assert_matches_point_array(model, theta, tau, kernel)
    if model.dim == 2:
        assert abs(ref_cov[0, 1]) > 1e-4
    assert mom.n == 2001**model.dim


@settings(max_examples=8)
@given(
    signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    size=st.tuples(st.floats(1.0, 3.0), st.floats(1.0, 3.0)),
    offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    strength=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    rho=st.floats(0.3, 0.9),
    rho_sign=st.sampled_from([-1.0, 1.0]),
    sigmas=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    tau=st.floats(0.02, 0.3),
)
def test_quadrature_random_correlated_gaussians_match_point_array_reference(
    signs, size, offset, strength, rho, rho_sign, sigmas, tau
):
    # the likelihood's centre sits within one prior SD of theta and its
    # precision is 0.2-5 times the prior's, with |correlation| >= 0.3, so
    # the posterior lies well inside the grid and no mean or covariance
    # entry is near zero, which a relative bound needs
    theta = np.array(signs) * np.array(size)
    prior_sd = tau * np.array(sigmas)
    sd = prior_sd / np.sqrt(np.array(strength))
    cov = np.array([[1.0, rho_sign * rho], [rho_sign * rho, 1.0]]) * np.outer(sd, sd)
    model = correlated_gaussian_model(theta + np.array(offset) * prior_sd, np.linalg.inv(cov))
    _assert_matches_point_array(model, theta, tau, dfs.make_gaussian_kernel(sigmas))


def test_quadrature_1d_is_one_max_shifted_pass_bitwise():
    # the 1-D grid goes to the likelihood in one call and is weighted by one
    # max-shifted exponentiation of the whole log-posterior vector
    model, theta, tau, sigma = poisson_loglink_model(3), THETA, 0.05, 1.3
    mom = dfs.posterior_moments_quadrature(model, theta, tau, dfs.make_gaussian_kernel([sigma]))
    scale = tau * sigma
    axis = np.linspace(theta[0] - 8.0 * scale, theta[0] + 8.0 * scale, 2001)
    coeff = np.full(2001, axis[1] - axis[0])
    coeff[0] *= 0.5
    coeff[-1] *= 0.5
    z = (axis - theta[0]) / scale
    log_post = model.log_likelihood(axis[:, None]) + (np.log(coeff) - 0.5 * z * z)
    weights = np.exp(log_post - np.max(log_post))
    p = weights / weights.sum()
    mean = p @ axis
    dev = axis - mean
    assert np.array_equal(mom.mean, [mean])
    assert np.array_equal(mom.covariance, [[p @ (dev * dev)]])


def test_quadrature_streams_grid_in_row_blocks():
    calls = []

    def log_likelihood(thetas):
        calls.append(thetas.copy())
        return np.zeros(thetas.shape[0])

    theta = np.array([0.5, -0.2])
    kernel = dfs.make_gaussian_kernel([1.0, 2.0])
    dfs.posterior_moments_quadrature(GeneralModel(dim=2, log_likelihood=log_likelihood),
                                     theta, 0.1, kernel)
    m = 2001
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
    # the streamed sums hold O(m) floats besides one 16-row block (a few
    # 0.5 MB arrays); an (m, m) float64 log-posterior matrix would be 32 MB
    # at m = 2001, and a point array of all m^2 nodes peaks near 460 MB
    model = gaussian_location_model(y=0.3, dim=2)
    kernel = dfs.make_gaussian_kernel([1.0, 2.5])
    tracemalloc.start()
    try:
        dfs.posterior_moments_quadrature(model, np.array([0.5, -0.2]), 0.1, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
