"""Extended bootstrap filter, fixed-lag accumulation, and estimator assembly."""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfscore as dfs
from dfscore import kernels
from dfscore.harness import fit_loglog_slope
from dfscore.models import gaussian_location_model
from dfscore.smc import RESAMPLING_SCHEMES, ExtendedFilterConfig, ParticleCollapseError, resample

K1 = dfs.make_gaussian_kernel([1.0])


def lgssm_phi(sw=1.0, init="fixed"):
    return dfs.LinearGaussianSSM(
        free=("phi",),
        fixed={"log_sigma_v": 0.0, "log_sigma_w": float(np.log(sw))},
        init=init,
        init_sd=1.0,
    )


def flat_ssm(c=-1.3):
    """Latent chain whose observation density is a constant."""
    return dfs.StateSpaceModel(
        param_dim=1,
        init_sampler=lambda t, r: r.standard_normal(t.shape[0]),
        transition_sampler=lambda x, t, r: x + r.standard_normal(x.shape[0]),
        obs_logdensity=lambda y, x, t: np.full(x.shape[0], c),
        obs_sampler=lambda x, t, r: x,
    )


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def test_resample_one_hot_weights():
    w = np.zeros(10)
    w[3] = 1.0
    for scheme in ("multinomial", "systematic"):
        idx = resample(w, scheme, np.random.default_rng(0))
        assert np.all(idx == 3)


def test_systematic_uniform_weights_keep_everyone():
    n = 64
    idx = resample(np.full(n, 1.0 / n), "systematic", np.random.default_rng(1))
    np.testing.assert_array_equal(np.sort(idx), np.arange(n))


def test_multinomial_offspring_fractions():
    w = np.array([0.75, 0.25])
    n = 10**5
    big = resample(np.tile(w, n // 2) / (n // 2), "multinomial", np.random.default_rng(2))
    frac_even = np.mean(big % 2 == 0)
    se = np.sqrt(0.75 * 0.25 / n)
    assert abs(frac_even - 0.75) < 4 * se


@pytest.mark.parametrize(
    "weights, message",
    [
        ([0.5, np.nan, 0.5], "finite and non-negative"),
        ([0.5, np.inf, 0.5], "finite and non-negative"),
        ([0.5, -np.inf, 0.5], "finite and non-negative"),
        ([0.5, -0.25, 0.5], "finite and non-negative"),
        ([0.0, 0.0, 0.0], "positive sum"),
    ],
    ids=["nan", "inf", "minus-inf", "negative", "zero-sum"],
)
def test_resample_weight_checks_name_the_fault(weights, message):
    for scheme in RESAMPLING_SCHEMES:
        with pytest.raises(ValueError, match=f"weights must (be|have) {message}"):
            resample(np.array(weights), scheme, np.random.default_rng(0))


def test_resample_rejects_bad_weights():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        resample(np.zeros(4), "multinomial", rng)
    with pytest.raises(ValueError):
        resample(np.array([0.5, -0.5]), "multinomial", rng)
    with pytest.raises(ValueError):
        resample(np.array([0.5, 0.5]), "stratified-nope", rng)


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
def test_ancestors_are_nondecreasing(scheme):
    rng = np.random.default_rng(5)
    for n in (2, 7, 100, 5000):
        for _ in range(20):
            w = rng.gamma(0.3, size=n)
            w[rng.random(n) < 0.2] = 0.0
            if w.sum() == 0.0:
                w[0] = 1.0
            idx = resample(w, scheme, rng)
            assert idx.shape == (n,)
            assert np.all(np.diff(idx) >= 0)
            assert np.all(w[idx] > 0.0)


_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=300
).filter(any)


@settings(max_examples=60)
@given(
    weights=_WEIGHTS,
    scheme=st.sampled_from(["multinomial", "systematic"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_resample_offspring_properties(weights, scheme, seed):
    w = np.array(weights)
    n = w.size
    idx = resample(w, scheme, np.random.default_rng(seed))
    assert idx.shape == (n,)
    assert np.all(np.diff(idx) >= 0)
    assert np.all(w[idx] > 0.0)
    counts = np.bincount(idx, minlength=n)
    assert counts.sum() == n
    if scheme == "systematic":
        # floor or ceil of n w_i, up to round-off in the cumulative weights
        assert np.all(np.abs(counts - n * w / w.sum()) <= 1.0 + 1e-9)


def test_multinomial_offspring_count_variance():
    # four heavy particles and 96 light ones; the heavy offspring counts
    # are Binomial(n, w_i), with variance n w_i (1 - w_i) between 4.75 and
    # 16, while systematic counts only take the two integers around n w_i
    n, reps = 100, 4000
    heavy = np.array([0.1, 0.15, 0.2, 0.05])
    w = np.concatenate([heavy, np.full(n - 4, (1.0 - heavy.sum()) / (n - 4))])
    counts = {}
    for scheme in ("multinomial", "systematic"):
        rng = np.random.default_rng(12)
        counts[scheme] = np.array(
            [np.bincount(resample(w, scheme, rng), minlength=n)[:4] for _ in range(reps)]
        )
    var = n * heavy * (1.0 - heavy)
    mu4 = var * (1.0 + 3.0 * (n - 2) * heavy * (1.0 - heavy))  # binomial 4th central moment
    se = np.sqrt(mu4 / reps - var**2 * (reps - 3) / (reps * (reps - 1)))
    sample_var = counts["multinomial"].var(axis=0, ddof=1)
    assert np.all(np.abs(sample_var - var) < 4.0 * se)
    np.testing.assert_allclose(counts["multinomial"].mean(axis=0), n * heavy, rtol=0.02)
    spread = counts["systematic"].max(axis=0) - counts["systematic"].min(axis=0)
    assert np.all(spread <= 1)
    assert np.all(counts["systematic"].var(axis=0, ddof=1) < 1.0)


# ---------------------------------------------------------------------------
# filter behavior
# ---------------------------------------------------------------------------


def test_flat_observation_density_gives_uniform_weights_bitwise(normalized_weights):
    n = 48
    seen = normalized_weights
    cfg = ExtendedFilterConfig(theta=np.array([0.2]), tau=0.1, kernel=K1, lag=2, n_particles=n)
    dfs.run_extended_bootstrap(flat_ssm(), np.zeros(6), cfg, rng=np.random.default_rng(0))
    assert len(seen) == 6
    for w in seen:
        assert np.all(w == 1.0 / n)


def test_flat_likelihood_means_are_plain_prior_averages():
    # uniform weights: read-off means are plain averages of fresh kernel
    # draws; pooled over time they sit within 4 SE of the center
    theta = np.array([0.7])
    tau, n, horizon = 0.2, 500, 40
    cfg = ExtendedFilterConfig(theta=theta, tau=tau, kernel=K1, lag=0, n_particles=n)
    acc = dfs.run_extended_bootstrap(flat_ssm(), np.zeros(horizon), cfg, rng=np.random.default_rng(9))
    pooled = acc.means.mean()
    se = tau / np.sqrt(n * horizon)
    assert abs(pooled - 0.7) < 4 * se
    np.testing.assert_allclose(acc.ess_trace, n, rtol=1e-9)


def test_single_step_filter_matches_is_moments_bitwise():
    # T=1, lag=0: with a shared stream the filter's read-off equals the
    # importance-sampling moments on the integrated single-observation model,
    # also past the block size, where IS draws and calls the likelihood in
    # two blocks
    spec = lgssm_phi(sw=0.8)
    ssm = spec.state_space()
    y0 = 0.45
    theta = np.array([0.6])
    tau = 0.1

    for n in (4096, kernels._BLOCK_ROWS + 3):
        cfg = ExtendedFilterConfig(theta=theta, tau=tau, kernel=K1, lag=0, n_particles=n)
        acc = dfs.run_extended_bootstrap(ssm, np.array([y0]), cfg, rng=np.random.default_rng(77))

        rng_is = np.random.default_rng(77)
        model = dfs.GeneralModel(
            dim=1,
            log_likelihood=lambda thetas: ssm.obs_logdensity(
                y0, ssm.init_sampler(thetas, rng_is), thetas
            ),
        )
        mom = dfs.posterior_moments_is(model, theta, tau, K1, n, rng_is)
        assert np.array_equal(acc.means[0], mom.mean)
        assert np.array_equal(acc.covariances[0], mom.covariance)
        s_acc = dfs.score_from_accumulator(acc, theta, tau, K1)
        s_mom = dfs.score_from_moments(mom, theta, tau, K1)
        assert np.array_equal(s_acc.values, s_mom.values)


def exact_two_step_moments(spec, ys, theta, taueff, sw):
    """Quadrature posterior moments of (phi_1, phi_2) at horizons 1 and 2.

    Stationary init makes phi_1 enter the first observation's variance, so
    the two read-off horizons genuinely differ.
    """
    y1, y2 = ys
    n = 401
    ax = np.linspace(theta - 8 * taueff, theta + 8 * taueff, n)
    step = ax[1] - ax[0]
    trap = np.full(n, step)
    trap[0] *= 0.5
    trap[-1] *= 0.5

    v1 = 1.0 / (1.0 - ax**2)
    s1 = v1 + sw**2
    ll1 = -0.5 * (np.log(2 * np.pi * s1) + y1**2 / s1)
    lp = -0.5 * ((ax - theta) / taueff) ** 2
    w1 = np.exp(ll1 + lp - (ll1 + lp).max()) * trap
    w1 /= w1.sum()
    e1_h1 = w1 @ ax
    v1_h1 = w1 @ (ax - e1_h1) ** 2

    p1, p2 = np.meshgrid(ax, ax, indexing="ij")
    var1 = 1.0 / (1.0 - p1**2)
    var2 = p2**2 * var1 + 1.0
    c12 = p2 * var1
    a11 = var1 + sw**2
    a22 = var2 + sw**2
    det = a11 * a22 - c12**2
    quad = (a22 * y1**2 - 2 * c12 * y1 * y2 + a11 * y2**2) / det
    ll2 = -0.5 * (2 * np.log(2 * np.pi) + np.log(det) + quad)
    lpg = -0.5 * ((p1 - theta) ** 2 + (p2 - theta) ** 2) / taueff**2
    wg = np.exp(ll2 + lpg - (ll2 + lpg).max()) * np.outer(trap, trap)
    wg /= wg.sum()
    e1_h2 = (wg * p1).sum()
    e2_h2 = (wg * p2).sum()
    return {
        "e1_h1": e1_h1,
        "v1_h1": v1_h1,
        "e1_h2": e1_h2,
        "e2_h2": e2_h2,
        "v1_h2": (wg * (p1 - e1_h2) ** 2).sum(),
        "v2_h2": (wg * (p2 - e2_h2) ** 2).sum(),
        "c_h2": (wg * (p1 - e1_h2) * (p2 - e2_h2)).sum(),
    }


def test_fixed_lag_readoffs_match_exact_quadrature():
    # the strongest correctness check: exact extended-model posterior
    # moments at both read-off horizons vs the filter at large N
    sw, theta, tau = 0.7, 0.5, 0.05
    spec = lgssm_phi(sw=sw, init="stationary")
    ssm = spec.state_space()
    _, ys = dfs.simulate(ssm, np.array([theta]), 2, np.random.default_rng(2))
    q = exact_two_step_moments(spec, ys, theta, tau, sw)
    tt = tau**2  # tau^2 * Sigma with unit kernel sigma
    exact = {
        0: (
            (q["e1_h1"] + q["e2_h2"] - 2 * theta) / tt,
            -(q["v1_h1"] + q["v2_h2"] - 2 * tt) / tt**2,
        ),
        1: (
            (q["e1_h2"] + q["e2_h2"] - 2 * theta) / tt,
            -(q["v1_h2"] + q["v2_h2"] + 2 * q["c_h2"] - 2 * tt) / tt**2,
        ),
    }
    reps, n = 40, 50000
    for lag, (s_exact, i_exact) in exact.items():
        s_est, i_est = [], []
        for r in range(reps):
            cfg = ExtendedFilterConfig(
                theta=np.array([theta]), tau=tau, kernel=K1, lag=lag, n_particles=n
            )
            acc = dfs.run_extended_bootstrap(
                ssm, ys, cfg, rng=np.random.default_rng((55, lag, r))
            )
            s_est.append(dfs.score_from_accumulator(acc, np.array([theta]), tau, K1).values[0])
            i_est.append(dfs.observed_info_from_accumulator(acc, tau, K1).values[0, 0])
        s_est, i_est = np.array(s_est), np.array(i_est)
        assert abs(s_est.mean() - s_exact) < 4 * s_est.std() / np.sqrt(reps)
        assert abs(i_est.mean() - i_exact) < 4 * i_est.std() / np.sqrt(reps)


def test_full_lag_values_are_identical_for_any_big_lag():
    spec = lgssm_phi()
    ssm = spec.state_space()
    theta = np.array([0.5])
    _, ys = dfs.simulate(ssm, theta, 20, np.random.default_rng(1))
    results = []
    for lag in (19, 200):
        cfg = ExtendedFilterConfig(theta=theta, tau=0.1, kernel=K1, lag=lag, n_particles=300)
        acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(3))
        assert np.all(acc.readoff_horizon == 20)
        s = dfs.score_from_accumulator(acc, theta, 0.1, K1)
        i = dfs.observed_info_from_accumulator(acc, 0.1, K1)
        results.append((acc, s.values.copy(), i.values.copy()))
    acc_a, s_a, i_a = results[0]
    acc_b, s_b, i_b = results[1]
    np.testing.assert_array_equal(acc_a.means, acc_b.means)
    np.testing.assert_array_equal(s_a, s_b)
    np.testing.assert_array_equal(i_a, i_b)
    assert acc_a.loglik_estimate == acc_b.loglik_estimate


@settings(max_examples=20)
@given(
    horizon=st.integers(1, 12),
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_lags_past_the_horizon_match_the_full_lag_bitwise(horizon, extra, seed):
    ssm, ys = lgssm2_setup(horizon)
    theta = np.array([0.6, -0.1])
    kern = dfs.make_gaussian_kernel([1.0, 0.8])
    results = []
    for lag in (horizon - 1, horizon - 1 + extra):
        cfg = ExtendedFilterConfig(theta=theta, tau=0.1, kernel=kern, lag=lag, n_particles=100)
        acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(seed))
        s = dfs.score_from_accumulator(acc, theta, 0.1, kern)
        i = dfs.observed_info_from_accumulator(acc, 0.1, kern)
        results.append((acc, s.values, i.values))
    (acc_a, s_a, i_a), (acc_b, s_b, i_b) = results
    for field in ("means", "covariances", "pair_sums", "readoff_horizon", "ess_trace"):
        assert np.array_equal(getattr(acc_a, field), getattr(acc_b, field)), field
    assert acc_a.loglik_estimate == acc_b.loglik_estimate
    assert np.array_equal(s_a, s_b)
    assert np.array_equal(i_a, i_b)


@pytest.mark.parametrize(
    "horizon,lag", [(1, 0), (5, 0), (5, 2), (5, 4), (5, 7), (8, 3), (3, 10)]
)
def test_accumulator_completeness_and_horizons(horizon, lag):
    spec = lgssm_phi()
    ssm = spec.state_space()
    theta = np.array([0.4])
    _, ys = dfs.simulate(ssm, theta, horizon, np.random.default_rng(5))
    cfg = ExtendedFilterConfig(theta=theta, tau=0.1, kernel=K1, lag=lag, n_particles=64)
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(6))
    assert acc.is_complete()
    assert acc.pair_sums.shape == (horizon, 1, 1)
    for t in range(horizon):
        assert acc.readoff_horizon[t] == min(t + 1 + lag, horizon)
        # a pair sum is zero exactly when no earlier step lies within the lag
        assert (acc.pair_sums[t, 0, 0] == 0.0) == (min(t, lag) == 0)


def lgssm2_setup(horizon=12):
    spec = dfs.LinearGaussianSSM(
        free=("phi", "log_sigma_v"), fixed={"log_sigma_w": 0.0}, init="fixed", init_sd=1.0
    )
    ssm = spec.state_space()
    _, ys = dfs.simulate(ssm, np.array([0.7, 0.0]), horizon, np.random.default_rng(8))
    return ssm, ys


def reference_filter(ssm, ys, cfg, rng):
    """Full-history extended filter with one cross-covariance per pair.

    Consumes the random stream exactly like ``run_extended_bootstrap``, so
    both follow the same particle trajectories.
    """
    n, horizon, lag = cfg.n_particles, len(ys), cfg.lag
    hist = np.empty((n, horizon, cfg.kernel.dim))
    means = np.empty((horizon, cfg.kernel.dim))
    covs = np.empty((horizon, cfg.kernel.dim, cfg.kernel.dim))
    crosscovs = {}
    log_prev = None
    x = None
    for u in range(horizon):
        thetas = cfg.kernel.sample(cfg.theta, cfg.tau, rng, size=n)
        x = ssm.init_sampler(thetas, rng) if u == 0 else ssm.transition_sampler(x, thetas, rng)
        hist[:, u] = thetas
        logw = ssm.obs_logdensity(ys[u], x, thetas)
        if log_prev is not None:
            logw = log_prev + logw
        w, lse = kernels.normalize_log_weights(logw)
        due = range(max(0, horizon - 1 - lag), horizon) if u == horizon - 1 else [u - lag]
        for t in due:
            if t >= 0:
                means[t], covs[t] = kernels.weighted_mean_cov(hist[:, t], w)
                for s in range(max(0, t - lag), t):
                    crosscovs[(s, t)] = kernels.weighted_crosscov(hist[:, s], hist[:, t], w)
        if cfg.ess_threshold is None or 1.0 / float(w @ w) < cfg.ess_threshold * n:
            ancestors = resample(w, cfg.resampling, rng)
            x, hist = x[ancestors], hist[ancestors]
            log_prev = None
        else:
            log_prev = logw - lse
    return means, covs, crosscovs


@pytest.mark.parametrize("ess_threshold", [None, 0.5])
@pytest.mark.parametrize("resampling", ["multinomial", "systematic"])
@pytest.mark.parametrize("lag", [1, 3, 11, 17])  # T = 12: T-1 and T+5 included
def test_pair_sums_match_pairwise_crosscovs(lag, resampling, ess_threshold):
    ssm, ys = lgssm2_setup()
    cfg = ExtendedFilterConfig(
        theta=np.array([0.6, -0.1]), tau=0.05, kernel=dfs.make_gaussian_kernel([1.2, 1.2]),
        lag=lag, n_particles=200, resampling=resampling, ess_threshold=ess_threshold,
    )
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(4))
    ref_means, ref_covs, ref_pairs = reference_filter(ssm, ys, cfg, np.random.default_rng(4))
    assert acc.is_complete()
    assert len(ref_pairs) == sum(min(t, lag) for t in range(len(ys)))
    for t in range(len(ys)):
        pairs = [ref_pairs[(s, t)] for s in range(max(0, t - lag), t)]
        scale = sum(np.abs(c).sum() for c in pairs)
        ref_sum = sum(pairs, np.zeros((2, 2)))
        assert np.abs(acc.pair_sums[t] - ref_sum).max() <= 1e-12 * scale
    np.testing.assert_allclose(acc.means, ref_means, rtol=1e-12)
    np.testing.assert_allclose(acc.covariances, ref_covs, rtol=1e-12, atol=0.0)


def float_ring_filter(ssm, ys, cfg, rng):
    """Extended filter carrying whole prefix-sum rows per particle.

    The ring is ``(n, slots, d)`` float64 and is gathered row by row at every
    resampling, so each particle carries its own prefix sums and there is no
    lineage bookkeeping to get wrong.  The lag is clamped to ``T - 1`` and
    lag 0 reads the current draws, as the filter does.  Consumes the random
    stream like ``run_extended_bootstrap`` and calls the same kernels, so
    the two must agree bit for bit.
    """
    n, horizon, d = cfg.n_particles, len(ys), cfg.kernel.dim
    lag = min(cfg.lag, horizon - 1)
    slots = min(2 * lag + 2, horizon + 1)
    prefix = np.zeros((n, slots, d))
    means = np.empty((horizon, d))
    covs = np.empty((horizon, d, d))
    pair_sums = np.empty((horizon, d, d))
    ess_trace = np.empty(horizon)
    loglik, log_prev, x = 0.0, None, None
    for u in range(horizon):
        thetas = cfg.kernel.sample(cfg.theta, cfg.tau, rng, size=n)
        x = ssm.init_sampler(thetas, rng) if u == 0 else ssm.transition_sampler(x, thetas, rng)
        logg = ssm.obs_logdensity(ys[u], x, thetas)
        logw = logg if log_prev is None else log_prev + logg
        w, lse = kernels.normalize_log_weights(logw)
        loglik += lse - (math.log(n) if log_prev is None else 0.0)
        ess_trace[u] = 1.0 / float(w @ w)
        prefix[:, (u + 1) % slots] = prefix[:, u % slots] + (thetas - cfg.theta)
        due = [u - lag] if u >= lag else []
        if u == horizon - 1:
            due += range(max(0, horizon - lag), horizon)
        for t in due:
            pair_sums[t] = 0.0
            if not lag:
                means[t], covs[t] = kernels.weighted_mean_cov(thetas, w)
                continue
            p_t = prefix[:, t % slots]
            draw = prefix[:, (t + 1) % slots] - p_t
            mean, covs[t] = kernels.weighted_mean_cov(draw, w)
            means[t] = cfg.theta + mean
            first = max(0, t - lag)
            if t > first:
                window = p_t - prefix[:, first % slots]
                pair_sums[t] = kernels.weighted_crosscov(window, draw, w)
        if cfg.ess_threshold is None or ess_trace[u] < cfg.ess_threshold * n:
            ancestors = resample(w, cfg.resampling, rng)
            x, prefix = x[ancestors], prefix[ancestors]
            log_prev = None
        else:
            log_prev = logw - lse
    return dict(
        means=means, covariances=covs, pair_sums=pair_sums, ess_trace=ess_trace,
        loglik_estimate=loglik,
    )


def assert_matches_float_ring(horizon, lag, resampling, ess_threshold, seed=6, n_particles=200):
    """Assert the filter equals ``float_ring_filter`` bit for bit; return its accumulator."""
    ssm, ys = lgssm2_setup(horizon)
    cfg = ExtendedFilterConfig(
        theta=np.array([0.6, -0.1]), tau=0.05, kernel=dfs.make_gaussian_kernel([1.2, 1.2]),
        lag=lag, n_particles=n_particles, resampling=resampling, ess_threshold=ess_threshold,
    )
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(seed))
    ref = float_ring_filter(ssm, ys, cfg, np.random.default_rng(seed))
    for name in ("means", "covariances", "pair_sums", "ess_trace"):
        assert np.array_equal(getattr(acc, name), ref[name]), name
    assert acc.loglik_estimate == ref["loglik_estimate"]
    return acc


@pytest.mark.parametrize("ess_threshold", [None, 0.5])
@pytest.mark.parametrize("resampling", ["multinomial", "systematic"])
@pytest.mark.parametrize("lag", [1, 3, 11, 17])  # T = 12: T-1 and T+5 included
def test_lineage_ring_matches_float_ring_bitwise(lag, resampling, ess_threshold):
    assert_matches_float_ring(12, lag, resampling, ess_threshold)


@pytest.mark.parametrize("ess_threshold", [None, 0.5])
@pytest.mark.parametrize("resampling", ["multinomial", "systematic"])
@pytest.mark.parametrize("lag", [1, 2, 3, 7, 13, 39, 45])
def test_lineage_table_matches_float_ring_across_rebases(lag, resampling, ess_threshold):
    # T = 40 rebases the table every lag + 1 steps, many times at small lags
    assert_matches_float_ring(40, lag, resampling, ess_threshold)


def test_lineage_table_matches_float_ring_when_no_resampling_spans_a_rebase():
    # lag 1 rebases every 2 steps, so 3 steps in a row without resampling
    # hold a whole rebase period with an identity cursor
    acc = assert_matches_float_ring(40, 1, "multinomial", 0.5)
    kept = "".join("k" if e >= 0.5 * 200 else "r" for e in acc.ess_trace)
    assert "kkk" in kept, kept


def permuting(resample_fn, seed, unsorted):
    """``resample_fn`` with its ancestors shuffled by a generator of its own;
    appends to ``unsorted`` whether each call returned them out of order."""
    perm_rng = np.random.default_rng(seed)

    def wrapper(weights, scheme, rng):
        ancestors = resample_fn(weights, scheme, rng)
        ancestors = ancestors[perm_rng.permutation(ancestors.size)]
        unsorted.append(bool(np.any(np.diff(ancestors) < 0)))
        return ancestors

    return wrapper


@pytest.mark.parametrize("ess_threshold", [None, 0.5])
@pytest.mark.parametrize("resampling", ["multinomial", "systematic"])
@pytest.mark.parametrize("lag", [1, 3, 13, 39])
def test_lineage_is_exact_for_unsorted_ancestors(monkeypatch, lag, resampling, ess_threshold):
    # resample returns nondecreasing ancestors; the lineage must not rely on
    # that, so both filters see the same shuffled ancestors at every step
    unsorted = []
    monkeypatch.setattr(dfs.smc, "resample", permuting(resample, 23, unsorted))
    monkeypatch.setattr(sys.modules[__name__], "resample", permuting(resample, 23, []))
    assert_matches_float_ring(40, lag, resampling, ess_threshold)
    assert any(unsorted)


@settings(max_examples=100)
@given(
    horizon=st.integers(1, 40),
    data=st.data(),
    resampling=st.sampled_from(["multinomial", "systematic"]),
    ess_threshold=st.sampled_from([None, 0.5, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lineage_table_matches_float_ring_property(horizon, data, resampling, ess_threshold, seed):
    lag = data.draw(st.integers(0, horizon + 5), label="lag")
    assert_matches_float_ring(
        horizon, lag, resampling, ess_threshold, seed=seed, n_particles=50
    )


@pytest.mark.parametrize("lag, gather_mb", [(2, 0.61), (10, 1.38), (50, 5.23), (199, 10.00)])
def test_filter_peak_allocation_stays_within_the_full_ring_gather(lag, gather_mb):
    # gather_mb: tracemalloc peaks of a lineage that gathered the whole int32
    # ring into a spare at every resampling (T = 200, N = 2000)
    ssm, ys = lgssm2_setup(200)
    cfg = ExtendedFilterConfig(
        theta=np.array([0.6, -0.1]), tau=0.05, kernel=dfs.make_gaussian_kernel([1.2, 1.2]),
        lag=lag, n_particles=2000,
    )
    rng = np.random.default_rng(1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dfs.run_extended_bootstrap(ssm, ys, cfg, rng=rng)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.05 * gather_mb * 1e6


@pytest.mark.parametrize("ess_threshold", [None, 0.5])
@pytest.mark.parametrize("resampling", ["multinomial", "systematic"])
def test_rng_use_does_not_depend_on_lag(resampling, ess_threshold):
    ssm, ys = lgssm2_setup()
    horizon = len(ys)
    runs = []
    for lag in (0, 3, horizon - 1, horizon + 5):
        cfg = ExtendedFilterConfig(
            theta=np.array([0.6, -0.1]), tau=0.05, kernel=dfs.make_gaussian_kernel([1.2, 1.2]),
            lag=lag, n_particles=200, resampling=resampling, ess_threshold=ess_threshold,
        )
        rng = np.random.default_rng(9)
        acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=rng)
        runs.append((rng.bit_generator.state, acc.loglik_estimate, acc.ess_trace))
    state0, loglik0, ess0 = runs[0]
    for state, loglik, ess in runs[1:]:
        assert state == state0
        assert loglik == loglik0
        assert np.array_equal(ess, ess0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bad_obs_logdensity_names_step_and_callable(bad):
    model = flat_ssm()

    def obs_logdensity(y, x, t):
        out = np.full(x.shape[0], -1.0)
        if y == 2.0:
            out[5] = bad
        return out

    broken = dataclasses.replace(model, obs_logdensity=obs_logdensity)
    cfg = ExtendedFilterConfig(theta=np.array([0.0]), tau=0.1, kernel=K1, lag=1, n_particles=16)
    with pytest.raises(ValueError, match=r"obs_logdensity .*step 3"):
        dfs.run_extended_bootstrap(broken, np.arange(4.0), cfg, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "first, bad", [(-1.0, np.nan), (-1.0, np.inf), (-np.inf, np.inf)],
    ids=["nan", "inf", "inf-on-zero-weight"],
)
def test_bad_obs_logdensity_on_carried_weights_names_step(first, bad):
    # uniform weights and one zero weight both keep the ESS above n / 2, so
    # step 3 adds its log-densities to log-weights carried from step 2
    def obs_logdensity(y, x, t):
        out = np.full(x.shape[0], -1.0)
        if y == 0.0:
            out[5] = first
        if y == 2.0:
            out[5] = bad
        return out

    broken = dataclasses.replace(flat_ssm(), obs_logdensity=obs_logdensity)
    cfg = ExtendedFilterConfig(
        theta=np.array([0.0]), tau=0.1, kernel=K1, lag=1, n_particles=16, ess_threshold=0.5
    )
    with pytest.raises(ValueError, match=r"obs_logdensity returned NaN or \+inf at step 3"):
        dfs.run_extended_bootstrap(broken, np.arange(4.0), cfg, rng=np.random.default_rng(0))


def test_ess_mode_with_zero_weights_raises_no_warning():
    # one particle always has zero weight and ESS = n - 1 never triggers
    # resampling, so the zero weight is carried from step to step
    n, horizon, c = 20, 6, -1.3
    model = dataclasses.replace(
        flat_ssm(),
        obs_logdensity=lambda y, x, t: np.where(np.arange(x.shape[0]) == 0, -np.inf, c),
    )
    cfg = ExtendedFilterConfig(
        theta=np.array([0.0]), tau=0.1, kernel=K1, lag=2, n_particles=n, ess_threshold=0.5
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc = dfs.run_extended_bootstrap(model, np.zeros(horizon), cfg, rng=np.random.default_rng(0))
    np.testing.assert_allclose(acc.ess_trace, n - 1, rtol=1e-12)
    expected = c * horizon + np.log((n - 1) / n)
    assert abs(acc.loglik_estimate - expected) < 1e-12 * abs(expected)
    assert acc.is_complete()


def test_particle_collapse_reports_step():
    model = flat_ssm()
    bad = dfs.StateSpaceModel(
        param_dim=1,
        init_sampler=model.init_sampler,
        transition_sampler=model.transition_sampler,
        obs_logdensity=lambda y, x, t: np.full(x.shape[0], -np.inf),
        obs_sampler=model.obs_sampler,
    )
    cfg = ExtendedFilterConfig(theta=np.array([0.0]), tau=0.1, kernel=K1, lag=0, n_particles=16)
    with pytest.raises(ParticleCollapseError) as err:
        dfs.run_extended_bootstrap(bad, np.zeros(3), cfg, rng=np.random.default_rng(0))
    assert err.value.step == 1


def test_ess_triggered_resampling_smoke():
    spec = lgssm_phi()
    ssm = spec.state_space()
    theta = np.array([0.5])
    _, ys = dfs.simulate(ssm, theta, 15, np.random.default_rng(2))
    cfg = ExtendedFilterConfig(
        theta=theta, tau=0.05, kernel=K1, lag=3, n_particles=500, ess_threshold=0.5
    )
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(11))
    assert acc.is_complete()
    assert np.isfinite(acc.loglik_estimate)


def test_smc_loglik_tracks_kalman():
    spec = lgssm_phi()
    ssm = spec.state_space()
    theta = np.array([0.6])
    _, ys = dfs.simulate(ssm, theta, 20, np.random.default_rng(21))
    ll_exact = dfs.kalman_loglik(spec, theta, ys)
    lls = [
        dfs.bootstrap_loglik(ssm, ys, theta, 2000, np.random.default_rng((31, r)))
        for r in range(30)
    ]
    lls = np.array(lls)
    assert abs(lls.mean() - ll_exact) < 3 * lls.std() / np.sqrt(30)


def test_tau_zero_reduces_to_plain_bootstrap():
    spec = lgssm_phi()
    ssm = spec.state_space()
    theta = np.array([0.5])
    _, ys = dfs.simulate(ssm, theta, 10, np.random.default_rng(0))
    cfg = ExtendedFilterConfig(theta=theta, tau=0.0, kernel=K1, lag=0, n_particles=128)
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(1))
    # every sampled parameter is exactly theta; the weighted mean only
    # deviates by the weight-sum round-off
    np.testing.assert_allclose(acc.means, np.tile(theta, (10, 1)), rtol=1e-14)
    np.testing.assert_allclose(acc.covariances, 0.0, atol=1e-20)
    assert np.isfinite(acc.loglik_estimate)


def textbook_bootstrap_loglik(ssm, ys, theta, n, rng, scheme):
    """Kitagawa's bootstrap filter at a fixed parameter: propagate, weight,
    resample at every step; no parameter draw and no moment read-off."""
    thetas = np.tile(theta, (n, 1))
    loglik = 0.0
    x = ssm.init_sampler(thetas, rng)
    for u, y in enumerate(ys):
        if u:
            x = ssm.transition_sampler(x, thetas, rng)
        logw = ssm.obs_logdensity(y, x, thetas)
        top = logw.max()
        w = np.exp(logw - top)
        total = w.sum()
        loglik += top + np.log(total) - math.log(n)
        x = x[resample(w / total, scheme, rng)]
    return loglik


@settings(max_examples=30)
@given(
    horizon=st.integers(1, 12),
    n=st.integers(2, 300),
    scheme=st.sampled_from(RESAMPLING_SCHEMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_loglik_is_the_textbook_filter_bitwise(horizon, n, scheme, seed):
    ssm, ys = lgssm2_setup(horizon)
    theta = np.array([0.6, -0.1])
    got = dfs.bootstrap_loglik(ssm, ys, theta, n, np.random.default_rng(seed), scheme)
    want = textbook_bootstrap_loglik(ssm, ys, theta, n, np.random.default_rng(seed), scheme)
    assert got == want


@pytest.mark.parametrize("route", ["filter", "is", "quadrature-2d"])
def test_callables_receive_component_major_parameters(route):
    # every batch of parameters is the (n, d) transpose of a C-ordered
    # (d, n) buffer, not a row-major copy
    seen = []

    def record(thetas):
        seen.append((thetas.shape[1], thetas.T.flags.c_contiguous))
        return np.zeros(thetas.shape[0])

    theta = np.array([0.3, -0.2])
    kernel = dfs.make_gaussian_kernel([1.0, 0.5])
    if route == "filter":
        ssm = dfs.StateSpaceModel(
            param_dim=2,
            init_sampler=lambda thetas, rng: record(thetas),
            transition_sampler=lambda x, thetas, rng: x + record(thetas),
            obs_logdensity=lambda y, x, thetas: record(thetas),
        )
        cfg = ExtendedFilterConfig(
            theta=theta, tau=0.1, kernel=kernel, lag=2, n_particles=50
        )
        dfs.run_extended_bootstrap(ssm, np.zeros(4), cfg, rng=np.random.default_rng(0))
    elif route == "is":
        model = dfs.GeneralModel(dim=2, log_likelihood=record)
        dfs.posterior_moments_is(model, theta, 0.1, kernel, 50, np.random.default_rng(0))
    else:
        model = dfs.GeneralModel(dim=2, log_likelihood=record)
        dfs.posterior_moments_quadrature(model, theta, 0.1, kernel)
    assert seen
    assert all(d == 2 and component_major for d, component_major in seen)


def test_score_estimator_sd_shrinks_like_root_n():
    spec = lgssm_phi()
    ssm = spec.state_space()
    theta = np.array([0.5])
    _, ys = dfs.simulate(ssm, theta, 20, np.random.default_rng(6))
    kern = dfs.make_gaussian_kernel([2.0])
    sds = []
    ns = [500, 2000, 8000]
    for n in ns:
        vals = []
        for r in range(48):
            cfg = ExtendedFilterConfig(theta=theta, tau=0.05, kernel=kern, lag=5, n_particles=n)
            acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng((14, n, r)))
            vals.append(dfs.score_from_accumulator(acc, theta, 0.05, kern).values[0])
        sds.append(np.std(vals, ddof=1))
    fit = fit_loglog_slope(ns, sds)
    assert -0.65 <= fit.slope <= -0.35


# ---------------------------------------------------------------------------
# estimator assembly
# ---------------------------------------------------------------------------


def make_accumulator(rng, horizon=6, lag=2, d=2):
    means = rng.normal(size=(horizon, d))
    covs = np.empty((horizon, d, d))
    for t in range(horizon):
        a = rng.normal(size=(d, d))
        covs[t] = a @ a.T
    pair_sums = np.zeros((horizon, d, d))
    for t in range(horizon):
        for _ in range(max(0, t - lag), t):
            pair_sums[t] += rng.normal(size=(d, d))
    return dfs.FixedLagAccumulator(
        means=means,
        covariances=covs,
        pair_sums=pair_sums,
        loglik_estimate=-1.0,
        readoff_horizon=np.minimum(np.arange(1, horizon + 1) + lag, horizon),
        ess_trace=np.full(horizon, 10.0),
    )


def test_score_zero_when_all_means_at_center():
    acc = make_accumulator(np.random.default_rng(0))
    theta = np.array([0.3, -0.2])
    acc.means[:] = theta
    kern = dfs.make_gaussian_kernel([1.0, 2.0])
    s = dfs.score_from_accumulator(acc, theta, 0.1, kern)
    np.testing.assert_allclose(s.values, 0.0, atol=1e-12)


def test_info_zero_when_variances_match_prior():
    rng = np.random.default_rng(1)
    acc = make_accumulator(rng)
    kern = dfs.make_gaussian_kernel([1.0, 0.5])
    acc.covariances[:] = 0.1**2 * np.diag(kern.variances())
    acc.pair_sums[:] = 0.0
    info = dfs.observed_info_from_accumulator(acc, 0.1, kern)
    np.testing.assert_allclose(info.values, 0.0, atol=1e-10)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**31))
def test_info_from_accumulator_bitwise_symmetric(seed):
    acc = make_accumulator(np.random.default_rng(seed))
    kern = dfs.make_gaussian_kernel([1.3, 0.7])
    info = dfs.observed_info_from_accumulator(acc, 0.2, kern)
    assert np.array_equal(info.values, info.values.T)


def test_accumulator_estimates_are_horizon_times_general_rescalers():
    # the SMC estimators rescale the moments of sum_t theta_t: T times the
    # general rescalers applied to the time-averaged moments
    spec = dfs.LinearGaussianSSM(
        free=("phi", "log_sigma_v"), fixed={"log_sigma_w": 0.0}, init="fixed"
    )
    ssm = spec.state_space()
    theta = np.array([0.6, -0.1])
    _, ys = dfs.simulate(ssm, theta, 12, np.random.default_rng(5))
    kern = dfs.make_gaussian_kernel([1.2, 0.8])
    tau = 0.1
    cfg = ExtendedFilterConfig(theta=theta, tau=tau, kernel=kern, lag=3, n_particles=400)
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(6))
    horizon = acc.horizon
    assert horizon == 12 and np.any(acc.pair_sums != 0.0)
    pairs = acc.pair_sums.sum(axis=0)
    averaged = dfs.PosteriorMoments(
        mean=acc.means.sum(axis=0) / horizon,
        covariance=(acc.covariances.sum(axis=0) + pairs + pairs.T) / horizon,
    )
    for got, want in (
        (
            dfs.score_from_accumulator(acc, theta, tau, kern).values,
            horizon * dfs.score_from_moments(averaged, theta, tau, kern).values,
        ),
        (
            dfs.observed_info_from_accumulator(acc, tau, kern).values,
            horizon * dfs.observed_info_from_moments(averaged, tau, kern).values,
        ),
    ):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(TypeError, match="PerturbationKernel"):
        dfs.score_from_accumulator(acc, theta, tau, np.array([1.44, 0.64]))
    with pytest.raises(TypeError, match="PerturbationKernel"):
        dfs.observed_info_from_accumulator(acc, tau, np.diag([1.44, 0.64]))


@pytest.mark.parametrize("lag", [0, 3])
def test_accumulator_estimates_are_the_written_out_formulas_bit_for_bit(lag):
    # acc.moments() goes through the general rescalers with horizon T; the
    # result keeps the bits of the sum-of-moments formulas written out
    spec = dfs.LinearGaussianSSM(
        free=("phi", "log_sigma_v"), fixed={"log_sigma_w": 0.0}, init="fixed"
    )
    ssm = spec.state_space()
    theta = np.array([0.6, -0.1])
    _, ys = dfs.simulate(ssm, theta, 12, np.random.default_rng(5))
    kern = dfs.make_gaussian_kernel([1.2, 0.8])
    tau = 0.1
    cfg = ExtendedFilterConfig(theta=theta, tau=tau, kernel=kern, lag=lag, n_particles=400)
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(6))
    horizon, var = acc.horizon, kern.variances()
    assert np.any(acc.pair_sums != 0.0) == (lag > 0)
    score = (acc.means.sum(axis=0) - horizon * theta) / var / tau**2
    pairs = acc.pair_sums.sum(axis=0)
    covariance = acc.covariances.sum(axis=0) + (pairs + pairs.T)
    full = (np.diag(tau**2 * horizon * var) - covariance) / np.outer(var, var) / tau**4
    assert np.array_equal(dfs.score_from_accumulator(acc, theta, tau, kern).values, score)
    assert np.array_equal(
        dfs.observed_info_from_accumulator(acc, tau, kern).values, (full + full.T) / 2.0
    )
    moments = acc.moments()
    assert moments.horizon == horizon
    assert np.array_equal(moments.mean, acc.means.sum(axis=0))
    assert np.array_equal(moments.covariance, covariance)


def test_incomplete_accumulator_rejected():
    acc = make_accumulator(np.random.default_rng(2))
    kern = dfs.make_gaussian_kernel([1.0, 1.0])
    acc.means[3, 0] = np.nan
    with pytest.raises(ValueError):
        dfs.score_from_accumulator(acc, np.zeros(2), 0.1, kern)
    acc2 = make_accumulator(np.random.default_rng(3))
    acc2.pair_sums[3, 0, 1] = np.nan
    with pytest.raises(ValueError):
        dfs.observed_info_from_accumulator(acc2, 0.1, kern)


def test_accumulator_csv_dumps(tmp_path):
    spec = lgssm_phi()
    ssm = spec.state_space()
    theta = np.array([0.5])
    _, ys = dfs.simulate(ssm, theta, 4, np.random.default_rng(0))
    cfg = ExtendedFilterConfig(theta=theta, tau=0.1, kernel=K1, lag=1, n_particles=50)
    acc = dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(1))
    moments = tmp_path / "moments.csv"
    acc.save_moments_csv(moments)
    lines = moments.read_text().splitlines()
    assert lines[0] == "t,component,mean,var_diag"
    assert len(lines) == 1 + 4  # one row per (t, component), d=1


def test_filter_config_validation():
    with pytest.raises(ValueError):
        ExtendedFilterConfig(theta=np.zeros(2), tau=0.1, kernel=K1, lag=0, n_particles=10)
    with pytest.raises(ValueError):
        ExtendedFilterConfig(theta=np.zeros(1), tau=-0.1, kernel=K1, lag=0, n_particles=10)
    with pytest.raises(ValueError):
        ExtendedFilterConfig(theta=np.zeros(1), tau=0.1, kernel=K1, lag=-1, n_particles=10)
    with pytest.raises(ValueError):
        ExtendedFilterConfig(theta=np.zeros(1), tau=0.1, kernel=K1, lag=0, n_particles=1)
    with pytest.raises(ValueError):
        ExtendedFilterConfig(
            theta=np.zeros(1), tau=0.1, kernel=K1, lag=0, n_particles=10, resampling="x"
        )
    with pytest.raises(ValueError):
        ExtendedFilterConfig(
            theta=np.zeros(1), tau=0.1, kernel=K1, lag=0, n_particles=10, ess_threshold=1.5
        )
