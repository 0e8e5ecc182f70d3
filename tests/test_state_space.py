"""State-space simulation, Kalman oracles, and the sample-only demo model."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfscore as dfs
from dfscore.state_space import (
    LinearGaussianSSM,
    ParameterDomainError,
    kalman_loglik,
    kalman_score_info,
    make_nonlinear_shock_model,
)

FULL = LinearGaussianSSM(init="fixed", init_sd=1.0)


def simulate_lgssm(theta, horizon, seed, spec=FULL):
    return dfs.simulate(spec.state_space(), theta, horizon, np.random.default_rng(seed))


def test_simulate_single_step_and_determinism():
    theta = np.array([0.5, 0.0, 0.0])
    xs, ys = simulate_lgssm(theta, 1, 0)
    assert xs.shape == (1,) and ys.shape == (1,)
    xs2, ys2 = simulate_lgssm(theta, 7, 42)
    xs3, ys3 = simulate_lgssm(theta, 7, 42)
    np.testing.assert_array_equal(xs2, xs3)
    np.testing.assert_array_equal(ys2, ys3)


def test_phi_zero_states_are_iid():
    spec = LinearGaussianSSM(init="stationary")
    theta = np.array([0.0, 0.0, 0.0])
    xs, _ = dfs.simulate(spec.state_space(), theta, 10**5, np.random.default_rng(123))
    n = xs.size
    r1 = np.corrcoef(xs[:-1], xs[1:])[0, 1]
    assert abs(r1) < 4.0 / np.sqrt(n)
    assert abs(xs.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_simulate_requires_obs_sampler():
    model = dfs.StateSpaceModel(
        param_dim=1,
        init_sampler=lambda t, r: np.zeros(t.shape[0]),
        transition_sampler=lambda x, t, r: x,
        obs_logdensity=lambda y, x, t: np.zeros(x.shape[0]),
    )
    with pytest.raises(ValueError):
        dfs.simulate(model, np.array([0.0]), 3, np.random.default_rng(0))


def test_observation_csv_roundtrip(tmp_path):
    _, ys = simulate_lgssm(np.array([0.6, 0.0, 0.0]), 20, 5)
    path = tmp_path / "obs.csv"
    dfs.save_observations(path, ys)
    text = path.read_text().splitlines()
    assert text[0] == "t,y"
    assert text[1].startswith("1,")
    back = dfs.load_observations(path)
    np.testing.assert_array_equal(back, ys)


@pytest.mark.parametrize(
    "text, match",
    [
        ("t,y\n", "holds no observations"),
        ("t,y\n1,0.3\n2,-inf\n", "t=2 is -inf, not finite"),
        ("t,y\n1,0.3\n2\n", "line 3: expected 2,y"),
        ("t,y\n2,0.3\n1,0.1\n7,0.4\n", "line 2: expected 1,y"),
    ],
    ids=["header-only", "non-finite", "short-row", "out-of-order-t"],
)
def test_invalid_observation_file_raises(tmp_path, text, match):
    path = tmp_path / "obs.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        dfs.load_observations(path)


# ---------------------------------------------------------------------------
# parameter mapping
# ---------------------------------------------------------------------------


def test_param_map_identity_and_log_scales():
    spec = LinearGaussianSSM(init="fixed")
    phi, sv, sw = spec.params(np.array([0.3, np.log(2.0), np.log(0.5)]))
    assert phi == pytest.approx(0.3)
    assert sv == pytest.approx(2.0)
    assert sw == pytest.approx(0.5)


def test_free_subsets_and_validation():
    spec = LinearGaussianSSM(
        free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0}, init="fixed"
    )
    assert spec.param_dim == 1
    with pytest.raises(ValueError):
        LinearGaussianSSM(free=("phi",), fixed={})  # missing scales
    with pytest.raises(ValueError):
        LinearGaussianSSM(free=("nope",), fixed={})


def test_stationary_init_rejects_explosive_phi():
    spec = LinearGaussianSSM(init="stationary")
    with pytest.raises(ValueError):
        spec.params(np.array([1.0, 0.0, 0.0]))
    # fixed init places no constraint
    FULL.params(np.array([1.2, 0.0, 0.0]))


def test_explosive_phi_raises_typed_domain_error():
    spec = LinearGaussianSSM(init="stationary")
    assert issubclass(ParameterDomainError, ValueError)
    with pytest.raises(ParameterDomainError, match=r"\|phi\| < 1"):
        spec.params(np.array([1.0, 0.0, 0.0]))
    thetas = np.array([[0.5, 0.0, 0.0], [-1.1, 0.0, 0.0]])
    with pytest.raises(ParameterDomainError):
        spec.state_space().init_sampler(thetas, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Kalman likelihood
# ---------------------------------------------------------------------------


def joint_gaussian_loglik(model, theta, ys):
    """Brute-force log-likelihood from the explicit joint Gaussian of y_{1:T}.

    O(T^3); an independent cross-check of the Kalman recursion for short
    series.
    """
    phi, sv, sw = model.params(theta)
    m0, p0 = model.init_moments(phi, sv)
    ys = np.asarray(ys, dtype=np.float64)
    big_t = ys.shape[0]
    var_x = np.empty(big_t)
    mean_x = np.empty(big_t)
    var_x[0] = p0
    mean_x[0] = m0
    for t in range(1, big_t):
        var_x[t] = phi**2 * var_x[t - 1] + sv**2
        mean_x[t] = phi * mean_x[t - 1]
    cov = np.empty((big_t, big_t))
    for s in range(big_t):
        for t in range(s, big_t):
            cov[s, t] = phi ** (t - s) * var_x[s]
            cov[t, s] = cov[s, t]
    cov_y = cov + sw**2 * np.eye(big_t)
    resid = ys - mean_x
    chol = np.linalg.cholesky(cov_y)
    alpha = np.linalg.solve(chol, resid)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(
        -0.5 * (big_t * np.log(2.0 * np.pi) + logdet + alpha @ alpha)
    )


def test_kalman_single_observation_closed_form():
    # x1 ~ N(0,1), y = x1 + N(0,1), y=0: l = log N(0; 0, 2)
    ll = kalman_loglik(FULL, np.array([0.5, 0.0, 0.0]), np.array([0.0]))
    assert ll == pytest.approx(-0.5 * np.log(4.0 * np.pi), rel=1e-12)


@pytest.mark.parametrize("init", ["fixed", "stationary"])
@pytest.mark.parametrize("theta", [(0.8, 0.0, 0.0), (0.5, -0.3, 0.4), (-0.4, 0.2, -0.1)])
def test_kalman_matches_joint_gaussian_small_t(init, theta):
    spec = LinearGaussianSSM(init=init, init_mean=0.2, init_sd=1.3)
    theta = np.array(theta)
    _, ys = dfs.simulate(spec.state_space(), theta, 5, np.random.default_rng(3))
    for t in (1, 2, 5):
        assert kalman_loglik(spec, theta, ys[:t]) == pytest.approx(
            joint_gaussian_loglik(spec, theta, ys[:t]), abs=1e-8
        )


def test_kalman_pure_noise_limit():
    # huge observation noise: loglik approaches sum of N(y; 0, sw^2 + var_x)
    theta = np.array([0.7, 0.0, np.log(1e3)])
    _, ys = simulate_lgssm(theta, 20, 9)
    ll = kalman_loglik(FULL, theta, ys)
    var_x = np.empty(20)
    var_x[0] = 1.0
    for t in range(1, 20):
        var_x[t] = 0.7**2 * var_x[t - 1] + 1.0
    approx = np.sum(
        -0.5 * (np.log(2 * np.pi * (1e6 + var_x)) + ys**2 / (1e6 + var_x))
    )
    assert ll == pytest.approx(approx, abs=1e-3)


def test_kalman_rejects_bad_parameters():
    spec = LinearGaussianSSM(init="stationary")
    with pytest.raises(ValueError):
        kalman_loglik(spec, np.array([1.1, 0.0, 0.0]), np.zeros(3))


# ---------------------------------------------------------------------------
# derivative oracle
# ---------------------------------------------------------------------------


class Richardson(NamedTuple):
    score: np.ndarray
    info: np.ndarray
    score_err: np.ndarray
    info_err: np.ndarray


def richardson_score_info(f, theta, h=0.002):
    """Reference gradient and negated Hessian of a smooth noise-free ``f``.

    Per coordinate: a score pass, one f(theta), then the diagonal and cross
    second differences, each at h and h/2 and combined by Richardson
    extrapolation; the discrepancy between the two steps is the per-entry
    error estimate.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    d = theta.size

    def richardson(diff):
        coarse, fine = diff(h), diff(h / 2.0)
        return (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0

    score, score_err = np.empty(d), np.empty(d)
    hess, hess_err = np.empty((d, d)), np.empty((d, d))
    f0 = f(theta)
    for r in range(d):
        e = np.zeros(d)
        e[r] = 1.0
        score[r], score_err[r] = richardson(
            lambda step: (f(theta + step * e) - f(theta - step * e)) / (2.0 * step)
        )
        hess[r, r], hess_err[r, r] = richardson(
            lambda step: (f(theta + step * e) - 2.0 * f0 + f(theta - step * e)) / step**2
        )
    for r in range(d):
        for s in range(r + 1, d):
            er, es = np.zeros(d), np.zeros(d)
            er[r] = es[s] = 1.0
            hess[r, s], hess_err[r, s] = richardson(
                lambda step: (
                    f(theta + step * (er + es))
                    - f(theta + step * (er - es))
                    - f(theta - step * (er - es))
                    + f(theta - step * (er + es))
                )
                / (4.0 * step**2)
            )
            hess[s, r], hess_err[s, r] = hess[r, s], hess_err[r, s]
    return Richardson(score, -hess, score_err, hess_err)


def test_richardson_exact_on_quadratic_surrogate():
    f = lambda th: -1.7 * (th[0] - 0.4) ** 2 + 0.9 * th[0] * th[1] - 2.1 * th[1] ** 2
    der = richardson_score_info(f, np.array([0.2, -0.3]), h=0.05)
    exact_grad = np.array(
        [-3.4 * (0.2 - 0.4) + 0.9 * (-0.3), 0.9 * 0.2 - 4.2 * (-0.3)]
    )
    np.testing.assert_allclose(der.score, exact_grad, atol=1e-10)
    np.testing.assert_allclose(
        der.info, np.array([[3.4, -0.9], [-0.9, 4.2]]), atol=1e-9
    )
    assert der.score_err.max() < 1e-10


@pytest.mark.parametrize("init", ["fixed", "stationary"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kalman_oracle_matches_differenced_joint_gaussian(init, d):
    # the exact recursion against an independent likelihood, differenced
    free = dfs.state_space.PARAM_NAMES[:d]
    spec = LinearGaussianSSM(
        free=free,
        fixed={"log_sigma_v": 0.1, "log_sigma_w": -0.2},
        init=init,
        init_mean=0.3,
        init_sd=1.4,
    )
    theta = np.array([0.6, -0.1, 0.2][:d])
    _, ys = simulate_lgssm(theta, 30, 4, spec)
    der = kalman_score_info(spec, theta, ys)
    ref = richardson_score_info(lambda th: joint_gaussian_loglik(spec, th, ys), theta)
    np.testing.assert_allclose(der.score, ref.score, rtol=0, atol=1e-6)
    np.testing.assert_allclose(der.info, ref.info, rtol=0, atol=1e-6)
    assert np.array_equal(der.info, der.info.T)


@settings(max_examples=25)
@given(
    phi=st.floats(-0.9, 0.9),
    log_sv=st.floats(-0.7, 0.7),
    log_sw=st.floats(-0.7, 0.7),
    horizon=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    init=st.sampled_from(["fixed", "stationary"]),
)
def test_kalman_oracle_score_matches_richardson(phi, log_sv, log_sw, horizon, seed, init):
    spec = LinearGaussianSSM(init=init, init_mean=-0.2, init_sd=0.8)
    theta = np.array([phi, log_sv, log_sw])
    _, ys = simulate_lgssm(theta, horizon, seed, spec)
    der = kalman_score_info(spec, theta, ys)
    ref = richardson_score_info(lambda th: kalman_loglik(spec, th, ys), theta)
    assert np.all(np.abs(der.score - ref.score) <= 10.0 * ref.score_err + 1e-9)


def test_oracle_score_mean_zero_at_true_parameter():
    # over 200 simulated datasets the score at the simulating theta
    # averages to zero within 4 SE, and the mean information is pos. def.
    theta = np.array([0.7, 0.0, 0.0])
    ssm = FULL.state_space()
    scores, infos = [], []
    rng = np.random.default_rng(2024)
    for _ in range(200):
        _, ys = dfs.simulate(ssm, theta, 50, rng)
        der = kalman_score_info(FULL, theta, ys)
        scores.append(der.score)
        infos.append(der.info)
    scores = np.asarray(scores)
    se = scores.std(axis=0, ddof=1) / np.sqrt(len(scores))
    assert np.all(np.abs(scores.mean(axis=0)) < 4 * se)
    mean_info = np.mean(infos, axis=0)
    assert np.array_equal(mean_info, mean_info.T) or np.allclose(mean_info, mean_info.T)
    assert np.linalg.eigvalsh(mean_info).min() > 0


# ---------------------------------------------------------------------------
# sample-only demo model
# ---------------------------------------------------------------------------


def test_nonlinear_shock_model_smoke():
    model = make_nonlinear_shock_model(
        free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0}
    )
    assert model.param_dim == 1
    xs, ys = dfs.simulate(model, np.array([0.6]), 30, np.random.default_rng(1))
    assert np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    thetas = np.full((64, 1), 0.6)
    logg = model.obs_logdensity(ys[0], np.zeros(64), thetas)
    assert logg.shape == (64,)
    assert np.all(np.isfinite(logg))


@pytest.mark.parametrize(
    "free, fixed, lgssm_fixed",
    [
        (("phi",), {}, {"log_sigma_v": 0.0, "log_sigma_w": 0.0}),
        (("phi", "log_sigma_w"), {"log_sigma_v": 0.3}, {"log_sigma_v": 0.3}),
        (("log_sigma_w", "phi", "log_sigma_v"), {}, {}),
    ],
)
def test_nonlinear_shock_model_shares_the_lgssm_init_and_observations(free, fixed, lgssm_fixed):
    # only the transition sampler differs from the fixed-init LGSSM
    cubic = make_nonlinear_shock_model(free, fixed, init_mean=0.4, init_sd=1.7)
    lgssm = LinearGaussianSSM(free, lgssm_fixed, "fixed", 0.4, 1.7).state_space()
    rng = np.random.default_rng(5)
    thetas = rng.normal(scale=0.5, size=(64, len(free)))
    states = rng.standard_normal(64)

    def draws(model, name, *args):
        return getattr(model, name)(*args, np.random.default_rng(11))

    assert cubic.param_dim == lgssm.param_dim == len(free)
    np.testing.assert_array_equal(
        draws(cubic, "init_sampler", thetas), draws(lgssm, "init_sampler", thetas)
    )
    np.testing.assert_array_equal(
        cubic.obs_logdensity(0.3, states, thetas), lgssm.obs_logdensity(0.3, states, thetas)
    )
    np.testing.assert_array_equal(
        draws(cubic, "obs_sampler", states, thetas), draws(lgssm, "obs_sampler", states, thetas)
    )
    assert not np.array_equal(
        draws(cubic, "transition_sampler", states, thetas),
        draws(lgssm, "transition_sampler", states, thetas),
    )


def test_nonlinear_shock_noise_is_standardized():
    # the cubic-warped shock is scaled to unit variance
    model = make_nonlinear_shock_model(
        free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0}
    )
    rng = np.random.default_rng(8)
    thetas = np.zeros((200000, 1))  # phi=0: states are pure shocks
    x = model.transition_sampler(np.zeros(200000), thetas, rng)
    assert abs(x.var() - 1.0) < 0.03
