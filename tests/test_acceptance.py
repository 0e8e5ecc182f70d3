"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; model configurations were chosen once (strong-signal datasets,
effective perturbation scales inside the estimators' stable regimes) and
are frozen with their seeds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import dfscore as dfs
from dfscore.cli import main as cli_main
from dfscore.harness import fit_loglog_slope
from dfscore.models import conjugate_posterior_moments, gaussian_location_model
from dfscore.smc import ExtendedFilterConfig

K1 = dfs.make_gaussian_kernel([1.0])
THETA1 = np.array([1.0])


@contextmanager
def criterion(num, description, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} PASS  {description} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s"


def lgssm(free, fixed, init_sd=1.0):
    return dfs.LinearGaussianSSM(
        free=free, fixed=fixed, init="fixed", init_mean=0.0, init_sd=init_sd
    )


def run_smc(ssm, ys, theta, tau, kernel, lag, n, seed):
    cfg = ExtendedFilterConfig(
        theta=theta, tau=tau, kernel=kernel, lag=lag, n_particles=n,
        resampling="multinomial",
    )
    return dfs.run_extended_bootstrap(ssm, ys, cfg, rng=np.random.default_rng(seed))


def test_criterion_01_conjugate_score_bias_order():
    with criterion(1, "conjugate score bias is second order in tau", budget_s=1.0):
        taus = np.array([0.4, 0.2, 0.1, 0.05])
        biases = []
        for tau in taus:
            exact = conjugate_posterior_moments(THETA1, tau, K1)
            score = dfs.score_from_moments(exact, THETA1, tau, K1)
            biases.append(abs(score.values[0] - (-1.0)))
        fit = fit_loglog_slope(taus, biases)
        assert 1.9 <= fit.slope <= 2.1, fit


def test_criterion_02_conjugate_info_bias_order_and_quadrature_value():
    with criterion(2, "conjugate information bias order; quadrature value at tau=0.1"):
        taus = np.array([0.4, 0.2, 0.1, 0.05])
        biases = []
        for tau in taus:
            exact = conjugate_posterior_moments(THETA1, tau, K1)
            info = dfs.observed_info_from_moments(exact, tau, K1)
            biases.append(abs(info.values[0, 0] - 1.0))
        fit = fit_loglog_slope(taus, biases)
        assert 1.9 <= fit.slope <= 2.1, fit

        model = gaussian_location_model(dim=1)
        quad = dfs.posterior_moments_quadrature(model, THETA1, 0.1, K1)
        info = dfs.observed_info_from_moments(quad, 0.1, K1)
        assert abs(info.values[0, 0] - 1.0 / 1.01) < 1e-6


def test_criterion_03_is_mse_rates():
    with criterion(
        3,
        "IS estimator MSE rates: score ~ N^-2/3 at tau=N^-1/6, "
        "info ~ N^-1/2 at tau=N^-1/8",
        budget_s=600.0,
    ):
        model = gaussian_location_model(dim=1)
        ns = [10**3, 10**4, 10**5, 10**6]
        reps = 200
        mse_score, mse_info = [], []
        for n in ns:
            tau_s = float(n) ** (-1.0 / 6.0)
            tau_i = float(n) ** (-1.0 / 8.0)
            err_s, err_i = [], []
            for r in range(reps):
                rng = np.random.default_rng((3, n, r))
                mom = dfs.posterior_moments_is(model, THETA1, tau_s, K1, n, rng)
                s = dfs.score_from_moments(mom, THETA1, tau_s, K1).values[0]
                err_s.append((s - (-1.0)) ** 2)
                rng = np.random.default_rng((33, n, r))
                mom = dfs.posterior_moments_is(model, THETA1, tau_i, K1, n, rng)
                i = dfs.observed_info_from_moments(mom, tau_i, K1).values[0, 0]
                err_i.append((i - 1.0) ** 2)
            mse_score.append(np.mean(err_s))
            mse_info.append(np.mean(err_i))
        fit_s = fit_loglog_slope(ns, mse_score)
        fit_i = fit_loglog_slope(ns, mse_info)
        assert -0.80 <= fit_s.slope <= -0.50, fit_s
        assert -0.65 <= fit_i.slope <= -0.35, fit_i


# frozen criterion-4 configuration: strongly identified two-parameter model
CRIT4_SPEC = dict(
    free=("phi", "log_sigma_v"), fixed={"log_sigma_w": float(np.log(0.7))}
)
CRIT4_TRUTH = np.array([0.75, 0.0])
CRIT4_THETA = np.array([0.45, -0.5])
CRIT4_KERNEL = dfs.make_gaussian_kernel([1.2, 1.2])
CRIT4_DATA_SEED = 8
CRIT4_RUN_SEED = 202


def test_criterion_04_smc_score_vs_kalman_oracle():
    with criterion(
        4, "fixed-lag SMC score within 15% of the Kalman oracle", budget_s=120.0
    ):
        spec = lgssm(**CRIT4_SPEC)
        ssm = spec.state_space()
        _, ys = dfs.simulate(ssm, CRIT4_TRUTH, 50, np.random.default_rng(CRIT4_DATA_SEED))
        der = dfs.kalman_score_info(spec, CRIT4_THETA, ys)
        tau, lag, n, reps = 0.05, 10, 5000, 20
        scores = []
        for r in range(reps):
            acc = run_smc(
                ssm, ys, CRIT4_THETA, tau, CRIT4_KERNEL, lag, n, (CRIT4_RUN_SEED, r)
            )
            scores.append(
                dfs.score_from_accumulator(acc, CRIT4_THETA, tau, CRIT4_KERNEL).values
            )
        scores = np.asarray(scores)
        rel_err = np.abs(scores.mean(axis=0) - der.score) / np.abs(der.score)
        assert np.all(rel_err <= 0.15), rel_err
        # sign agreement on components where the exact oracle is nonzero
        strong = np.abs(der.score) > 0
        agree = np.sign(scores[:, strong]) == np.sign(der.score[strong])
        assert agree.mean() >= 0.95, agree.mean()


# frozen criterion-5 configuration: one strongly identified parameter
CRIT5_SPEC = dict(
    free=("phi",),
    fixed={"log_sigma_v": 0.0, "log_sigma_w": float(np.log(0.4))},
)
CRIT5_TRUTH = np.array([0.85])
CRIT5_KERNEL = dfs.make_gaussian_kernel([2.6])
CRIT5_DATA_SEED = 8
CRIT5_RUN_SEED = 222


def test_criterion_05_smc_info_vs_kalman_oracle():
    with criterion(
        5,
        "fixed-lag SMC information: positive diagonal within 25% of oracle, "
        "exactly symmetric",
        budget_s=180.0,
    ):
        spec = lgssm(**CRIT5_SPEC)
        ssm = spec.state_space()
        _, ys = dfs.simulate(ssm, CRIT5_TRUTH, 50, np.random.default_rng(CRIT5_DATA_SEED))
        der = dfs.kalman_score_info(spec, CRIT5_TRUTH, ys)
        tau, lag, n, reps = 0.05, 10, 5000, 20
        infos = []
        for r in range(reps):
            acc = run_smc(
                ssm, ys, CRIT5_TRUTH, tau, CRIT5_KERNEL, lag, n, (CRIT5_RUN_SEED, r)
            )
            est = dfs.observed_info_from_accumulator(acc, tau, CRIT5_KERNEL)
            assert np.array_equal(est.values, est.values.T)
            infos.append(est.values)
        mean_info = np.mean(infos, axis=0)
        diag = np.diag(mean_info)
        oracle_diag = np.diag(der.info)
        assert np.all(diag > 0), diag
        assert np.all(np.abs(diag - oracle_diag) <= 0.25 * oracle_diag), (
            diag,
            oracle_diag,
        )
        # exact symmetry also holds for multi-parameter outputs
        spec2 = lgssm(**CRIT4_SPEC)
        ssm2 = spec2.state_space()
        _, ys2 = dfs.simulate(ssm2, CRIT4_TRUTH, 20, np.random.default_rng(1))
        acc2 = run_smc(ssm2, ys2, CRIT4_THETA, 0.05, CRIT4_KERNEL, 3, 500, 99)
        est2 = dfs.observed_info_from_accumulator(acc2, 0.05, CRIT4_KERNEL)
        assert np.array_equal(est2.values, est2.values.T)


def test_criterion_06_fixed_lag_bias_decay():
    with criterion(
        6, "fixed-lag gap to full smoothing non-increasing in the lag"
    ):
        spec = lgssm(free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0})
        ssm = spec.state_space()
        horizon = 30
        _, ys = dfs.simulate(ssm, np.array([0.5]), horizon, np.random.default_rng(4))
        theta = np.array([0.4])
        kern = dfs.make_gaussian_kernel([2.0])
        tau, n, reps = 0.05, 10**4, 50
        lags = [0, 2, 5, 10, 20]
        gaps = np.empty((reps, len(lags)))
        for r in range(reps):
            # same seed across lags: trajectories coincide, so the gap
            # isolates the read-off horizon effect
            full = run_smc(ssm, ys, theta, tau, kern, horizon - 1, n, (6, r))
            s_full = dfs.score_from_accumulator(full, theta, tau, kern).values
            for k, lag in enumerate(lags):
                acc = run_smc(ssm, ys, theta, tau, kern, lag, n, (6, r))
                s = dfs.score_from_accumulator(acc, theta, tau, kern).values
                gaps[r, k] = np.abs(s - s_full).sum()
        for k in range(len(lags) - 1):
            diff = gaps[:, k + 1] - gaps[:, k]
            two_se = 2.0 * diff.std(ddof=1) / np.sqrt(reps)
            assert diff.mean() <= two_se, (lags[k], lags[k + 1], diff.mean(), two_se)


def test_criterion_07_full_lag_equivalence():
    with criterion(
        7, "lag T-1 and lag 10T give identical horizons and estimates"
    ):
        spec = lgssm(free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0})
        ssm = spec.state_space()
        horizon = 20
        _, ys = dfs.simulate(ssm, np.array([0.5]), horizon, np.random.default_rng(1))
        theta = np.array([0.45])
        results = []
        for lag in (horizon - 1, 10 * horizon):
            acc = run_smc(ssm, ys, theta, 0.1, K1, lag, 256, 7)
            assert np.all(acc.readoff_horizon == horizon)
            s = dfs.score_from_accumulator(acc, theta, 0.1, K1).values
            i = dfs.observed_info_from_accumulator(acc, 0.1, K1).values
            results.append((acc.means.copy(), s, i, acc.loglik_estimate))
        a, b = results
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])
        assert a[3] == b[3]


def test_criterion_08_smc_likelihood_sanity():
    with criterion(8, "bootstrap log-likelihood mean within 3 SE of Kalman"):
        spec = lgssm(free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0})
        ssm = spec.state_space()
        truth = np.array([0.6])
        _, ys = dfs.simulate(ssm, truth, 50, np.random.default_rng(12))
        exact = dfs.kalman_loglik(spec, truth, ys)
        lls = np.array(
            [
                dfs.bootstrap_loglik(ssm, ys, truth, 2000, np.random.default_rng((8, r)))
                for r in range(50)
            ]
        )
        se = lls.std(ddof=1) / np.sqrt(50)
        assert abs(lls.mean() - exact) < 3 * se, (lls.mean() - exact, 3 * se)


def test_criterion_09_flat_likelihood_exactness(normalized_weights):
    seen = normalized_weights
    with criterion(9, "constant observation density gives bitwise-uniform weights"):
        for n in (48, 100):
            flat = dfs.StateSpaceModel(
                param_dim=1,
                init_sampler=lambda t, r: r.standard_normal(t.shape[0]),
                transition_sampler=lambda x, t, r: x + r.standard_normal(x.shape[0]),
                obs_logdensity=lambda y, x, t: np.full(x.shape[0], -0.7),
            )
            seen.clear()
            cfg = ExtendedFilterConfig(
                theta=np.array([0.3]), tau=0.1, kernel=K1, lag=2, n_particles=n
            )
            dfs.run_extended_bootstrap(flat, np.zeros(8), cfg, rng=np.random.default_rng(n))
            assert len(seen) == 8
            for w in seen:
                assert np.all(w == 1.0 / n)


CLI_GENERAL = """
[model]
kind = conjugate-gaussian
dim = 1

[estimator]
method = is-score
theta = 1.0
kernel_sigmas = 1.0

[grid]
tau = {tau}
n = {n}

[run]
replications = 2
seed = 31
"""

CLI_SSM = """
[model]
kind = lgssm
free = phi
log_sigma_v = 0.0
log_sigma_w = 0.0
init = fixed
init_sd = 1.0
theta_true = 0.6
data_seed = 4
horizon = 10

[estimator]
method = smc-score
theta = 0.5
kernel_sigmas = 2.0

[grid]
tau = 0.05
n = {n}
delta = {delta}
h = 0.1

[run]
replications = 2
seed = 17

[compare]
target = score
smc_n = 400
"""


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command emits byte-identical CSV on rerun"):
        general = tmp_path / "general.ini"
        general.write_text(CLI_GENERAL.format(tau="0.1", n="300"))
        general_sweep = tmp_path / "general_sweep.ini"
        general_sweep.write_text(CLI_GENERAL.format(tau="0.2, 0.1", n="300"))
        general_nsweep = tmp_path / "general_nsweep.ini"
        general_nsweep.write_text(
            CLI_GENERAL.format(tau="0.1", n="200, 400")
        )
        ssm_point = tmp_path / "ssm.ini"
        ssm_point.write_text(CLI_SSM.format(n="200", delta="2"))
        ssm_lag = tmp_path / "ssm_lag.ini"
        ssm_lag.write_text(CLI_SSM.format(n="200", delta="0, 2"))
        jobs = [
            ("estimate", general),
            ("sweep-tau", general_sweep),
            ("sweep-n", general_nsweep),
            ("sweep-lag", ssm_lag),
            ("compare-fd", ssm_point),
            ("oracle", ssm_point),
        ]
        for command, config in jobs:
            out_a = tmp_path / f"{command}_a.csv"
            out_b = tmp_path / f"{command}_b.csv"
            for out in (out_a, out_b):
                code = cli_main(
                    [command, "--config", str(config), "--out", str(out)]
                )
                assert code == 0, (command, code)
            assert out_a.read_bytes() == out_b.read_bytes(), command


def test_criterion_11_fd_baselines(tmp_path):
    with criterion(
        11, "FD exact on quadratics; matched-budget comparison table emitted"
    ):
        quad = lambda t, r: -0.5 * float(t @ t)
        cfg = dfs.FDConfig(h=0.1, base_seed=0)
        s = dfs.fd_score(quad, THETA1, cfg)
        assert abs(s.values[0] - (-1.0)) < 1e-10
        info = dfs.fd_info(quad, THETA1, cfg)
        assert abs(info.values[0, 0] - 1.0) < 1e-9

        from dfscore.harness import compare_fd, load_config, write_compare_csv

        config_path = tmp_path / "cmp.ini"
        config_path.write_text(CLI_SSM.format(n="400", delta="2"))
        config = load_config(config_path)
        records, table = compare_fd(config)
        out = tmp_path / "cmp.csv"
        write_compare_csv(table, out)
        header = out.read_text().splitlines()[0]
        assert header.split(",")[-1] == "variance_ratio"
        ratios = {row["variance_ratio"] for row in table}
        assert all(r is not None and np.isfinite(r) for r in ratios)
        # report-only: the criterion asserts emission, not the ratio's value
        print(f"    compare-fd variance ratio (FD/proposed): {sorted(ratios)}")
