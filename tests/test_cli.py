"""CLI subcommands: exit codes, validation, reproducible output."""

import csv
import os
import re
import subprocess
import sys

import pytest

import dfscore
from dfscore.cli import EXIT_ALL_FAILED, EXIT_CONFIG, EXIT_OK, main

IS_SWEEP = """
[model]
kind = conjugate-gaussian
dim = 1

[estimator]
method = is-score
theta = 1.0
kernel_sigmas = 1.0

[grid]
tau = 0.2, 0.1
n = 500

[run]
replications = 2
seed = 3
"""

SMC_POINT = """
[model]
kind = lgssm
free = phi
log_sigma_v = 0.0
log_sigma_w = 0.0
init = fixed
init_sd = 1.0
theta_true = 0.5
data_seed = 3
horizon = 8

[estimator]
method = smc-score
theta = 0.4
kernel_sigmas = 1.0

[grid]
tau = 0.1
n = 200
delta = 2

[run]
replications = 2
seed = 5
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_estimate_exit_code_and_output(tmp_path):
    config = write(tmp_path, SMC_POINT, "smc.ini")
    out = tmp_path / "out.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2  # header + one score row per replication


def test_estimate_rejects_non_singleton_grid(tmp_path):
    config = write(tmp_path, IS_SWEEP, "sweep.ini")
    assert (
        main(["estimate", "--config", config, "--out", str(tmp_path / "o.csv")])
        == EXIT_CONFIG
    )


def test_sweep_requires_multiple_points(tmp_path):
    config = write(tmp_path, SMC_POINT, "smc.ini")
    assert (
        main(["sweep-tau", "--config", config, "--out", str(tmp_path / "o.csv")])
        == EXIT_CONFIG
    )
    sweep = write(tmp_path, IS_SWEEP, "sweep.ini")
    assert (
        main(["sweep-tau", "--config", sweep, "--out", str(tmp_path / "s.csv")])
        == EXIT_OK
    )


def test_seed_flag_changes_output(tmp_path):
    config = write(tmp_path, SMC_POINT, "smc.ini")
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    main(["estimate", "--config", config, "--out", str(a)])
    main(["estimate", "--config", config, "--out", str(b), "--seed", "999"])
    main(["estimate", "--config", config, "--out", str(c), "--seed", "999"])
    assert a.read_text() != b.read_text()
    assert b.read_text() == c.read_text()


def test_missing_config_file(tmp_path):
    assert (
        main(["estimate", "--config", str(tmp_path / "nope.ini"), "--out", "x.csv"])
        == EXIT_CONFIG
    )


def test_all_runs_failed_exit_code(tmp_path):
    # Poisson at theta=800: every importance weight is zero in every rep
    text = IS_SWEEP.replace("kind = conjugate-gaussian\ndim = 1", "kind = poisson\ny = 3")
    text = text.replace("theta = 1.0", "theta = 800.0")
    text = text.replace("tau = 0.2, 0.1", "tau = 0.1")
    config = write(tmp_path, text, "fail.ini")
    out = tmp_path / "f.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_ALL_FAILED
    assert "DegeneratePosteriorError" in out.read_text()


def test_stationary_init_out_of_domain_draws_are_tagged_rows(tmp_path):
    # theta = 0.95 with tau = 0.3 perturbs some particles to |phi| >= 1,
    # which the stationary initial law cannot take
    text = SMC_POINT.replace("init = fixed\ninit_sd = 1.0", "init = stationary")
    text = text.replace("method = smc-score", "method = smc-oim")
    text = text.replace("theta = 0.4", "theta = 0.95").replace("tau = 0.1", "tau = 0.3")
    config = write(tmp_path, text, "stationary.ini")
    out = tmp_path / "st.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_ALL_FAILED
    header, *rows = out.read_text().splitlines()
    assert header.endswith(",error")
    assert len(rows) == 2  # one 1x1 information row per replication
    assert all(row.endswith(",ParameterDomainError") for row in rows)


CONJUGATE_2D = IS_SWEEP.replace("dim = 1", "dim = 2").replace("tau = 0.2, 0.1", "tau = 0.1")
IS_ON_LGSSM = SMC_POINT.replace("method = smc-score", "method = is-score")
IS_ON_NONLINEAR = IS_ON_LGSSM.replace("kind = lgssm", "kind = nonlinear-ar1").replace(
    "method = is-score", "method = is-oim"
)
# two parameters and the default single kernel sigma
NO_SIGMAS_2D = CONJUGATE_2D.replace("theta = 1.0\nkernel_sigmas = 1.0", "theta = 1.0, 0.5")
# one theta value for a two-parameter model
ONE_THETA_2D = CONJUGATE_2D.replace("kernel_sigmas = 1.0", "kernel_sigmas = 1.0, 1.0")
UNKNOWN_FREE_NAME = SMC_POINT.replace("free = phi", "free = phi, foo")
# FD on a particle-filter likelihood needs a state-space model
FD_SMC_ON_CONJUGATE = IS_SWEEP.replace("tau = 0.2, 0.1", "tau = 0.1").replace(
    "method = is-score", "method = fd-score\nloglik_source = smc"
)
FD_SMC_ON_POISSON = FD_SMC_ON_CONJUGATE.replace(
    "kind = conjugate-gaussian\ndim = 1", "kind = poisson\ny = 3"
).replace("method = fd-score", "method = fd-oim")


@pytest.mark.parametrize(
    "name, text, key",
    [
        ("is-on-lgssm", IS_ON_LGSSM, "estimator.method"),
        ("is-on-nonlinear", IS_ON_NONLINEAR, "estimator.method"),
        ("no-sigmas-2d", NO_SIGMAS_2D, "estimator.kernel_sigmas"),
        ("one-theta-2d", ONE_THETA_2D, "estimator.theta"),
        ("unknown-free-name", UNKNOWN_FREE_NAME, "model.free"),
        ("fd-smc-on-conjugate", FD_SMC_ON_CONJUGATE, "estimator.loglik_source"),
        ("fd-smc-on-poisson", FD_SMC_ON_POISSON, "estimator.loglik_source"),
    ],
)
def test_model_method_and_dimension_mismatch_is_a_config_error(
    tmp_path, capsys, name, text, key
):
    config = write(tmp_path, text, f"{name}.ini")
    out = tmp_path / f"{name}.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("init = fixed", "init = bogus", "model.init"),
        ("init_sd = 1.0", "init_sd = 0", "model.init_sd"),
        ("horizon = 8", "horizon = ten", "model.horizon"),
        ("horizon = 8", "horizon = 0", "model.horizon"),
    ],
    ids=["init-bogus", "fixed-init-sd-zero", "horizon-not-a-number", "horizon-zero"],
)
def test_bad_lgssm_model_value_is_a_config_error(tmp_path, capsys, old, new, key):
    assert old in SMC_POINT
    config = write(tmp_path, SMC_POINT.replace(old, new), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["oracle", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


POISSON_POINT = IS_SWEEP.replace("kind = conjugate-gaussian\ndim = 1", "kind = poisson\ny = 3")


@pytest.mark.parametrize("y", ["2.7", "-1"], ids=["fractional", "negative"])
def test_poisson_y_that_is_not_a_count_is_a_config_error(tmp_path, capsys, y):
    # a fractional count used to be truncated, a negative one to exit 1
    config = write(tmp_path, POISSON_POINT.replace("y = 3", f"y = {y}"), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["oracle", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "(key: model.y)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows",
    [
        "t,y\n",
        None,
        "time,y\n1,0.3\n2,0.1\n",
        "t,y\n1,0.3\n2,nan\n3,0.1\n",
        "t,y\n2,0.3\n1,0.1\n7,0.4\n",
    ],
    ids=["header-only", "missing-file", "wrong-header", "nan-value", "out-of-order-t"],
)
def test_bad_data_csv_is_a_config_error(tmp_path, capsys, rows):
    data = tmp_path / "ys.csv"
    if rows is not None:
        data.write_text(rows)
    text = SMC_POINT.replace("horizon = 8", f"horizon = 8\ndata_csv = {data}")
    config = write(tmp_path, text, "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "(key: model.data_csv)" in capsys.readouterr().err
    assert not out.exists()


NONLINEAR_POINT = SMC_POINT.replace("kind = lgssm", "kind = nonlinear-ar1")


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("init = fixed", "init = stationary", "model.init"),
        ("init = fixed", "init = bogus", "model.init"),
        ("init_sd = 1.0", "init_sd = -3", "model.init_sd"),
    ],
    ids=["init-stationary", "init-bogus", "init-sd-negative"],
)
def test_bad_nonlinear_model_value_is_a_config_error(tmp_path, capsys, old, new, key):
    # this model has only the fixed initial law N(init_mean, init_sd^2)
    assert old in NONLINEAR_POINT
    config = write(tmp_path, NONLINEAR_POINT.replace(old, new), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_on_a_kind_without_one_is_a_config_error(tmp_path, capsys):
    # nonlinear-ar1 leaves its oracle slot empty
    config = write(tmp_path, NONLINEAR_POINT, "nonlinear.ini")
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "(key: estimator.method)" in capsys.readouterr().err
    assert not out.exists()


def test_nonlinear_model_defaults_unset_scales_to_zero(tmp_path):
    explicit = NONLINEAR_POINT
    implicit = explicit.replace("log_sigma_v = 0.0\nlog_sigma_w = 0.0\n", "")
    outs = []
    for name, text in (("explicit", explicit), ("implicit", implicit)):
        out = tmp_path / f"{name}.csv"
        config = write(tmp_path, text, f"{name}.ini")
        assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_OK
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 2


def test_console_entry_point_runs(tmp_path):
    config = write(tmp_path, SMC_POINT, "smc.ini")
    out = tmp_path / "sub.csv"
    # the child imports the same dfscore as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(dfscore.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dfscore.cli", "estimate", "--config", config, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_readme_config_example_runs_oracle(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        example = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    config = write(tmp_path, example, "readme.ini")
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--config", config, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 2 + 4  # d = 2: score and information


@pytest.mark.parametrize("command", ["sweep-n", "sweep-lag"])
def test_other_sweeps_run(tmp_path, command):
    grid_key = {"sweep-n": "n = 200", "sweep-lag": "delta = 2"}[command]
    replacement = {"sweep-n": "n = 200, 400", "sweep-lag": "delta = 0, 2"}[command]
    config = write(tmp_path, SMC_POINT.replace(grid_key, replacement), "g.ini")
    out = tmp_path / "g.csv"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 4  # 2 grid points x 2 reps


IS_POINT = IS_SWEEP.replace("tau = 0.2, 0.1", "tau = 0.1")
QUAD_POINT = IS_POINT.replace("method = is-score", "method = quad-oim")
FD_POINT = IS_POINT.replace("method = is-score", "method = fd-score")
STATIONARY_POINT = SMC_POINT.replace("init = fixed\ninit_sd = 1.0", "init = stationary")
POISSON_ESTIMATE = POISSON_POINT.replace("tau = 0.2, 0.1", "tau = 0.1")
FD_SMC_POINT = SMC_POINT.replace(
    "method = smc-score", "method = fd-score\nloglik_source = smc"
).replace("n = 200", "n = 50")


@pytest.mark.parametrize(
    "base, old, new, key",
    [
        (SMC_POINT, "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\ness_threshold = 1.5",
         "estimator.ess_threshold"),
        (SMC_POINT, "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nresampling = bogus",
         "estimator.resampling"),
        (IS_POINT, "tau = 0.1", "tau = 0", "grid.tau"),
        (QUAD_POINT, "tau = 0.1", "tau = 0", "grid.tau"),
        (SMC_POINT, "tau = 0.1", "tau = 0", "grid.tau"),
        (FD_SMC_POINT, "n = 50", "n = 1", "grid.n"),
        (SMC_POINT, "tau = 0.1", "tau_rule = n^(-1/0)", "grid.tau_rule"),
        (IS_POINT, "dim = 1", "dim = 1\nobs_sd = 0", "model.obs_sd"),
        (IS_POINT, "dim = 1", "dim = 1\nobs_sd = -1", "model.obs_sd"),
        (IS_POINT, "dim = 1", "dim = 1\nobs_sd = nan", "model.obs_sd"),
        (IS_POINT, "dim = 1", "dim = -2", "model.dim"),
        (IS_POINT, "dim = 1", "dim = 0", "model.dim"),
        (IS_POINT, "dim = 1", "dim = 1\ny = nan", "model.y"),
        (SMC_POINT, "data_seed = 3", "data_seed = -1", "model.data_seed"),
        (SMC_POINT, "init_sd = 1.0", "init_sd = inf", "model.init_sd"),
        (SMC_POINT, "init_sd = 1.0", "init_sd = 1.0\ninit_mean = nan", "model.init_mean"),
        (SMC_POINT, "log_sigma_v = 0.0", "log_sigma_v = nan", "model.log_sigma_v"),
        (SMC_POINT, "theta_true = 0.5", "theta_true = nan", "model.theta_true"),
        (SMC_POINT, "theta = 0.4", "theta = nan", "estimator.theta"),
        (FD_POINT, "n = 500", "n = 500\nh = nan", "grid.h"),
        (FD_POINT, "n = 500", "n = 500\nh = inf", "grid.h"),
        (SMC_POINT, "seed = 5", "seed = -1", "run.seed"),
        (SMC_POINT, "tau = 0.1", "tau = inf", "grid.tau"),
        (STATIONARY_POINT, "theta_true = 0.5", "theta_true = 1.5", "model.theta_true"),
        (STATIONARY_POINT, "theta = 0.4", "theta = 1.5", "estimator.theta"),
    ],
    ids=[
        "ess-threshold-above-one",
        "resampling-bogus",
        "is-tau-zero",
        "quad-tau-zero",
        "smc-tau-zero",
        "fd-smc-one-particle",
        "tau-rule-zero-denominator",
        "obs-sd-zero",
        "obs-sd-negative",
        "obs-sd-nan",
        "dim-negative",
        "dim-zero",
        "conjugate-y-nan",
        "data-seed-negative",
        "init-sd-inf",
        "init-mean-nan",
        "fixed-log-sigma-v-nan",
        "theta-true-nan",
        "theta-nan",
        "fd-h-nan",
        "fd-h-inf",
        "run-seed-negative",
        "tau-inf",
        "stationary-theta-true-out-of-domain",
        "stationary-theta-out-of-domain",
    ],
)
def test_setting_the_library_rejects_is_a_config_error(tmp_path, capsys, base, old, new, key):
    assert old in base
    config = write(tmp_path, base.replace(old, new), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "base, old, new, key",
    [
        (IS_POINT, "dim = 1", "dim = 1\ninit = bogus", "model.init"),
        (POISSON_ESTIMATE, "y = 3", "y = 3\nphi = 0.3", "model.phi"),
        (POISSON_ESTIMATE, "y = 3", "y = 3\nhorizon = 7", "model.horizon"),
        (SMC_POINT, "horizon = 8", "horizon = 8\ny = 4", "model.y"),
        (SMC_POINT, "horizon = 8", "horizon = 8\ndim = 3", "model.dim"),
        (SMC_POINT, "free = phi", "free = phi\nphi = 0.9", "model.phi"),
    ],
    ids=[
        "conjugate-init", "poisson-phi", "poisson-horizon", "lgssm-y", "lgssm-dim",
        "value-for-free-phi",
    ],
)
def test_key_the_model_does_not_take_is_a_config_error(
    tmp_path, capsys, base, old, new, key
):
    # these keys used to be ignored, and the run exited 0
    assert base.count(old) == 1
    config = write(tmp_path, base.replace(old, new), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    config = write(tmp_path, SMC_POINT, "smc.ini")
    out = tmp_path / "out.csv"
    argv = ["estimate", "--config", config, "--out", str(out), "--seed", "-3"]
    assert main(argv) == EXIT_CONFIG
    assert "(key: run.seed)" in capsys.readouterr().err
    assert not out.exists()


def test_fd_ignores_tau_zero(tmp_path):
    text = IS_POINT.replace("method = is-score", "method = fd-score").replace("tau = 0.1", "tau = 0")
    config = write(tmp_path, text, "fd.ini")
    assert main(["estimate", "--config", config, "--out", str(tmp_path / "fd.csv")]) == EXIT_OK


def test_compare_smc_n_below_two_names_its_key(tmp_path, capsys):
    config = write(tmp_path, SMC_POINT + "\n[compare]\nsmc_n = 1\n", "cmp.ini")
    out = tmp_path / "cmp.csv"
    assert main(["compare-fd", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "(key: compare.smc_n)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("theta = 0.4", "theta = 0.4x", "estimator.theta"),
        ("kernel_sigmas = 1.0", "kernel_sigmas = one", "estimator.kernel_sigmas"),
        ("kernel_sigmas = 1.0", "kernel_sigmas = 1.0\ness_threshold = abc",
         "estimator.ess_threshold"),
        # fd_particles is no longer a key; this row and the two fd-particles rows of
        # test_key_the_method_does_not_read_is_a_config_error meet the unknown-key rule
        ("kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nfd_particles = x", "estimator.fd_particles"),
        ("tau = 0.1", "tau = 0.1, x", "grid.tau"),
        ("n = 200", "n = 2e2", "grid.n"),
        ("delta = 2", "delta = two", "grid.delta"),
        ("delta = 2", "delta = 2\nh = x", "grid.h"),
        ("replications = 2", "replications = x", "run.replications"),
        ("seed = 5", "seed = 1.5", "run.seed"),
        ("seed = 5", "seed = 5\n\n[compare]\nsmc_n = many", "compare.smc_n"),
        ("theta_true = 0.5", "theta_true = 0.5x", "model.theta_true"),
    ],
    ids=[
        "theta", "kernel-sigmas", "ess-threshold", "fd-particles", "tau", "n", "delta", "h",
        "replications", "seed", "smc-n", "theta-true",
    ],
)
def test_malformed_value_names_its_key(tmp_path, capsys, old, new, key):
    assert SMC_POINT.count(old) == 1
    config = write(tmp_path, SMC_POINT.replace(old, new), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "base, old, new, key",
    [
        (SMC_POINT, "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nloglik_source = smc",
         "estimator.loglik_source"),
        (SMC_POINT, "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nfd_particles = 7",
         "estimator.fd_particles"),
        (FD_SMC_POINT, "loglik_source = smc", "loglik_source = smc\ness_threshold = 0.5",
         "estimator.ess_threshold"),
        (IS_POINT, "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nresampling = systematic",
         "estimator.resampling"),
        (QUAD_POINT, "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nfd_particles = 7",
         "estimator.fd_particles"),
    ],
    ids=[
        "loglik-source-on-smc", "fd-particles-on-smc", "ess-threshold-on-fd",
        "resampling-on-is", "fd-particles-on-quad",
    ],
)
def test_key_the_method_does_not_read_is_a_config_error(tmp_path, capsys, base, old, new, key):
    # these keys used to be ignored, and the run exited 0
    assert base.count(old) == 1
    config = write(tmp_path, base.replace(old, new), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


def test_keys_the_method_reads_are_accepted(tmp_path):
    smc = SMC_POINT.replace(
        "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nresampling = systematic\ness_threshold = 0.5"
    )
    fd = FD_SMC_POINT.replace("loglik_source = smc", "loglik_source = smc\nresampling = systematic")
    for name, text in (("smc", smc), ("fd", fd)):
        config = write(tmp_path, text, f"{name}.ini")
        assert main(["estimate", "--config", config, "--out", str(tmp_path / f"{name}.csv")]) == EXIT_OK


def test_removed_fd_particles_key_is_a_config_error(tmp_path, capsys):
    # FD on SMC likelihoods takes its particles per node from grid.n; this
    # config used to exit 0
    text = FD_SMC_POINT.replace("loglik_source = smc", "loglik_source = smc\nfd_particles = 50")
    config = write(tmp_path, text, "fd.ini")
    out = tmp_path / "fd.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "(key: estimator.fd_particles)" in capsys.readouterr().err
    assert not out.exists()


# compare-fd sets n itself, so its configs give none
COMPARE_SSM = SMC_POINT.replace("n = 200\n", "") + "\n[compare]\nsmc_n = 200\n"
# smc-score reads ess_threshold, but compare-fd runs is-score on this model
COMPARE_GENERAL = (
    IS_POINT.replace("is-score", "smc-score").replace("n = 500\n", "")
    + "\n[compare]\nsmc_n = 500\n"
)


@pytest.mark.parametrize("method", ["fd-score", "smc-score"])
def test_compare_fd_judges_keys_by_the_methods_it_runs(tmp_path, method):
    # the proposed smc side reads ess_threshold; under method = fd-score
    # this config used to be a config error
    text = COMPARE_SSM.replace("method = smc-score", f"method = {method}").replace(
        "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\nresampling = systematic\ness_threshold = 0.5"
    )
    config = write(tmp_path, text, "cmp.ini")
    out = tmp_path / "cmp.csv"
    assert main(["compare-fd", "--config", config, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 2  # fd and smc score rows


def test_compare_fd_reports_the_rows_it_wrote(tmp_path, capsys):
    # one parameter and two replications per side: four run records, two rows
    config = write(tmp_path, COMPARE_SSM, "cmp.ini")
    out = tmp_path / "cmp.csv"
    assert main(["compare-fd", "--config", config, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 2
    assert capsys.readouterr().out == f"wrote {out}: 2 rows (0 failed)\n"


@pytest.mark.parametrize(
    "base, old, new, key",
    [
        (COMPARE_SSM, "method = smc-score", "method = fd-score\nloglik_source = smc",
         "estimator.loglik_source"),
        (COMPARE_SSM, "method = smc-score", "method = fd-score\nloglik_source = exact",
         "estimator.loglik_source"),
        (COMPARE_GENERAL, "kernel_sigmas = 1.0", "kernel_sigmas = 1.0\ness_threshold = 0.5",
         "estimator.ess_threshold"),
        (COMPARE_SSM, "replications = 2", "replications = 1", "run.replications"),
        (COMPARE_GENERAL, "tau = 0.1", "tau = 0.1, 0.5\nh = 0.1, 0.3", "grid.tau"),
        (COMPARE_GENERAL, "tau = 0.1", "tau = 0.1\nh = 0.1, 0.3", "grid.h"),
        (COMPARE_SSM, "delta = 2", "delta = 0, 5", "grid.delta"),
    ],
    ids=["loglik-source-smc", "loglik-source-exact", "ess-threshold-on-is", "one-replication",
         "two-tau-on-is", "two-h-on-fd", "two-delta-on-smc"],
)
def test_compare_fd_config_error(tmp_path, capsys, base, old, new, key):
    # each of these configs used to exit 0: compare-fd overrode loglik_source,
    # ignored an ess_threshold its is side does not read, wrote a zero
    # variance for a single replicate, and averaged the runs of every grid
    # point into one table row
    assert base.count(old) == 1
    config = write(tmp_path, base.replace(old, new), "cmp.ini")
    out = tmp_path / "cmp.csv"
    assert main(["compare-fd", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


DATA_POINT = SMC_POINT.replace("theta_true = 0.5\ndata_seed = 3\nhorizon = 8\n", "data_csv = {data}\n")


@pytest.mark.parametrize(
    "extra, key",
    [
        ("theta_true = 0.5, 9, 9", "model.theta_true"),
        ("data_seed = 3", "model.data_seed"),
        ("horizon = 8", "model.horizon"),
        ("", None),
    ],
    ids=["theta-true", "data-seed", "horizon", "file-alone"],
)
def test_simulation_key_next_to_data_csv_is_a_config_error(tmp_path, capsys, extra, key):
    # next to a readable file these keys used to be ignored, and the run exited 0
    data = tmp_path / "ys.csv"
    data.write_text("t,y\n1,0.3\n2,-0.1\n3,0.4\n")
    text = DATA_POINT.format(data=data).replace("init_sd = 1.0", f"init_sd = 1.0\n{extra}")
    config = write(tmp_path, text, "data.ini")
    out = tmp_path / "data.csv"
    code = main(["estimate", "--config", config, "--out", str(out)])
    if key is None:
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 2
    else:
        assert code == EXIT_CONFIG
        assert f"(key: {key})" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("log_sigma_v = 0.0\n", "", "model.free"),
        ("theta_true = 0.5", "theta_true = 0.5, 9", "model.theta_true"),
    ],
    ids=["scale-neither-free-nor-fixed", "theta-true-too-long"],
)
def test_lgssm_parameter_count_mismatch_is_a_config_error(tmp_path, capsys, old, new, key):
    assert SMC_POINT.count(old) == 1
    config = write(tmp_path, SMC_POINT.replace(old, new), "bad.ini")
    out = tmp_path / "bad.csv"
    assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


TAU_RULE_SWEEP = IS_SWEEP.replace("tau = 0.2, 0.1\nn = 500", "tau_rule = n^(-1/3)\nn = 100, 400, 1600")
SLOPE_LINE = r"log-log MSE slope vs {}: -?\d+\.\d{{4}} \+/- \d+\.\d{{4}} \(3 points\)"


@pytest.mark.parametrize("command", ["sweep-n", "sweep-tau"])
def test_tau_rule_grid_couples_tau_to_n(tmp_path, capsys, command):
    # under a tau_rule, sweep-tau sweeps the n axis too
    config = write(tmp_path, TAU_RULE_SWEEP, "rule.ini")
    out = tmp_path / "rule.csv"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2
    assert {int(row["n_particles"]) for row in rows} == {100, 400, 1600}
    for row in rows:
        assert float(row["tau"]) == float(row["n_particles"]) ** (-1 / 3)
    x_field = "tau" if command == "sweep-tau" else "n_particles"
    assert re.search(SLOPE_LINE.format(x_field), capsys.readouterr().out)


@pytest.mark.parametrize(
    "command, pooled, single, x_field",
    [
        ("sweep-tau", "tau = 0.05, 0.1, 0.2\nn = 100, 1000", "tau = 0.05, 0.1, 0.2\nn = 100",
         "tau"),
        ("sweep-n", "tau = 0.1, 0.2\nn = 100, 400, 1600", "tau = 0.1\nn = 100, 400, 1600",
         "n_particles"),
    ],
    ids=["sweep-tau", "sweep-n"],
)
def test_sweep_slope_needs_one_point_on_every_other_axis(
    tmp_path, capsys, command, pooled, single, x_field
):
    # one slope used to pool the MSEs of both points at each x
    skipped = f"no log-log MSE slope vs {x_field}: the sweep spans other grid axes too\n"
    for grid, rows in ((pooled, 1 + 3 * 2 * 2), (single, 1 + 3 * 2)):
        config = write(tmp_path, IS_SWEEP.replace("tau = 0.2, 0.1\nn = 500", grid), "sweep.ini")
        out = tmp_path / "sweep.csv"
        assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == rows
        printed = capsys.readouterr().out
        slope = re.search(SLOPE_LINE.format(x_field), printed)
        assert (slope is None, skipped in printed) == (grid is pooled, grid is pooled)


def test_sweep_tau_under_a_tau_rule_needs_two_n_points(tmp_path, capsys):
    text = TAU_RULE_SWEEP.replace("n = 100, 400, 1600", "n = 100")
    config = write(tmp_path, text, "rule.ini")
    out = tmp_path / "rule.csv"
    assert main(["sweep-tau", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "(key: grid.n)" in capsys.readouterr().err
    assert not out.exists()


# is-score reads tau and n, not delta or h
UNREAD_AXES = IS_SWEEP.replace("n = 500", "n = 500\ndelta = 0, 2, 5\nh = 0.1, 0.2")


def test_grid_spans_only_the_axes_the_method_reads(tmp_path):
    # the parent wrote 24 rows for each call: 12 grid points, blank on delta and h
    config = write(tmp_path, UNREAD_AXES, "unread.ini")
    sweep, oracle = tmp_path / "sweep.csv", tmp_path / "oracle.csv"
    assert main(["sweep-tau", "--config", config, "--out", str(sweep)]) == EXIT_OK
    with open(sweep, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["run_id"], row["tau"]) for row in rows] == [
        ("is-score.g000.r0000", "0.2"), ("is-score.g000.r0001", "0.2"),
        ("is-score.g001.r0000", "0.1"), ("is-score.g001.r0001", "0.1"),
    ]
    assert main(["oracle", "--config", config, "--out", str(oracle)]) == EXIT_OK
    assert len(oracle.read_text().splitlines()) == 1 + 2  # one score and one info row
    point = write(tmp_path, UNREAD_AXES.replace("tau = 0.2, 0.1", "tau = 0.2"), "point.ini")
    out = tmp_path / "point.csv"
    assert main(["estimate", "--config", point, "--out", str(out)]) == EXIT_OK
    # estimate's one-point rule holds on tau and n only, and its point is g000
    assert out.read_text().splitlines() == sweep.read_text().splitlines()[:3]


@pytest.mark.parametrize(
    "command, base, key",
    [
        ("sweep-lag", UNREAD_AXES, "grid.delta"),
        ("sweep-n", QUAD_POINT.replace("n = 500", "n = 500, 1000"), "grid.n"),
        ("sweep-tau", FD_POINT.replace("tau = 0.1", "tau = 0.2, 0.1"), "grid.tau"),
    ],
    ids=["delta-on-is", "n-on-quad", "tau-on-exact-fd"],
)
def test_sweep_over_an_axis_the_method_does_not_read_is_a_config_error(
    tmp_path, capsys, command, base, key
):
    config = write(tmp_path, base, "unread.ini")
    out = tmp_path / "unread.csv"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


def test_out_that_cannot_be_written_is_a_config_error_before_any_run(tmp_path, capsys):
    # the parent ran every replication, then raised FileNotFoundError
    config = write(tmp_path, SMC_POINT, "smc.ini")
    for out in (tmp_path / "missing" / "out.csv", tmp_path):
        assert main(["estimate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert "(key: --out)" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    config = write(tmp_path, IS_POINT, "is.ini")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--config", config, "--out", str(out), "--threads", threads])
    assert exc.value.code == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()
