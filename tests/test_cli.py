"""CLI subcommands: exit codes, validation, reproducible output."""

import os
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
    "method = is-score", "method = fd-score\nloglik_source = smc\nfd_particles = 50"
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


@pytest.mark.parametrize("command", ["sweep-n", "sweep-lag"])
def test_other_sweeps_run(tmp_path, command):
    grid_key = {"sweep-n": "n = 200", "sweep-lag": "delta = 2"}[command]
    replacement = {"sweep-n": "n = 200, 400", "sweep-lag": "delta = 0, 2"}[command]
    config = write(tmp_path, SMC_POINT.replace(grid_key, replacement), "g.ini")
    out = tmp_path / "g.csv"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 4  # 2 grid points x 2 reps
