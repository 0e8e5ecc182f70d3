"""Tests of the benchmark itself: references, output checks, tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  The workload checks
run here on reduced inputs; each check also gets a deliberately wrong
estimate that it must reject.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


# ---------------------------------------------------------------------------
# references on closed forms
# ---------------------------------------------------------------------------


def test_richardson_exact_on_quadratic_loglik():
    a = np.array([0.3, -1.2])
    prec = np.array([[4.0, 1.5], [1.5, 2.0]])

    def f(theta):
        diff = np.asarray(theta) - a
        return -0.5 * diff @ prec @ diff + 7.0

    theta = np.array([1.1, 0.4])
    grad, info = references.richardson_derivatives(f, theta)
    np.testing.assert_allclose(grad, -prec @ (theta - a), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(info, prec, rtol=1e-9, atol=1e-9)


def test_lgssm_loglik_matches_two_step_closed_form():
    phi, sv, sw, m0, p0 = 0.8, 0.7, 1.3, 0.2, 1.5
    ys = np.array([0.4, -0.9])
    cov = np.array([[p0 + sw**2, phi * p0], [phi * p0, phi**2 * p0 + sv**2 + sw**2]])
    resid = ys - np.array([m0, phi * m0])
    expected = -0.5 * (
        2 * math.log(2 * math.pi) + math.log(np.linalg.det(cov)) + resid @ np.linalg.solve(cov, resid)
    )
    assert references.lgssm_loglik(ys, phi, sv, sw, m0, p0) == pytest.approx(expected, rel=1e-12)


def test_conjugate_targets_match_numerical_posterior():
    theta, y, obs_sd, tau = np.array([0.5, -0.25]), 0.3, 0.8, 0.2
    sigmas = np.array([1.0, 2.5])
    score, info = references.conjugate_targets(theta, y, obs_sd, tau, sigmas)
    for i in range(2):
        sd = tau * sigmas[i]
        grid = np.linspace(theta[i] - 12 * sd, theta[i] + 12 * sd, 20001)
        logp = -0.5 * ((grid - theta[i]) / sd) ** 2 - 0.5 * ((grid - y) / obs_sd) ** 2
        w = np.exp(logp - logp.max())
        w /= w.sum()
        mean = w @ grid
        var = w @ (grid - mean) ** 2
        assert score[i] == pytest.approx((mean - theta[i]) / sd**2, rel=1e-8)
        assert info[i, i] == pytest.approx((sd**2 - var) / sd**4, rel=1e-6)
    assert info[0, 1] == info[1, 0] == 0.0


def test_t_multiplier_closed_forms():
    # dof 1 (Cauchy): P(|T| > x) = 1 - 2 atan(x) / pi; dof 2: 1 - x / sqrt(2 + x^2)
    for x in (0.5, 2.0, 30.0):
        assert references.student_t_two_sided_tail(x, 1) == pytest.approx(
            1 - 2 * math.atan(x) / math.pi, rel=1e-12
        )
        assert references.student_t_two_sided_tail(x, 2) == pytest.approx(
            1 - x / math.sqrt(2 + x * x), rel=1e-12
        )
    tail = references.NORMAL_4SD_TAIL
    assert references.t_multiplier(tail, 2) == pytest.approx(math.sqrt(2 / ((1 - tail) ** -2 - 1)), rel=1e-9)
    assert 4.0 < references.t_multiplier(tail, 2000) < 4.01


# ---------------------------------------------------------------------------
# workload checks on reduced inputs
# ---------------------------------------------------------------------------


class SmallLagSweep(workloads.LagSweep):
    lags = (0, 2, 5, 19)
    horizon = 20
    n_particles = 300
    estimate_names = tuple(f"lag{lag}" for lag in lags)


class SmallFdCompare(workloads.FdCompare):
    horizon = 10
    smc_n = 500
    replications = 4


class SmallGeneral(workloads.GeneralIsQuad):
    is_n = 20000
    replications = 4


def _ran(workload, rounds):
    workload.setup()
    workload.reference()
    results = [workload.run_round(r) for r in range(rounds)]
    workload.finish()
    return results


def test_lag_sweep_checks_pass_and_reject_wrong_estimates(tmp_path):
    w = SmallLagSweep(3, tmp_path)
    results = _ran(w, 3)
    assert [r["failed"] for r in results] == [0, 0, 0]
    assert w.check() == []

    def check_with(mutate):
        replicates = copy.deepcopy(w.replicates)
        mutate(replicates)
        return checks.check_lag_sweep(replicates, w.ref_score, w.horizon, w.lags)

    def asymmetric(reps):
        reps[2][0]["info"][0, 1] += 1e-12

    def short_horizon(reps):
        reps[19][1]["readoff_horizon"][0] = 5

    def biased(reps):
        for rep in reps[5]:
            rep["score"] = rep["score"] + 1e6

    assert any("bitwise symmetric" in f for f in check_with(asymmetric))
    assert any("read-off horizon" in f for f in check_with(short_horizon))
    assert any("lag 5 score" in f for f in check_with(biased))


def test_fd_compare_checks_pass_and_reject_wrong_estimates(tmp_path):
    w = SmallFdCompare(4, tmp_path)
    results = _ran(w, 2)
    assert all(r["failed"] == 0 and r["attempted"] == 8 for r in results)
    assert set(results[0]["estimates"]) == {"smc-oim", "fd-oim"}
    assert w.check() == []

    rows = checks.parse_compare_csv(w.tables[0])
    wrong_oracle = copy.deepcopy(rows)
    wrong_oracle[0]["oracle"] *= 1 + 1e-5
    assert checks.check_fd_compare(wrong_oracle, w.ref_info, 4, "a", "a")
    wrong_mean = copy.deepcopy(rows)
    wrong_mean[-1]["mean_estimate"] = -1e6
    assert checks.check_fd_compare(wrong_mean, w.ref_info, 4, "a", "a")
    assert checks.check_fd_compare(rows, w.ref_info, 4, "a", "b")


def test_general_checks_pass_and_reject_wrong_estimates(tmp_path):
    w = SmallGeneral(5, tmp_path)
    results = _ran(w, 1)
    assert results[0]["failed"] == 0 and results[0]["attempted"] == 5
    assert w.check() == []

    is_infos, quad_infos = w.is_infos[0], w.quad_infos[0]
    off = [quad_infos[0] + 1e-4 * np.eye(2)]
    assert any("quad-oim" in f for f in checks.check_general(is_infos, off, w.target_info))
    biased = [m + 1e3 * np.eye(2) for m in is_infos]
    assert any("is-oim" in f for f in checks.check_general(biased, quad_infos, w.target_info))


# ---------------------------------------------------------------------------
# tracer and the benchmark definition
# ---------------------------------------------------------------------------


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    import dfscore.harness as harness
    import dfscore.kernels as kernels

    before = (kernels.weighted_mean_cov, harness.run_experiment)
    w = SmallFdCompare(6, tmp_path)
    tracer = Tracer()
    try:
        tracer.install()
        _ran(w, 1)
        layers = summarize(tracer.take())
    finally:
        tracer.uninstall()
    assert (kernels.weighted_mean_cov, harness.run_experiment) == before
    filters = w.replications * w.fd_nodes
    assert layers["smc.bootstrap_loglik.calls"] == 2 * filters  # timed round + --threads 1
    # tau=0 filters draw a point-mass prior and read off a moment every step
    assert layers["smc.bootstrap_loglik.discarded_readoffs"] == 2 * filters * w.horizon
    assert layers["perturbation.sample.tau0_calls"] == 2 * filters * w.horizon
    assert layers["harness.runs"] == 4 * w.replications
    assert layers["harness.runs_failed"] == 0
    assert layers["state_space.obs_logdensity.calls"] > 0
    assert layers["smc.run_extended_bootstrap.self_s"] > 0.0


def test_benchmark_json_matches_the_metrics_the_command_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_command_refuses_to_run_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "lag-sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
