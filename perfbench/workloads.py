"""The benchmark's three workloads: inputs from the seed, timed rounds, checks.

A workload object makes its inputs from the workload seed alone, builds the
estimator's inputs with the program's own calls in ``setup`` (timed as
``setup_s``), runs one whole round of identical operations per
``run_round`` call, and checks every output it kept against the
independent references in ``check``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import traceback
import warnings
from time import perf_counter

import numpy as np

import checks
import references
from tracer import rebind


def _seed_words(seed, count):
    return [int(w) for w in np.random.SeedSequence(seed).generate_state(count, np.uint32)]


def _lgssm_observations(rng, phi, sigma_v, sigma_w, init_mean, init_sd, horizon):
    x = init_mean + init_sd * rng.standard_normal()
    ys = np.empty(horizon)
    for t in range(horizon):
        ys[t] = x + sigma_w * rng.standard_normal()
        x = phi * x + sigma_v * rng.standard_normal()
    return ys


class LagSweep:
    """Library calls as in the README quick start, one replicate at each lag.

    LGSSM with free (phi, log_sigma_v), T=200, N=5000, tau=0.05.  Replicate r
    runs on the same random stream at every lag, so lags are paired.
    """

    name = "lag-sweep"
    lags = (0, 10, 50, 199)
    horizon = 200
    n_particles = 5000
    tau = 0.05
    theta_true = (0.7, 0.0)
    theta = (0.6, -0.1)
    sigmas = (1.2, 1.2)
    estimate_names = tuple(f"lag{lag}" for lag in lags)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.replicates = {lag: [] for lag in self.lags}

    @property
    def samples_per_round(self):
        return len(self.lags) * self.n_particles * self.horizon

    def setup(self):
        dfs = importlib.import_module("dfscore")
        spec = dfs.LinearGaussianSSM(
            free=("phi", "log_sigma_v"), fixed={"log_sigma_w": 0.0}, init="fixed", init_sd=1.0
        )
        ssm = spec.state_space()
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0)))
        _, ys = dfs.simulate(ssm, np.array(self.theta_true), self.horizon, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dfs.OracleAccuracyWarning)
            dfs.kalman_score_info(spec, np.array(self.theta), ys)
        self.dfs, self.ssm, self.ys = dfs, ssm, ys

    def reference(self):
        f = references.lgssm_free_loglik(self.ys)
        self.ref_score, self.ref_info = references.richardson_derivatives(f, self.theta)

    def run_round(self, r):
        dfs = self.dfs
        theta = np.array(self.theta)
        kernel = dfs.make_gaussian_kernel(self.sigmas)
        estimates = {}
        kept = {}
        failed = 0
        start = perf_counter()
        for lag in self.lags:
            config = dfs.ExtendedFilterConfig(
                theta=theta, tau=self.tau, kernel=kernel, lag=lag, n_particles=self.n_particles
            )
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1, r)))
            t0 = perf_counter()
            try:
                acc = dfs.run_extended_bootstrap(self.ssm, self.ys, config, rng=rng)
                score = dfs.score_from_accumulator(acc, theta, self.tau, kernel)
                info = dfs.observed_info_from_accumulator(acc, self.tau, kernel)
            except Exception:  # an estimate that raises counts as failed
                traceback.print_exc()
                failed += 1
                continue
            estimates[f"lag{lag}"] = [perf_counter() - t0]
            kept[lag] = (
                {
                    "score": np.array(score.values),
                    "info": np.array(info.values),
                    "complete": acc.is_complete(),
                    "readoff_horizon": acc.readoff_horizon.copy(),
                }
            )
        if not failed:  # keep lags paired: only whole replicates are checked
            for lag, entry in kept.items():
                self.replicates[lag].append(entry)
        return {
            "wall": perf_counter() - start,
            "estimates": estimates,
            "attempted": len(self.lags),
            "failed": failed,
        }

    def finish(self):
        return {}

    def check(self):
        return checks.check_lag_sweep(self.replicates, self.ref_score, self.horizon, self.lags)


class _CliWorkload:
    """Shared plumbing of the workloads that drive the ``dfscore`` CLI."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.configs = self.write_inputs()

    def setup(self):
        dfs_cli = importlib.import_module("dfscore.cli")
        harness = sys.modules["dfscore.harness"]
        for path in self.configs:
            harness.build_model_bundle(harness.load_config(str(path)))
        self.cli = dfs_cli

    def run_cli(self, argv):
        """Run one CLI command with its stdout captured; returns (exit code or
        None if it raised, CSV text)."""
        out = argv[argv.index("--out") + 1]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a traceback is a failed call, not a benchmark crash
            traceback.print_exc()
            return None, ""
        with open(out) as fh:
            return code, fh.read()


class FdCompare(_CliWorkload):
    """``dfscore compare-fd`` (target oim) on an LGSSM with d=2 and T=50."""

    name = "fd-compare"
    horizon = 50
    smc_n = 5000
    replications = 16
    threads = 2
    estimate_names = ("smc-oim", "fd-oim")
    fd_nodes = 10  # 3d + 2d(d-1) stencil nodes for d=2
    theta = (0.6, -0.1)

    def write_inputs(self):
        data_word, run_word = _seed_words(self.seed, 2)
        rng = np.random.default_rng(data_word)
        self.ys = _lgssm_observations(rng, 0.7, 1.0, 1.0, 0.0, 1.0, self.horizon)
        data = self.workdir / "fd-compare-data.csv"
        with open(data, "w") as fh:
            fh.write("t,y\n" + "".join(f"{t},{y!r}\n" for t, y in enumerate(self.ys.tolist(), 1)))
        config = self.workdir / "fd-compare.ini"
        config.write_text(
            "[model]\nkind = lgssm\nfree = phi, log_sigma_v\nlog_sigma_w = 0.0\n"
            f"init = fixed\ninit_sd = 1.0\ndata_csv = {data}\n\n"
            f"[estimator]\nmethod = smc-oim\ntheta = {self.theta[0]}, {self.theta[1]}\n"
            "kernel_sigmas = 1.2, 1.2\n"
            "resampling = systematic\ness_threshold = 0.5\n\n"
            "[grid]\ntau = 0.1\ndelta = 2\nh = 0.1\n\n"
            f"[run]\nreplications = {self.replications}\nseed = {run_word}\n\n"
            f"[compare]\ntarget = oim\nsmc_n = {self.smc_n}\n"
        )
        self.tables = []
        return [config]

    @property
    def samples_per_round(self):
        fd_n = self.smc_n // self.fd_nodes
        return self.replications * self.horizon * (self.smc_n + self.fd_nodes * fd_n)

    def reference(self):
        f = references.lgssm_free_loglik(self.ys)
        _, self.ref_info = references.richardson_derivatives(f, self.theta)

    def compare(self, r, threads):
        harness = sys.modules["dfscore.harness"]
        records = []
        run_experiment = harness.run_experiment

        def capturing(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            records.extend(result)
            return result

        undo = rebind(run_experiment, capturing)
        try:
            out = self.workdir / f"fd-compare-t{threads}-r{r}.csv"
            code, text = self.run_cli(
                ["compare-fd", "--config", str(self.configs[0]), "--out", str(out),
                 "--threads", str(threads)]
            )
        finally:
            for module, attr, original in undo:
                setattr(module, attr, original)
        return code, text, records

    def run_round(self, r):
        start = perf_counter()
        code, text, records = self.compare(r, self.threads)
        wall = perf_counter() - start
        attempted = 2 * self.replications
        runs = {}
        for rec in records:
            runs.setdefault(rec.run_id, rec)
            if rec.error:
                runs[rec.run_id] = rec
        if code is None or code != 0 or len(runs) != attempted:
            return {"wall": wall, "estimates": {}, "attempted": attempted, "failed": attempted}
        self.tables.append(text)
        estimates = {name: [] for name in self.estimate_names}
        for rec in runs.values():
            estimates[rec.method].append(rec.wall_time_ms / 1e3)
        failed = sum(1 for rec in runs.values() if rec.error)
        return {"wall": wall, "estimates": estimates, "attempted": attempted, "failed": failed}

    def finish(self):
        """One --threads 1 run of the same config, outside the timed rounds."""
        start = perf_counter()
        _, self.threads1_table, _ = self.compare("ref", 1)
        return {"compare_fd_threads1_s": perf_counter() - start}

    def check(self):
        if not self.tables:
            return ["no compare-fd round produced a table"]
        out = []
        for r, table in enumerate(self.tables):
            if table != self.tables[0]:
                out.append(f"round {r} table differs from round 0 at the same seed")
        rows = checks.parse_compare_csv(self.tables[0])
        out += checks.check_fd_compare(
            rows, self.ref_info, self.replications, self.tables[0], self.threads1_table
        )
        return out


class GeneralIsQuad(_CliWorkload):
    """Two ``dfscore estimate`` calls on a 2-D conjugate Gaussian model with
    unequal kernel sigmas: is-oim at n=10^6 with replicates, and quad-oim on
    the 2001^2 grid."""

    name = "general-is-quad"
    is_n = 10**6
    replications = 16
    quad_nodes = 2001**2
    tau = 0.1
    obs_sd = 1.0
    sigmas = (1.0, 2.5)
    estimate_names = ("is-oim", "quad-oim")

    def write_inputs(self):
        y_word, theta_word, run_word = _seed_words(self.seed, 3)
        self.y = float(np.random.default_rng(y_word).uniform(-1.0, 1.0))
        self.theta = [float(t) for t in np.random.default_rng(theta_word).uniform(-1.0, 1.0, 2)]
        paths = []
        for method, reps in (("is-oim", self.replications), ("quad-oim", 1)):
            path = self.workdir / f"{method}.ini"
            path.write_text(
                f"[model]\nkind = conjugate-gaussian\ndim = 2\ny = {self.y!r}\n"
                f"obs_sd = {self.obs_sd!r}\n\n"
                f"[estimator]\nmethod = {method}\n"
                f"theta = {self.theta[0]!r}, {self.theta[1]!r}\n"
                f"kernel_sigmas = {self.sigmas[0]!r}, {self.sigmas[1]!r}\n\n"
                f"[grid]\ntau = {self.tau!r}\nn = {self.is_n}\n\n"
                f"[run]\nreplications = {reps}\nseed = {run_word}\n"
            )
            paths.append(path)
        self.is_infos, self.quad_infos = [], []
        return paths

    @property
    def samples_per_round(self):
        return self.replications * self.is_n + self.quad_nodes

    def reference(self):
        _, self.target_info = references.conjugate_targets(
            self.theta, self.y, self.obs_sd, self.tau, self.sigmas
        )

    def run_round(self, r):
        estimates = {}
        attempted = self.replications + 1
        failed = 0
        start = perf_counter()
        for path, method, keep in zip(self.configs, self.estimate_names,
                                      (self.is_infos, self.quad_infos)):
            out = self.workdir / f"{method}-r{r}.csv"
            code, text = self.run_cli(
                ["estimate", "--config", str(path), "--out", str(out), "--timings"]
            )
            reps = self.replications if method == "is-oim" else 1
            if code != 0:
                failed += reps
                continue
            rows = checks.parse_records_csv(text)
            bad = {row["run_id"] for row in rows if row["error"]}
            failed += len(bad)
            good = [row for row in rows if row["run_id"] not in bad]
            estimates[method] = sorted(
                {row["run_id"]: float(row["wall_time_ms"]) / 1e3 for row in good}.values()
            )
            keep.append(checks.records_to_info(good, 2))
        return {
            "wall": perf_counter() - start,
            "estimates": estimates,
            "attempted": attempted,
            "failed": failed,
        }

    def finish(self):
        return {}

    def check(self):
        if not self.is_infos or not self.quad_infos:
            return ["no estimate produced information matrices"]
        out = []
        for name, rounds in (("is-oim", self.is_infos), ("quad-oim", self.quad_infos)):
            for r, infos in enumerate(rounds[1:], 1):
                if not np.array_equal(np.array(infos), np.array(rounds[0])):
                    out.append(f"{name} round {r} differs from round 0 at the same seed")
        return out + checks.check_general(self.is_infos[0], self.quad_infos[0], self.target_info)


WORKLOADS = {w.name: w for w in (LagSweep, FdCompare, GeneralIsQuad)}
