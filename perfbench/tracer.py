"""Span tracing of dfscore's layers, installed from outside the program.

``Tracer.install`` replaces each traced function at the module attributes
through which the program calls it (every ``dfscore.*`` module attribute
bound to that function object, or the class attribute for methods) with a
wrapper that records a span: name, start, end, span id, parent span id,
thread and one optional count.  Parents are tracked per thread, so work
done on the harness's pool threads nests under that thread's own spans.
Spans stay in memory until ``write`` at the end of the run; ``summarize``
turns a list of spans into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import itertools
import sys
import threading
from time import perf_counter

import numpy as np

KERNELS = (
    "normalize_log_weights",
    "weighted_mean_cov",
    "weighted_crosscov",
    "inverse_cdf_indices",
    "kalman_loglik_core",
)
READOFF_KERNELS = ("kernels.weighted_mean_cov", "kernels.weighted_crosscov")


def rebind(original, replacement):
    """Point every dfscore module attribute bound to ``original`` at
    ``replacement``; returns (module, attribute, original) for undoing."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "dfscore" or mod_name.startswith("dfscore."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, replacement)
    return undo


def _array_bytes(args, kwargs, result):
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray))


def _tau_is_zero(args, kwargs, result):
    tau = args[2] if len(args) > 2 else kwargs["tau"]
    return int(tau == 0.0)


def _rows(args, kwargs, result):
    return int(np.shape(args[0])[0])


def _failed_runs(args, kwargs, result):
    return int(any(record.error for record in result))


class Tracer:
    """Collects spans from wrapped dfscore callables."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def wrap(self, name, fn, count=None):
        """``fn`` wrapped to record a span; ``count(args, kwargs, result)``
        gives the span's count."""
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if count is not None and sys.exc_info()[0] is None:
                    extra = count(args, kwargs, result)
                spans.append((name, start, end, sid, parent, threading.get_ident(), extra))

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, wrapper):
        self._undo += rebind(original, wrapper)

    def _patch_function(self, original, name, count=None):
        self._rebind(original, self.wrap(name, original, count))

    def install(self):
        """Wrap every traced layer of the dfscore package."""
        for layer in ("models", "harness", "cli"):  # not imported by the package itself
            importlib.import_module(f"dfscore.{layer}")
        kernels = sys.modules["dfscore.kernels"]
        for kernel in KERNELS:
            count = None if kernel == "kalman_loglik_core" else _array_bytes
            self._patch_function(getattr(kernels, kernel), f"kernels.{kernel}", count)

        perturbation = sys.modules["dfscore.perturbation"]
        cls = perturbation.PerturbationKernel
        self._replace(cls, "sample", self.wrap("perturbation.sample", cls.sample, _tau_is_zero))

        smc = sys.modules["dfscore.smc"]
        for fn in ("run_extended_bootstrap", "resample", "bootstrap_loglik",
                   "score_from_accumulator", "observed_info_from_accumulator"):
            self._patch_function(getattr(smc, fn), f"smc.{fn}")

        state_space = sys.modules["dfscore.state_space"]
        for fn in ("kalman_score_info", "simulate"):
            self._patch_function(getattr(state_space, fn), f"state_space.{fn}")
        lgssm = state_space.LinearGaussianSSM
        build_ssm = lgssm.state_space

        def traced_state_space(spec):
            model = build_ssm(spec)
            return dataclasses.replace(
                model,
                init_sampler=self.wrap("state_space.propagate", model.init_sampler),
                transition_sampler=self.wrap("state_space.propagate", model.transition_sampler),
                obs_logdensity=self.wrap("state_space.obs_logdensity", model.obs_logdensity),
            )

        self._replace(lgssm, "state_space", functools.wraps(build_ssm)(traced_state_space))

        general = sys.modules["dfscore.general"]
        for fn in ("posterior_moments_is", "posterior_moments_quadrature", "fd_info",
                   "score_from_moments", "observed_info_from_moments"):
            self._patch_function(getattr(general, fn), f"general.{fn}")

        models = sys.modules["dfscore.models"]
        make_model = models.gaussian_location_model

        def traced_location_model(*args, **kwargs):
            model = make_model(*args, **kwargs)
            return dataclasses.replace(
                model,
                log_likelihood=self.wrap("models.log_likelihood", model.log_likelihood, _rows),
            )

        self._rebind(make_model, functools.wraps(make_model)(traced_location_model))

        harness = sys.modules["dfscore.harness"]
        self._patch_function(harness.build_model_bundle, "harness.build_model_bundle")
        self._patch_function(harness.run_experiment, "harness.run_experiment")
        self._patch_function(harness._run_one, "harness.run_one", _failed_runs)
        self._patch_function(harness.write_records_csv, "harness.write_records_csv")
        self._patch_function(harness.write_compare_csv, "harness.write_compare_csv")

        cli = sys.modules["dfscore.cli"]
        self._patch_function(cli.main, "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        """Remove and return the spans recorded so far."""
        taken = self.spans[:]
        del self.spans[: len(taken)]
        return taken

    @staticmethod
    def write(spans, path):
        """Write ``spans`` as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tid\tparent\tthread\tcount\n")
            for name, start, end, sid, parent, thread, extra in spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{sid}\t{parent}\t{thread}\t"
                         f"{'' if extra is None else extra}\n")


def span_cost_us(calls=20000):
    """Extra time one traced call costs, in microseconds."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls * 1e6


# Per-layer metrics: (metric, span name, field).  Fields: calls, s (total
# span time), self_s (span time not covered by child spans), count (sum of
# the span counts), readoffs (read-off kernel calls nested in the span).
LAYER_METRICS = (
    [(f"kernels.{k}.{f}", f"kernels.{k}", f) for k in KERNELS[:4] for f in ("calls", "s")]
    + [(f"kernels.{k}.bytes", f"kernels.{k}", "count") for k in KERNELS[:4]]
    + [
        ("kernels.kalman_loglik_core.calls", "kernels.kalman_loglik_core", "calls"),
        ("kernels.kalman_loglik_core.s", "kernels.kalman_loglik_core", "s"),
        ("perturbation.sample.calls", "perturbation.sample", "calls"),
        ("perturbation.sample.s", "perturbation.sample", "s"),
        ("perturbation.sample.tau0_calls", "perturbation.sample", "count"),
        ("smc.run_extended_bootstrap.calls", "smc.run_extended_bootstrap", "calls"),
        ("smc.run_extended_bootstrap.s", "smc.run_extended_bootstrap", "s"),
        ("smc.run_extended_bootstrap.self_s", "smc.run_extended_bootstrap", "self_s"),
        ("smc.resample.calls", "smc.resample", "calls"),
        ("smc.resample.s", "smc.resample", "s"),
        ("smc.bootstrap_loglik.calls", "smc.bootstrap_loglik", "calls"),
        ("smc.bootstrap_loglik.s", "smc.bootstrap_loglik", "s"),
        ("smc.bootstrap_loglik.discarded_readoffs", "smc.bootstrap_loglik", "readoffs"),
        ("smc.score_from_accumulator.s", "smc.score_from_accumulator", "s"),
        ("smc.observed_info_from_accumulator.s", "smc.observed_info_from_accumulator", "s"),
        ("state_space.propagate.calls", "state_space.propagate", "calls"),
        ("state_space.propagate.s", "state_space.propagate", "s"),
        ("state_space.obs_logdensity.calls", "state_space.obs_logdensity", "calls"),
        ("state_space.obs_logdensity.s", "state_space.obs_logdensity", "s"),
        ("state_space.kalman_score_info.calls", "state_space.kalman_score_info", "calls"),
        ("state_space.kalman_score_info.s", "state_space.kalman_score_info", "s"),
        ("state_space.simulate.s", "state_space.simulate", "s"),
        ("general.posterior_moments_is.calls", "general.posterior_moments_is", "calls"),
        ("general.posterior_moments_is.s", "general.posterior_moments_is", "s"),
        ("general.posterior_moments_quadrature.calls", "general.posterior_moments_quadrature", "calls"),
        ("general.posterior_moments_quadrature.s", "general.posterior_moments_quadrature", "s"),
        ("general.fd_info.calls", "general.fd_info", "calls"),
        ("general.fd_info.s", "general.fd_info", "s"),
        ("general.score_from_moments.s", "general.score_from_moments", "s"),
        ("general.observed_info_from_moments.s", "general.observed_info_from_moments", "s"),
        ("models.log_likelihood.calls", "models.log_likelihood", "calls"),
        ("models.log_likelihood.s", "models.log_likelihood", "s"),
        ("models.log_likelihood.rows", "models.log_likelihood", "count"),
        ("harness.build_model_bundle.s", "harness.build_model_bundle", "s"),
        ("harness.run_experiment.s", "harness.run_experiment", "s"),
        ("harness.replicate_s_sum", "harness.run_one", "s"),
        ("harness.runs", "harness.run_one", "calls"),
        ("harness.runs_failed", "harness.run_one", "count"),
        ("harness.write_records_csv.s", "harness.write_records_csv", "s"),
        ("harness.write_compare_csv.s", "harness.write_compare_csv", "s"),
        ("cli.main.s", "cli.main", "s"),
    ]
)


def summarize(spans):
    """Per-layer metrics of ``spans``; layers that did not run read 0."""
    by_id = {span[3]: span for span in spans}
    child_time = {}
    for name, start, end, sid, parent, thread, extra in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    readoffs = {}
    for name, start, end, sid, parent, thread, extra in spans:
        if name in READOFF_KERNELS:
            while parent in by_id:
                readoffs[parent] = readoffs.get(parent, 0) + 1
                parent = by_id[parent][4]
    totals = {}
    for name, start, end, sid, parent, thread, extra in spans:
        acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "readoffs": 0})
        acc["calls"] += 1
        acc["s"] += end - start
        acc["self_s"] += end - start - child_time.get(sid, 0.0)
        acc["count"] += extra or 0
        acc["readoffs"] += readoffs.get(sid, 0)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "readoffs": 0}
    return {metric: totals.get(span, empty)[field] for metric, span, field in LAYER_METRICS}
