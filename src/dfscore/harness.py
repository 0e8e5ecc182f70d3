"""Experiment harness: configs, seeded replication, sweeps, CSV reports.

Configuration lives in flat INI files (``key = value`` under ``[model]``,
``[estimator]``, ``[grid]``, ``[run]``, and optionally ``[compare]``).  One
table, ``_SCHEMA``, holds every key: the ``ExperimentConfig`` field it fills
(``[model]`` values go to ``model_params``), its parser, its default, its
check and the model kinds and methods it applies to.  ``ExperimentConfig``
runs the checks however it is built, so a config made in code or by
``dataclasses.replace`` meets the same rules as a file.  ``load_config``
also rejects a key given in the file that the method does not read, and it
holds each CLI command's grid contract.  A second table, ``_KINDS``, gives
each model kind its family and the builder of its model, data and oracle,
which applies the rules that span several ``[model]`` keys.

Every replication draws its random stream from
``numpy.random.SeedSequence((base_seed, grid_index, rep_index))``, which
mixes the three words through SeedSequence's collision-resistant hash, so
grid points and replications never share streams.  Runs are deterministic
given the config and base seed: records are sorted before writing and the
one CSV writer (``results._write_csv``) gives floats their shortest
round-trip ``repr``, so identical runs emit byte-identical CSV.  Wall-clock
timings are kept on the records but written to the CSV only on request,
because timing values are the one field that cannot reproduce.
"""

from __future__ import annotations

import configparser
import itertools
import math
import os
import re
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .general import (
    DegeneratePosteriorError,
    FDConfig,
    GeneralModel,
    _fd_stencil,
    fd_info,
    fd_score,
    observed_info_from_moments,
    posterior_moments_is,
    posterior_moments_quadrature,
    score_from_moments,
)
from .models import gaussian_location_derivatives, gaussian_location_model
from .models import poisson_loglink_derivatives, poisson_loglink_model
from .perturbation import PerturbationKernel, make_gaussian_kernel
from .results import _write_csv
from .smc import (
    RESAMPLING_SCHEMES,
    ExtendedFilterConfig,
    ParticleCollapseError,
    bootstrap_loglik,
    run_extended_bootstrap,
)
from .state_space import (
    PARAM_NAMES,
    LinearGaussianSSM,
    ParameterDomainError,
    ParameterNameError,
    kalman_loglik,
    kalman_score_info,
    load_observations,
    make_nonlinear_shock_model,
    simulate,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "RUN_RECORD_FIELDS",
    "COMPARE_TABLE_FIELDS",
    "load_config",
    "derive_substream",
    "run_experiment",
    "write_records_csv",
    "SlopeFit",
    "fit_loglog_slope",
    "fit_rate_slope",
    "compare_fd",
    "write_compare_csv",
]

SOURCES = ("is", "quad", "fd", "smc", "oracle")
METHODS = tuple(
    f"{src}-{target}" for src in SOURCES[:-1] for target in ("score", "oim")
) + ("oracle",)

COMPARE_TABLE_FIELDS = (
    "method",
    "comp_i",
    "comp_j",
    "mean_estimate",
    "oracle",
    "abs_bias",
    "variance",
    "mse",
    "variance_ratio",
)


class ConfigError(Exception):
    """Invalid experiment configuration; ``key`` names the offender."""

    def __init__(self, message: str, key: Optional[str] = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class RunRecord:
    """One estimate component from one replication at one grid point."""

    run_id: str
    seed: int
    method: str
    tau: Optional[float]
    h: Optional[float]
    delta: Optional[int]
    n_particles: Optional[int]
    T: Optional[int]
    comp_i: int
    comp_j: Optional[int]
    estimate: Optional[float]
    oracle: Optional[float]
    abs_error: Optional[float]
    wall_time_ms: Optional[float]
    error: str = ""


# Schema v1.  The golden-file test pins this header; any change to the
# RunRecord fields or their order is a new schema version.
RUN_RECORD_FIELDS = tuple(field.name for field in fields(RunRecord))


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment description, checked against ``_SCHEMA`` however it is
    built; README lists the keys and their rules."""

    model_kind: str
    model_params: dict
    method: str
    theta: tuple
    kernel_sigmas: tuple
    resampling: str
    ess_threshold: Optional[float]
    loglik_source: str
    taus: tuple
    ns: tuple
    deltas: tuple
    hs: tuple
    tau_rule: Optional[str]
    replications: int
    base_seed: int
    compare_target: str = "score"
    compare_smc_n: int = 5000

    def __post_init__(self):
        for section, rows in _SCHEMA.items():  # model.kind first
            for key, row in rows.items():
                if row.field is None and key not in self.model_params:
                    continue
                value = getattr(self, row.field) if row.field else self.model_params[key]
                try:
                    holds = row.check(value)
                except TypeError:
                    holds = False
                if not holds:
                    raise ConfigError(
                        f"{key} must be {row.rule}, got {value!r}", key=f"{section}.{key}"
                    )
        for key in self.model_params:
            row = _SCHEMA["model"].get(key)
            if row is None or row.field or self.model_kind not in row.kinds:
                raise ConfigError(
                    f"{key} does not apply to kind {self.model_kind}", key=f"model.{key}"
                )


# ---------------------------------------------------------------------------
# model kinds
# ---------------------------------------------------------------------------


@dataclass
class _ModelBundle:
    """Everything an estimator task needs, prebuilt from the config."""

    dim: int
    general: Optional[GeneralModel] = None
    loglik_point: Optional[Callable] = None  # (theta, rng) -> float
    ssm: Optional[object] = None
    ys: Optional[np.ndarray] = None
    horizon: Optional[int] = None
    oracle: Optional[tuple] = None  # the exact (score, information) at theta


def _check_theta(theta: np.ndarray, dim: int) -> None:
    if theta.size != dim:
        raise ConfigError(
            f"theta has {theta.size} values, the model has {dim} parameters",
            key="estimator.theta",
        )


def _general(model: GeneralModel, oracle: tuple) -> _ModelBundle:
    def loglik_point(th, rng):
        return float(model.log_likelihood(np.atleast_2d(th))[0])

    return _ModelBundle(model.dim, model, loglik_point, oracle=oracle)


def _conjugate_gaussian(params: dict, given: dict, theta: np.ndarray) -> _ModelBundle:
    y, obs_sd, dim = params["y"], params["obs_sd"], params["dim"] or len(theta)
    _check_theta(theta, dim)
    model = gaussian_location_model(y=y, obs_sd=obs_sd, dim=dim)
    return _general(model, gaussian_location_derivatives(theta, y, obs_sd))


def _poisson(params: dict, given: dict, theta: np.ndarray) -> _ModelBundle:
    y = params["y"]
    if not (y >= 0.0 and y == int(y)):
        raise ConfigError("y must be a non-negative integer count", key="model.y")
    _check_theta(theta, 1)
    return _general(poisson_loglink_model(int(y)), poisson_loglink_derivatives(theta, int(y)))


def _lgssm(free, fixed, init, init_mean, init_sd) -> tuple:
    spec = LinearGaussianSSM(free, fixed, init, init_mean, init_sd)

    def oracle(theta, ys):
        der = kalman_score_info(spec, theta, ys)
        return (der.score, der.info), lambda th, rng: kalman_loglik(spec, th, ys)

    return spec.state_space(), oracle


def _nonlinear_ar1(free, fixed, init, init_mean, init_sd) -> tuple:
    if init != "fixed":  # the only initial law this model has
        raise ConfigError(f"init must be in ('fixed',), got {init!r}", key="model.init")
    return make_nonlinear_shock_model(free, fixed, init_mean, init_sd), None


def _state_space(make, params: dict, given: dict, theta: np.ndarray) -> _ModelBundle:
    """A state-space kind's bundle: ``make(free, fixed, init, init_mean,
    init_sd)`` gives the model and its oracle, ``(theta, ys) -> ((score,
    info), loglik_point)`` or None; the data are loaded or simulated."""
    free = params["free"]
    for name in free:
        if name in given:
            raise ConfigError(f"{name} is free, so it takes no value", key=f"model.{name}")
    fixed = {name: params[name] for name in PARAM_NAMES if params[name] is not None}
    init, init_mean, init_sd = params["init"], params["init_mean"], params["init_sd"]
    if init == "fixed" and not init_sd > 0.0:
        raise ConfigError("init = fixed needs init_sd > 0", key="model.init_sd")
    try:
        ssm, oracle = make(free, fixed, init, init_mean, init_sd)
    except ParameterNameError as exc:
        raise ConfigError(str(exc), key="model.free") from exc
    _check_theta(theta, ssm.param_dim)
    if params["data_csv"] is not None:
        try:
            ys = load_observations(params["data_csv"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read observations: {exc}", key="model.data_csv") from exc
        for key in ("theta_true", "data_seed", "horizon"):
            if key in given:
                raise ConfigError(f"{key} does not apply next to data_csv", key=f"model.{key}")
    else:
        theta_true = np.asarray(params["theta_true"], dtype=np.float64)
        if theta_true.size != ssm.param_dim:
            raise ConfigError(
                "theta_true must match the model's free-parameter count",
                key="model.theta_true",
            )
        data_rng = np.random.default_rng(params["data_seed"])
        try:
            _, ys = simulate(ssm, theta_true, params["horizon"], data_rng)
        except ParameterDomainError as exc:
            raise ConfigError(str(exc), key="model.theta_true") from exc
    bundle = _ModelBundle(dim=ssm.param_dim, ssm=ssm, ys=ys, horizon=len(ys))
    if oracle is not None:
        try:
            bundle.oracle, bundle.loglik_point = oracle(theta, ys)
        except ParameterDomainError as exc:
            raise ConfigError(str(exc), key="estimator.theta") from exc
    return bundle


class _Kind(NamedTuple):
    """A model kind: its family, general (a log-likelihood) or state-space (a
    sampler and an observation density), and ``build(params, given, theta)``,
    where ``params`` holds every [model] value and ``given`` the config's."""

    family: str
    build: Callable


_KINDS = {
    "conjugate-gaussian": _Kind("general", _conjugate_gaussian),
    "poisson": _Kind("general", _poisson),
    "lgssm": _Kind("state-space", partial(_state_space, _lgssm)),
    "nonlinear-ar1": _Kind("state-space", partial(_state_space, _nonlinear_ar1)),
}
MODEL_KINDS = tuple(_KINDS)
_GENERAL_KINDS = tuple(name for name, kind in _KINDS.items() if kind.family == "general")
_SSM_KINDS = tuple(name for name, kind in _KINDS.items() if kind.family == "state-space")


def build_model_bundle(config: ExperimentConfig) -> _ModelBundle:
    """The model, data and oracle the config describes.  Applies the rules
    that span several [model] keys; the table has checked each one."""
    theta = np.asarray(config.theta, dtype=np.float64)
    kind = config.model_kind
    params = {
        key: row.default.get(kind) if isinstance(row.default, dict) else row.default
        for key, row in _SCHEMA["model"].items()
    }
    params.update(config.model_params)
    return _KINDS[kind].build(params, config.model_params, theta)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# n^(a/b) with b > 0: the grid's tau is n ** (a / b)
_TAU_RULE_RE = re.compile(r"^n\^\(\s*(-?\d+)\s*/\s*(0*[1-9]\d*)\s*\)$")


def _list(kind):
    """Comma-separated values parsed by ``kind``; blank items are skipped."""
    return lambda text: tuple(kind(x.strip()) for x in text.split(",") if x.strip())


def _or_none(kind):
    """``kind``, reading a blank value as None."""
    return lambda text: kind(text) if text.strip() else None


def _each(holds):
    """A check that a list is non-empty and each value passes ``holds``."""
    return lambda values: len(values) > 0 and all(holds(v) for v in values)


def _positive(value) -> bool:
    return 0 < value < math.inf


class _Key(NamedTuple):
    """One config key.  ``field`` is the ExperimentConfig field it fills (None
    under [model], whose values go to ``model_params``); a dict ``default``
    holds one default per model kind; ``rule`` states what ``check`` holds;
    ``methods`` lists the moment sources that read the key."""

    field: Optional[str]
    parse: Callable
    default: object
    check: Callable
    rule: str
    kinds: tuple = MODEL_KINDS
    methods: tuple = SOURCES


_SCHEMA = {
    "model": {
        "kind": _Key("model_kind", str, "", lambda v: v in MODEL_KINDS,
                     "one of " + ", ".join(MODEL_KINDS)),
        "free": _Key(None, _list(str), {"lgssm": PARAM_NAMES, "nonlinear-ar1": ("phi",)},
                     lambda v: len(set(v)) == len(v) > 0 and set(v) <= set(PARAM_NAMES),
                     "distinct names among " + ", ".join(PARAM_NAMES), _SSM_KINDS),
        "phi": _Key(None, float, None, math.isfinite, "finite", _SSM_KINDS),
        "log_sigma_v": _Key(None, float, None, math.isfinite, "finite", _SSM_KINDS),
        "log_sigma_w": _Key(None, float, None, math.isfinite, "finite", _SSM_KINDS),
        "init": _Key(None, str, {"lgssm": "stationary", "nonlinear-ar1": "fixed"},
                     lambda v: v in ("stationary", "fixed"),
                     "stationary or fixed", _SSM_KINDS),
        "init_mean": _Key(None, float, 0.0, math.isfinite, "finite", _SSM_KINDS),
        "init_sd": _Key(None, float, 1.0, math.isfinite, "finite", _SSM_KINDS),
        "theta_true": _Key(None, _list(float), (), _each(math.isfinite),
                           "a non-empty list of finite numbers", _SSM_KINDS),
        "data_seed": _Key(None, int, 0, lambda v: v >= 0, ">= 0", _SSM_KINDS),
        "horizon": _Key(None, int, 50, lambda v: v >= 1, ">= 1", _SSM_KINDS),
        "data_csv": _Key(None, str, None, os.path.isfile, "an existing file", _SSM_KINDS),
        "y": _Key(None, float, {"conjugate-gaussian": 0.0, "poisson": 1.0}, math.isfinite,
                  "finite", _GENERAL_KINDS),
        "obs_sd": _Key(None, float, 1.0, _positive, "finite and > 0",
                       ("conjugate-gaussian",)),
        "dim": _Key(None, int, None, lambda v: v >= 1, ">= 1", ("conjugate-gaussian",)),
    },
    "estimator": {
        "method": _Key("method", str, "", lambda v: v in METHODS,
                       "one of " + ", ".join(METHODS)),
        "theta": _Key("theta", _list(float), (), _each(math.isfinite),
                      "a non-empty list of finite numbers"),
        "kernel_sigmas": _Key("kernel_sigmas", _list(float), (1.0,), _each(_positive),
                              "a non-empty list of finite numbers > 0"),
        "resampling": _Key("resampling", str, "multinomial",
                           lambda v: v in RESAMPLING_SCHEMES,
                           " or ".join(RESAMPLING_SCHEMES), methods=("fd", "smc")),
        "ess_threshold": _Key("ess_threshold", _or_none(float), None,
                              lambda v: v is None or 0 < v <= 1, "blank or in (0, 1]",
                              methods=("smc",)),
        "loglik_source": _Key("loglik_source", str, "exact",
                              lambda v: v in ("exact", "smc"), "exact or smc",
                              methods=("fd",)),
    },
    "grid": {
        "tau": _Key("taus", _list(float), (0.1,), _each(lambda v: 0 <= v < math.inf),
                    "a non-empty list of finite numbers >= 0"),
        "n": _Key("ns", _list(int), (1000,), _each(lambda v: v >= 2),
                  "a non-empty list of integers >= 2"),
        "delta": _Key("deltas", _list(int), (0,), _each(lambda v: v >= 0),
                      "a non-empty list of integers >= 0"),
        "h": _Key("hs", _list(float), (0.1,), _each(_positive),
                  "a non-empty list of finite numbers > 0"),
        "tau_rule": _Key("tau_rule", _or_none(str), None,
                         lambda v: v is None or _TAU_RULE_RE.match(v) is not None,
                         "blank or n^(a/b) for integers a and b > 0"),
    },
    "run": {
        "replications": _Key("replications", int, 1, lambda v: v >= 1, ">= 1"),
        "seed": _Key("base_seed", int, 0, lambda v: v >= 0, ">= 0"),
    },
    "compare": {
        "target": _Key("compare_target", str, "score", lambda v: v in ("score", "oim"),
                       "score or oim"),
        "smc_n": _Key("compare_smc_n", int, 5000, lambda v: v >= 2, ">= 2"),
    },
}


# Each sweep and the [grid] axis it sweeps.
_SWEEPS = {"sweep-tau": "tau", "sweep-n": "n", "sweep-lag": "delta"}


def load_config(path, command: Optional[str] = None) -> ExperimentConfig:
    """Parse an experiment config file; ExperimentConfig checks the values.
    A key given in the file must be read by the method or, under
    ``compare-fd``, by a method ``compare_fd`` runs, which sets
    ``loglik_source`` and ``n``.  A named command then applies its grid
    contract: ``estimate`` takes one point on each axis the method reads, a
    sweep two or more on its axis, which the method must read, and
    ``compare-fd`` two replications for its variances (``compare_fd`` holds
    each of its sides to one point).  ``oracle`` swaps in the oracle method."""
    if command not in (None, "estimate", *_SWEEPS, "compare-fd", "oracle"):
        raise ValueError(f"unknown command {command!r}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    rows = [row for section in _SCHEMA.values() for row in section.values()]
    values = {row.field: row.default for row in rows if row.field}
    model_params = {}
    given = []
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]", key=section)
        for key, text in parser[section].items():
            name, row = f"{section}.{key}", _SCHEMA[section].get(key)
            if row is None:
                raise ConfigError(f"unknown key {key!r} in [{section}]", key=name)
            try:
                value = row.parse(text)
            except ValueError as exc:
                raise ConfigError(f"malformed value {text!r}", key=name) from exc
            if row.field:
                values[row.field] = value
            else:
                model_params[key] = value
            given.append((name, row))
    if values["tau_rule"] and parser.has_option("grid", "tau"):
        raise ConfigError("give either a tau grid or a tau_rule", key="grid.tau_rule")
    config = ExperimentConfig(model_params=model_params, **values)
    compare = command == "compare-fd"
    runs = _compare_pair(config) if compare else (config,)
    methods = " or ".join(run.method for run in runs)
    for name, row in given:
        if compare and row.field in ("loglik_source", "ns"):
            raise ConfigError(f"compare-fd sets {name} from the model and [compare]", key=name)
        if not any(run.method.partition("-")[0] in row.methods for run in runs):
            raise ConfigError(f"{name} does not apply to method {methods}", key=name)
    if command == "oracle":
        return replace(config, method="oracle", replications=1)
    if command == "estimate":
        _check_one_point(config, command)
    if command == "compare-fd" and config.replications < 2:
        raise ConfigError("compare-fd needs two or more replications", key="run.replications")
    if command in _SWEEPS:
        axis = _axis(config, _SWEEPS[command])
        points = _read_axes(config).get(axis)
        if points is None:
            raise ConfigError(f"method {config.method} does not read {axis}", key="grid." + axis)
        if len(points) < 2:
            raise ConfigError(f"{command} needs two or more points", key="grid." + axis)
    return config


# ---------------------------------------------------------------------------
# seed splitting
# ---------------------------------------------------------------------------


def _spawn(base_seed: int, grid_index: int, rep_index: int) -> np.random.SeedSequence:
    """The spawn rule: ``SeedSequence((base_seed, grid_index, rep_index))``."""
    return np.random.SeedSequence((base_seed, grid_index, rep_index))


def derive_substream(base_seed: int, grid_index: int, rep_index: int):
    """Independent stream for one (grid point, replication) pair, seeded by
    ``_spawn``; the returned seed word (first 64 bits of the mixed state) is
    what run records report."""
    ss = _spawn(base_seed, grid_index, rep_index)
    seed_word = int(ss.generate_state(2, np.uint64)[0])
    return np.random.default_rng(ss), seed_word


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GridPoint:
    index: int
    tau: float
    n: int
    delta: int
    h: float


# Each [grid] axis, in grid order, and the ExperimentConfig field of its values.
_AXES = {key: row.field for key, row in _SCHEMA["grid"].items() if key != "tau_rule"}


def _axis(config: ExperimentConfig, name: str) -> str:
    """The axis that holds ``name``'s values: under a tau_rule the (tau, n)
    pairs are one axis, n."""
    return "n" if name == "tau" and config.tau_rule else name


def _read_axes(config: ExperimentConfig) -> dict:
    """The [grid] axes the method reads, as its ``_columns`` list them, each
    with its values."""
    read = {_axis(config, "n" if name == "n_particles" else name) for name in _columns(config)}
    return {axis: getattr(config, field) for axis, field in _AXES.items() if axis in read}


def _check_one_point(config: ExperimentConfig, command: str) -> None:
    for axis, values in _read_axes(config).items():
        if len(values) != 1:
            raise ConfigError(f"{command} needs one point per grid", key="grid." + axis)


def _build_grid(config: ExperimentConfig) -> list:
    """Every combination of the values on the axes the method reads; an axis
    it does not read keeps its first value."""
    read = _read_axes(config)
    values = {axis: read.get(axis, getattr(config, field)[:1]) for axis, field in _AXES.items()}
    if config.tau_rule:
        match = _TAU_RULE_RE.match(config.tau_rule)
        exponent = float(Fraction(int(match.group(1)), int(match.group(2))))
        tau_n = [(float(n) ** exponent, n) for n in values["n"]]
    else:
        tau_n = itertools.product(values["tau"], values["n"])
    axes = itertools.product(tau_n, values["delta"], values["h"])
    return [_GridPoint(i, tau, n, delta, h) for i, ((tau, n), delta, h) in enumerate(axes)]


# Model-level failures: a run tags its rows with the class name instead of
# aborting the sweep.
_RUN_FAILURES = (ParticleCollapseError, DegeneratePosteriorError, ParameterDomainError)


class _Task(NamedTuple):
    """One replication at one grid point, as a source's estimate sees it."""

    config: ExperimentConfig
    bundle: _ModelBundle
    point: _GridPoint
    theta: np.ndarray
    kernel: PerturbationKernel
    rng: np.random.Generator
    seed_word: int


# Each estimate returns a list of (d,) score and (d, d) information arrays.
# The dfscore calls go through this module's globals at call time, so a
# function rebound on the module is the one that runs.


def _rescaled(moments, task: _Task, target: str) -> list:
    tau, kernel = task.point.tau, task.kernel
    if target == "score":
        return [score_from_moments(moments, task.theta, tau, kernel).values]
    return [observed_info_from_moments(moments, tau, kernel).values]


def _is_estimate(task: _Task, target: str) -> list:
    point = task.point
    moments = posterior_moments_is(
        task.bundle.general, task.theta, point.tau, task.kernel, point.n, task.rng
    )
    return _rescaled(moments, task, target)


def _quad_estimate(task: _Task, target: str) -> list:
    moments = posterior_moments_quadrature(
        task.bundle.general, task.theta, task.point.tau, task.kernel
    )
    return _rescaled(moments, task, target)


def _fd_estimate(task: _Task, target: str) -> list:
    config, bundle = task.config, task.bundle
    loglik = bundle.loglik_point
    if config.loglik_source == "smc":
        def loglik(th, rng):
            return bootstrap_loglik(
                bundle.ssm, bundle.ys, th, task.point.n, rng, resampling=config.resampling
            )

    fd = fd_score if target == "score" else fd_info
    fd_cfg = FDConfig(h=task.point.h, base_seed=task.seed_word)
    return [fd(loglik, task.theta, fd_cfg).values]


def _smc_estimate(task: _Task, target: str) -> list:
    point = task.point
    filter_cfg = ExtendedFilterConfig(
        theta=task.theta,
        tau=point.tau,
        kernel=task.kernel,
        lag=point.delta,
        n_particles=point.n,
        resampling=task.config.resampling,
        ess_threshold=task.config.ess_threshold,
    )
    acc = run_extended_bootstrap(task.bundle.ssm, task.bundle.ys, filter_cfg, rng=task.rng)
    return _rescaled(acc.moments(), task, target)


def _oracle_estimate(task: _Task, target: str) -> list:
    return list(task.bundle.oracle)


# What a source needs of the model: (holds(config, bundle), what, config key).
_GENERAL = (
    lambda c, b: b.general is not None,
    "a conjugate-gaussian or poisson model",
    "estimator.method",
)
_AT_MOST_2D = (
    lambda c, b: b.dim <= 2, "a model with at most 2 parameters", "estimator.method"
)
_KERNEL = (
    lambda c, b: len(c.kernel_sigmas) == b.dim,
    "{dim} kernel sigmas, one per model parameter",
    "estimator.kernel_sigmas",
)
_SSM = (lambda c, b: b.ssm is not None, "a state-space model", "estimator.method")
_TAU = (lambda c, b: all(p.tau > 0 for p in _build_grid(c)), "tau > 0", "grid.tau")
_LOGLIK = (
    lambda c, b: (b.ssm if c.loglik_source == "smc" else b.loglik_point) is not None,
    "an exact log-likelihood, or loglik_source = smc on a state-space model",
    "estimator.loglik_source",
)
_ORACLE = (lambda c, b: b.oracle is not None, "a model with an oracle", "estimator.method")


class _Source(NamedTuple):
    """A moment source: its estimate, the optional cells its rows fill, what
    it needs of the model, and whether its runs go to the thread pool."""

    estimate: Callable  # (task, target) -> list of score / information arrays
    columns: tuple  # of tau, h, delta, n_particles, oracle
    needs: tuple
    # large IS / quadrature array passes release the GIL; a filter's small calls do not
    pooled: bool = False


_SOURCES = {
    "is": _Source(
        _is_estimate, ("tau", "n_particles", "oracle"), (_GENERAL, _KERNEL, _TAU), True
    ),
    "quad": _Source(
        _quad_estimate, ("tau", "oracle"), (_GENERAL, _AT_MOST_2D, _KERNEL, _TAU), True
    ),
    # FD on SMC likelihoods reports the particles per stencil node
    "fd": _Source(_fd_estimate, ("h", "n_particles", "oracle"), (_LOGLIK,)),
    "smc": _Source(
        _smc_estimate, ("tau", "delta", "n_particles", "oracle"), (_SSM, _KERNEL, _TAU)
    ),
    "oracle": _Source(_oracle_estimate, (), (_ORACLE,)),
}


def _columns(config: ExperimentConfig) -> tuple:
    """The optional cells the method's rows fill; exact FD reads no n."""
    columns = _SOURCES[config.method.partition("-")[0]].columns
    if config.method.startswith("fd-") and config.loglik_source == "exact":
        columns = tuple(name for name in columns if name != "n_particles")
    return columns


def _run_one(config: ExperimentConfig, bundle, point, rep) -> list:
    source, _, target = config.method.partition("-")
    entry = _SOURCES[source]
    rng, seed_word = derive_substream(config.base_seed, point.index, rep)
    theta = np.asarray(config.theta, dtype=np.float64)
    kernel = make_gaussian_kernel(config.kernel_sigmas)
    task = _Task(config, bundle, point, theta, kernel, rng, seed_word)
    error = ""
    t0 = time.perf_counter()
    try:
        arrays = entry.estimate(task, target)
    except _RUN_FAILURES as exc:
        error = type(exc).__name__
        d = bundle.dim
        arrays = [np.empty((d, d) if target == "oim" else d)]
    wall = (time.perf_counter() - t0) * 1e3

    # the grid cells of the run's rows; those the method does not read stay blank
    columns = _columns(config)
    grid = {"tau": point.tau, "h": point.h, "delta": point.delta, "n_particles": point.n}
    cells = {name: value if name in columns else None for name, value in grid.items()}
    has_oracle = "oracle" in columns and bundle.oracle is not None
    oracles = bundle.oracle if has_oracle else (None, None)
    rows = []
    for array in arrays:
        reference = oracles[array.ndim - 1]
        for index, value in np.ndenumerate(array):
            estimate = None if error else float(value)
            oracle = None if reference is None else float(reference[index])
            abs_error = None if estimate is None or oracle is None else abs(estimate - oracle)
            rows.append(
                RunRecord(
                    run_id=f"{config.method}.g{point.index:03d}.r{rep:04d}",
                    seed=seed_word,
                    method=config.method,
                    T=bundle.horizon,
                    comp_i=index[0] + 1,
                    comp_j=index[1] + 1 if array.ndim == 2 else None,
                    estimate=estimate,
                    oracle=oracle,
                    abs_error=abs_error,
                    wall_time_ms=wall,
                    error=error,
                    **cells,
                )
            )
    return rows


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Run all grid points and replications; returns sorted RunRecords.

    Only IS and quadrature runs use a pool of ``threads``; SMC, FD and oracle
    runs hold the GIL, so they run in the calling thread.  Records are the same.
    Raises ConfigError before any run when the model lacks what the method
    needs or the dimensions disagree.
    """
    bundle = build_model_bundle(config)
    source = config.method.partition("-")[0]
    for holds, what, key in _SOURCES[source].needs:
        if not holds(config, bundle):
            raise ConfigError(
                f"method {config.method} needs {what.format(dim=bundle.dim)}", key=key
            )
    grid = _build_grid(config)
    tasks = [(point, rep) for point in grid for rep in range(config.replications)]
    run = lambda task: _run_one(config, bundle, *task)
    if threads > 1 and len(tasks) > 1 and _SOURCES[source].pooled:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, tasks))
    else:
        chunks = list(map(run, tasks))
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: (r.run_id, r.comp_i, r.comp_j if r.comp_j else 0))
    return records


def write_records_csv(records, path, timings: bool = False) -> None:
    """Write records in RunRecord field order; timings only on request."""
    hidden = () if timings else ("wall_time_ms",)
    rows = ([None if f in hidden else getattr(r, f) for f in RUN_RECORD_FIELDS] for r in records)
    _write_csv(path, RUN_RECORD_FIELDS, rows)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    """OLS slope on log-log aggregated data."""

    slope: float
    stderr: float
    n_points: int
    n_filtered: int


def fit_loglog_slope(xs, ys) -> SlopeFit:
    """Least-squares slope of log(y) against log(x).

    Non-positive or non-finite pairs are dropped with a warning; the
    surviving points must hold at least three distinct x values.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = (xs > 0) & (ys > 0) & np.isfinite(xs) & np.isfinite(ys)
    n_filtered = int((~keep).sum())
    if n_filtered:
        warnings.warn(f"dropped {n_filtered} non-positive points from slope fit")
    xs, ys = xs[keep], ys[keep]
    if np.unique(xs).size < 3:
        raise ValueError("need at least 3 distinct positive x values")
    lx, ly = np.log(xs), np.log(ys)
    dx = lx - lx.mean()
    slope = float(dx @ (ly - ly.mean()) / (dx @ dx))
    resid = ly - ly.mean() - slope * dx
    sigma2 = float(resid @ resid) / (xs.size - 2)
    stderr = math.sqrt(sigma2 / float(dx @ dx))
    return SlopeFit(slope=slope, stderr=stderr, n_points=int(xs.size), n_filtered=n_filtered)


def fit_rate_slope(records, x_field: str) -> SlopeFit:
    """Slope of the mean squared error against a grid field, on log-log scale.

    Groups records by ``x_field`` (e.g. ``n_particles`` or ``tau``) and
    averages ``(estimate - oracle) ** 2`` per group.
    """
    groups: dict = {}
    for r in records:
        x = getattr(r, x_field)
        if x is None or r.estimate is None or r.oracle is None:
            continue
        groups.setdefault(float(x), []).append(r.estimate - r.oracle)
    xs = sorted(groups)
    return fit_loglog_slope(xs, [float(np.mean(np.asarray(groups[x]) ** 2)) for x in xs])


# ---------------------------------------------------------------------------
# finite-difference comparison
# ---------------------------------------------------------------------------


def _compare_pair(config: ExperimentConfig) -> tuple:
    """The proposed and the FD configs that ``compare_fd`` runs.

    For state-space models the proposed method is the extended filter with
    ``smc_n`` particles, and each FD stencil node gets a bootstrap
    likelihood estimate with ``smc_n // (#nodes)`` particles, so both sides
    spend the same number of particle passes.  For general models the
    proposed method is importance sampling with ``smc_n`` draws, and FD
    evaluates the exact log-likelihood.
    """
    target = config.compare_target
    is_ssm = _KINDS[config.model_kind].family == "state-space"
    fd_n = max(2, config.compare_smc_n // len(_fd_stencil(len(config.theta), target)))
    proposed = ("smc-" if is_ssm else "is-") + target
    return (
        replace(config, method=proposed, ns=(config.compare_smc_n,)),
        replace(config, method="fd-" + target, loglik_source="smc" if is_ssm else "exact",
                ns=(fd_n,)),
    )


def _summary(records) -> dict:
    """Compare-table rows of one method per component, variance_ratio unset."""
    groups: dict = {}
    for r in records:
        if r.estimate is not None:
            groups.setdefault((r.comp_i, r.comp_j), []).append(r)
    rows = {}
    for (comp_i, comp_j), group in sorted(groups.items()):
        est = np.array([r.estimate for r in group])
        oracle = group[0].oracle
        mean = float(est.mean())
        rows[comp_i, comp_j] = {
            "method": group[0].method,
            "comp_i": comp_i,
            "comp_j": comp_j,
            "mean_estimate": mean,
            "oracle": oracle,
            "abs_bias": None if oracle is None else abs(mean - oracle),
            "variance": float(est.var(ddof=1)) if est.size > 1 else 0.0,
            "mse": None if oracle is None else float(np.mean((est - oracle) ** 2)),
        }
    return rows


def compare_fd(config: ExperimentConfig, threads: int = 1):
    """Run FD and the proposed estimator at matched likelihood budget.

    ``_compare_pair`` builds the two configs; on a general model the FD
    variance column is exactly zero.  Returns ``(records, table_rows)``
    where the table aggregates per-method bias, variance and MSE per
    component plus the FD/proposed variance ratio.  ``threads`` goes to
    ``run_experiment``, so only an IS or quadrature side uses the pool.
    Raises ConfigError before any run on an axis that either side reads
    and that holds two or more points, whose runs would pool in one row.
    """
    runs = _compare_pair(config)
    for run in runs:
        _check_one_point(run, "compare-fd")
    proposed, fd = (run_experiment(run, threads=threads) for run in runs)
    proposed_rows, fd_rows = _summary(proposed), _summary(fd)
    table = list(fd_rows.values()) + list(proposed_rows.values())
    for row in table:
        comp = (row["comp_i"], row["comp_j"])
        fd_var, var = (rows.get(comp, {}).get("variance") for rows in (fd_rows, proposed_rows))
        # FD over proposed variance; blank without FD rows or a proposed spread
        row["variance_ratio"] = fd_var / var if fd_var is not None and var else None
    return proposed + fd, table


def write_compare_csv(table, path) -> None:
    rows = ([row[f] for f in COMPARE_TABLE_FIELDS] for row in table)
    _write_csv(path, COMPARE_TABLE_FIELDS, rows)
