"""Experiment harness: configs, seeded replication, sweeps, CSV reports.

Configuration lives in flat INI files (``key = value`` under ``[model]``,
``[estimator]``, ``[grid]``, ``[run]``, and optionally ``[compare]``).
Every replication draws its random stream from
``numpy.random.SeedSequence((base_seed, grid_index, rep_index))``, which
mixes the three words through SeedSequence's collision-resistant hash, so
grid points and replications never share streams.  Runs are deterministic
given the config and base seed: records are sorted before writing and float
values are serialized with ``repr`` (shortest round-trip), so identical runs
emit byte-identical CSV.  Wall-clock timings are kept on the records but
written to the CSV only on request, because timing values are the one field
that cannot reproduce.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import math
import re
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
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
from .models import gaussian_location_model, poisson_loglink_model
from .perturbation import PerturbationKernel, make_gaussian_kernel
from .smc import (
    ExtendedFilterConfig,
    ParticleCollapseError,
    bootstrap_loglik,
    observed_info_from_accumulator,
    run_extended_bootstrap,
    score_from_accumulator,
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

MODEL_KINDS = ("conjugate-gaussian", "poisson", "lgssm", "nonlinear-ar1")

# Schema v1.  The golden-file test pins these headers; any change is a new
# schema version.
RUN_RECORD_FIELDS = (
    "run_id",
    "seed",
    "method",
    "tau",
    "h",
    "delta",
    "n_particles",
    "T",
    "comp_i",
    "comp_j",
    "estimate",
    "oracle",
    "abs_error",
    "wall_time_ms",
    "error",
)
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see README for the file schema."""

    model_kind: str
    model_params: dict
    method: str
    theta: tuple
    kernel_sigmas: tuple
    resampling: str
    ess_threshold: Optional[float]
    loglik_source: str
    fd_particles: Optional[int]
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
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}", key="estimator.method")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1", key="run.replications")
        for name, grid in (
            ("grid.tau", self.taus),
            ("grid.n", self.ns),
            ("grid.delta", self.deltas),
            ("grid.h", self.hs),
        ):
            if len(grid) == 0:
                raise ConfigError(f"grid must be non-empty", key=name)
        if any(t < 0 for t in self.taus):
            raise ConfigError("tau values must be >= 0", key="grid.tau")
        if any(n < 2 for n in self.ns):
            raise ConfigError("n values must be >= 2", key="grid.n")
        if any(d < 0 for d in self.deltas):
            raise ConfigError("delta values must be >= 0", key="grid.delta")
        if any(h <= 0 for h in self.hs):
            raise ConfigError("h values must be > 0", key="grid.h")
        if not all(0 < s < math.inf for s in self.kernel_sigmas):
            raise ConfigError(
                "kernel sigmas must be finite and > 0", key="estimator.kernel_sigmas"
            )


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {
    "model": {
        "kind",
        "free",
        "phi",
        "log_sigma_v",
        "log_sigma_w",
        "init",
        "init_mean",
        "init_sd",
        "theta_true",
        "data_seed",
        "horizon",
        "data_csv",
        "y",
        "obs_sd",
        "dim",
    },
    "estimator": {
        "method",
        "theta",
        "kernel_sigmas",
        "resampling",
        "ess_threshold",
        "loglik_source",
        "fd_particles",
    },
    "grid": {"tau", "n", "delta", "h", "tau_rule"},
    "run": {"replications", "seed"},
    "compare": {"target", "smc_n"},
}

_TAU_RULE_RE = re.compile(r"^n\^\(\s*(-?\d+)\s*/\s*(\d+)\s*\)$")


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]", key=section)
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]", key=f"{section}.{key}"
                )
    try:
        model = parser["model"]
        est = parser["estimator"]
        grid = parser["grid"] if parser.has_section("grid") else {}
        compare = parser["compare"] if parser.has_section("compare") else {}
        run = parser["run"]
    except KeyError as exc:
        raise ConfigError(f"missing section [{exc.args[0]}]", key=str(exc.args[0]))

    kind = model.get("kind", "")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}", key="model.kind")

    model_params = {
        key: model[key] for key in _ALLOWED_KEYS["model"] if key in model and key != "kind"
    }

    tau_rule = grid.get("tau_rule", "").strip()
    taus_text = grid.get("tau", "").strip()
    if tau_rule:
        if taus_text:
            raise ConfigError(
                "give either a tau grid or a tau_rule, not both", key="grid.tau_rule"
            )
        if not _TAU_RULE_RE.match(tau_rule):
            raise ConfigError(
                f"tau_rule must look like n^(-1/6), got {tau_rule!r}",
                key="grid.tau_rule",
            )

    try:
        config = ExperimentConfig(
            model_kind=kind,
            model_params=model_params,
            method=est.get("method", ""),
            theta=_floats(est.get("theta", "")),
            kernel_sigmas=_floats(est.get("kernel_sigmas", "1.0")),
            resampling=est.get("resampling", "multinomial"),
            ess_threshold=(
                float(est["ess_threshold"])
                if est.get("ess_threshold", "").strip()
                else None
            ),
            loglik_source=est.get("loglik_source", "exact"),
            fd_particles=(
                int(est["fd_particles"]) if est.get("fd_particles", "").strip() else None
            ),
            taus=_floats(taus_text) if taus_text else (0.1,),
            ns=_ints(grid.get("n", "1000")),
            deltas=_ints(grid.get("delta", "0")),
            hs=_floats(grid.get("h", "0.1")),
            tau_rule=tau_rule or None,
            replications=run.getint("replications", 1),
            base_seed=run.getint("seed", 0),
            compare_target=compare.get("target", "score"),
            compare_smc_n=int(compare.get("smc_n", "5000")),
        )
    except ValueError as exc:
        raise ConfigError(f"malformed value: {exc}")
    if not config.theta:
        raise ConfigError("estimator.theta is required", key="estimator.theta")
    if config.loglik_source not in ("exact", "smc"):
        raise ConfigError(
            f"loglik_source must be exact or smc, got {config.loglik_source!r}",
            key="estimator.loglik_source",
        )
    if config.compare_target not in ("score", "oim"):
        raise ConfigError(
            "compare target must be score or oim", key="compare.target"
        )
    return config


# ---------------------------------------------------------------------------
# seed splitting
# ---------------------------------------------------------------------------


def derive_substream(base_seed: int, grid_index: int, rep_index: int):
    """Independent stream for one (grid point, replication) pair.

    The spawn rule is ``SeedSequence((base_seed, grid_index, rep_index))``;
    the returned seed word (first 64 bits of the mixed state) is what run
    records report.
    """
    ss = np.random.SeedSequence((base_seed, grid_index, rep_index))
    words = ss.generate_state(2, np.uint64)
    seed_word = int(words[0])
    return np.random.default_rng(ss), seed_word


# ---------------------------------------------------------------------------
# model bundles
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
    oracle_score: Optional[np.ndarray] = None
    oracle_info: Optional[np.ndarray] = None


def _model_number(params, key, default, kind=float):
    """``[model] key`` parsed by ``kind``, or ``default`` when it is unset."""
    if key not in params:
        return default
    try:
        return kind(params[key])
    except ValueError as exc:
        raise ConfigError(
            f"malformed value {params[key]!r}", key=f"model.{key}"
        ) from exc


def _free_fixed(params, default_free: str):
    """Free parameter names, and the values of the other named parameters."""
    free = tuple(name.strip() for name in params.get("free", default_free).split(","))
    fixed = {
        name: _model_number(params, name, None)
        for name in PARAM_NAMES
        if name not in free and name in params
    }
    return free, fixed


def _check_theta(theta: np.ndarray, dim: int) -> None:
    if theta.size != dim:
        raise ConfigError(
            f"theta has {theta.size} values, the model has {dim} parameters",
            key="estimator.theta",
        )


def build_model_bundle(config: ExperimentConfig) -> _ModelBundle:
    theta = np.asarray(config.theta, dtype=np.float64)
    params = config.model_params
    if config.model_kind in ("conjugate-gaussian", "poisson"):
        if config.model_kind == "conjugate-gaussian":
            dim = _model_number(params, "dim", len(theta), int)
            y = _model_number(params, "y", 0.0)
            obs_sd = _model_number(params, "obs_sd", 1.0)
            model = gaussian_location_model(y=y, obs_sd=obs_sd, dim=dim)
            _check_theta(theta, dim)
            score = (np.full(dim, y) - theta) / obs_sd**2
            info = np.eye(dim) / obs_sd**2
        else:
            y = int(_model_number(params, "y", 1.0))
            model = poisson_loglink_model(y)
            _check_theta(theta, 1)
            with np.errstate(over="ignore"):
                rate = np.exp(theta[0])
            score = np.array([y - rate])
            info = np.array([[rate]])

        def loglik_point(th, rng):
            return float(model.log_likelihood(np.atleast_2d(th))[0])

        return _ModelBundle(
            dim=model.dim,
            general=model,
            loglik_point=loglik_point,
            oracle_score=score,
            oracle_info=info,
        )

    # state-space kinds
    horizon = _model_number(params, "horizon", 50, int)
    if horizon < 1:
        raise ConfigError("horizon must be >= 1", key="model.horizon")
    init_mean = _model_number(params, "init_mean", 0.0)
    init_sd = _model_number(params, "init_sd", 1.0)
    # nonlinear-ar1 has only the fixed initial law N(init_mean, init_sd^2)
    inits = ("stationary", "fixed") if config.model_kind == "lgssm" else ("fixed",)
    init = params.get("init", inits[0])
    if init not in inits:
        raise ConfigError(f"init must be in {inits}, got {init!r}", key="model.init")
    if init == "fixed" and not init_sd > 0.0:
        raise ConfigError("init = fixed needs init_sd > 0", key="model.init_sd")
    spec = None
    try:
        if config.model_kind == "lgssm":
            free, fixed = _free_fixed(params, ",".join(PARAM_NAMES))
            spec = LinearGaussianSSM(
                free=free,
                fixed=fixed,
                init=init,
                init_mean=init_mean,
                init_sd=init_sd,
            )
            ssm = spec.state_space()
        else:
            free, fixed = _free_fixed(params, "phi")
            ssm = make_nonlinear_shock_model(
                free=free, fixed=fixed, init_mean=init_mean, init_sd=init_sd
            )
    except ParameterNameError as exc:
        raise ConfigError(str(exc), key="model.free") from exc
    _check_theta(theta, ssm.param_dim)
    if params.get("data_csv", "").strip():
        ys = load_observations(params["data_csv"].strip())
    else:
        theta_true = np.asarray(_floats(params.get("theta_true", "")), dtype=np.float64)
        if theta_true.size != ssm.param_dim:
            raise ConfigError(
                "theta_true must match the model's free-parameter count",
                key="model.theta_true",
            )
        data_rng = np.random.default_rng(_model_number(params, "data_seed", 0, int))
        _, ys = simulate(ssm, theta_true, horizon, data_rng)
    bundle = _ModelBundle(dim=ssm.param_dim, ssm=ssm, ys=ys, horizon=len(ys))
    if spec is not None:
        der = kalman_score_info(spec, theta, ys)
        bundle.oracle_score = der.score
        bundle.oracle_info = der.info
        bundle.loglik_point = lambda th, rng: kalman_loglik(spec, th, ys)
    return bundle


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


def _build_grid(config: ExperimentConfig) -> list:
    if config.tau_rule:
        match = _TAU_RULE_RE.match(config.tau_rule)
        exponent = float(Fraction(int(match.group(1)), int(match.group(2))))
        tau_n = [(float(n) ** exponent, n) for n in config.ns]
    else:
        tau_n = [(tau, n) for tau in config.taus for n in config.ns]
    axes = itertools.product(tau_n, config.deltas, config.hs)
    return [
        _GridPoint(index, tau, n, delta, h)
        for index, ((tau, n), delta, h) in enumerate(axes)
    ]


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
        n_fd = config.fd_particles or task.point.n

        def loglik(th, rng):
            return bootstrap_loglik(
                bundle.ssm, bundle.ys, th, n_fd, rng, resampling=config.resampling
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
    if target == "score":
        return [score_from_accumulator(acc, task.theta, point.tau, task.kernel).values]
    return [observed_info_from_accumulator(acc, point.tau, task.kernel).values]


def _oracle_estimate(task: _Task, target: str) -> list:
    return [task.bundle.oracle_score, task.bundle.oracle_info]


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
_LOGLIK = (
    lambda c, b: (b.ssm if c.loglik_source == "smc" else b.loglik_point) is not None,
    "an exact log-likelihood, or loglik_source = smc on a state-space model",
    "estimator.loglik_source",
)
_ORACLE = (
    lambda c, b: b.oracle_score is not None, "a model with an oracle", "estimator.method"
)


class _Source(NamedTuple):
    """A moment source: its estimate, the optional cells its rows fill, and
    what it needs of the model."""

    estimate: Callable  # (task, target) -> list of score / information arrays
    columns: tuple  # of tau, h, delta, n_particles, fd_particles, oracle
    needs: tuple


_SOURCES = {
    "is": _Source(_is_estimate, ("tau", "n_particles", "oracle"), (_GENERAL, _KERNEL)),
    "quad": _Source(_quad_estimate, ("tau", "oracle"), (_GENERAL, _AT_MOST_2D, _KERNEL)),
    # FD on SMC likelihoods reports the particles per stencil node
    "fd": _Source(_fd_estimate, ("h", "fd_particles", "oracle"), (_LOGLIK,)),
    "smc": _Source(
        _smc_estimate, ("tau", "delta", "n_particles", "oracle"), (_SSM, _KERNEL)
    ),
    "oracle": _Source(_oracle_estimate, (), (_ORACLE,)),
}

METHODS = tuple(
    f"{source}-{target}"
    for source in _SOURCES
    if source != "oracle"
    for target in ("score", "oim")
) + ("oracle",)


def _grid_cells(columns: tuple, config: ExperimentConfig, point: _GridPoint) -> dict:
    """The tau/h/delta/n_particles cells of a run's rows; unlisted ones are None."""
    grid = {"tau": point.tau, "h": point.h, "delta": point.delta, "n_particles": point.n}
    cells = {name: grid[name] if name in columns else None for name in grid}
    if "fd_particles" in columns and config.loglik_source == "smc":
        cells["n_particles"] = config.fd_particles or point.n
    return cells


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

    cells = _grid_cells(entry.columns, config, point)
    oracles = (None, None)
    if "oracle" in entry.columns:
        oracles = (bundle.oracle_score, bundle.oracle_info)
    rows = []
    for array in arrays:
        reference = oracles[array.ndim - 1]
        for index, value in np.ndenumerate(array):
            estimate = None if error else float(value)
            oracle = None if reference is None else float(reference[index])
            abs_error = None
            if estimate is not None and oracle is not None:
                abs_error = abs(estimate - oracle)
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
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(
                pool.map(lambda t: _run_one(config, bundle, t[0], t[1]), tasks)
            )
    else:
        chunks = [_run_one(config, bundle, point, rep) for point, rep in tasks]
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: (r.run_id, r.comp_i, r.comp_j if r.comp_j else 0))
    return records


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(records, path, timings: bool = False) -> None:
    """Write records in RunRecord field order; timings only on request."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUN_RECORD_FIELDS)
        wall = RUN_RECORD_FIELDS.index("wall_time_ms")
        for r in records:
            row = [_cell(getattr(r, name)) for name in RUN_RECORD_FIELDS]
            if not timings:
                row[wall] = ""
            writer.writerow(row)


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

    Non-positive or non-finite pairs are dropped with a warning; at least
    three surviving points are required.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = (xs > 0) & (ys > 0) & np.isfinite(xs) & np.isfinite(ys)
    n_filtered = int((~keep).sum())
    if n_filtered:
        warnings.warn(f"dropped {n_filtered} non-positive points from slope fit")
    xs, ys = xs[keep], ys[keep]
    if xs.size < 3:
        raise ValueError("need at least 3 distinct positive x values")
    lx, ly = np.log(xs), np.log(ys)
    dx = lx - lx.mean()
    slope = float(dx @ (ly - ly.mean()) / (dx @ dx))
    resid = ly - ly.mean() - slope * dx
    dof = xs.size - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    stderr = math.sqrt(sigma2 / float(dx @ dx))
    return SlopeFit(slope=slope, stderr=stderr, n_points=int(xs.size), n_filtered=n_filtered)


def fit_rate_slope(records, x_field: str, y_transform: str = "mse") -> SlopeFit:
    """Slope of an error aggregate against a grid field, on log-log scale.

    Groups records by ``x_field`` (e.g. ``n_particles`` or ``tau``) and
    aggregates ``estimate - oracle`` per group: ``mse`` means the mean
    squared error, ``abs_bias`` the absolute mean error.
    """
    if y_transform not in ("mse", "abs_bias"):
        raise ValueError("y_transform must be 'mse' or 'abs_bias'")
    groups: dict = {}
    for r in records:
        x = getattr(r, x_field)
        if x is None or r.estimate is None or r.oracle is None:
            continue
        groups.setdefault(float(x), []).append(r.estimate - r.oracle)
    xs = sorted(groups)
    ys = []
    for x in xs:
        errs = np.asarray(groups[x])
        if y_transform == "mse":
            ys.append(float(np.mean(errs**2)))
        else:
            ys.append(abs(float(np.mean(errs))))
    return fit_loglog_slope(xs, ys)


# ---------------------------------------------------------------------------
# finite-difference comparison
# ---------------------------------------------------------------------------


def compare_fd(config: ExperimentConfig, threads: int = 1):
    """Run FD and the proposed estimator at matched likelihood budget.

    For state-space models the proposed method is the extended filter and
    each FD stencil node gets a bootstrap likelihood estimate with
    ``smc_n / (#nodes)`` particles, so both sides spend the same number of
    particle passes.  For general models the proposed method is importance
    sampling and FD evaluates the exact log-likelihood (its variance column
    is then exactly zero).  Returns ``(records, table_rows)`` where the
    table aggregates per-method bias, variance and MSE per component plus
    the FD/proposed variance ratio.
    """
    target = config.compare_target
    n_nodes = len(_fd_stencil(len(config.theta), target))
    fd_n = max(2, config.compare_smc_n // n_nodes)
    is_ssm = config.model_kind in ("lgssm", "nonlinear-ar1")
    proposed = ("smc-" if is_ssm else "is-") + target
    fd_method = "fd-" + target
    proposed_cfg = replace(config, method=proposed, ns=(config.compare_smc_n,))
    fd_cfg = replace(
        config,
        method=fd_method,
        loglik_source="smc" if is_ssm else "exact",
        fd_particles=fd_n,
        ns=(config.compare_smc_n,),
    )
    records = run_experiment(proposed_cfg, threads=threads) + run_experiment(
        fd_cfg, threads=threads
    )

    def summary(method):
        """Table rows per component, variance_ratio still unset."""
        groups: dict = {}
        for r in records:
            if r.method == method and r.estimate is not None:
                comp = (r.comp_i, r.comp_j)
                groups.setdefault(comp, []).append((r.estimate, r.oracle))
        rows = {}
        for (comp_i, comp_j), values in sorted(groups.items()):
            est = np.array([v[0] for v in values])
            oracle = values[0][1]
            mean = float(est.mean())
            rows[comp_i, comp_j] = {
                "method": method,
                "comp_i": comp_i,
                "comp_j": comp_j,
                "mean_estimate": mean,
                "oracle": oracle,
                "abs_bias": None if oracle is None else abs(mean - oracle),
                "variance": float(est.var(ddof=1)) if est.size > 1 else 0.0,
                "mse": None if oracle is None else float(np.mean((est - oracle) ** 2)),
            }
        return rows

    proposed_rows = summary(proposed)
    fd_rows = summary(fd_method)
    table = list(fd_rows.values()) + list(proposed_rows.values())
    for row in table:
        comp = (row["comp_i"], row["comp_j"])
        proposed_var = proposed_rows.get(comp, {}).get("variance")
        fd_var = fd_rows.get(comp, {}).get("variance")
        row["variance_ratio"] = (
            fd_var / proposed_var
            if (fd_var is not None and proposed_var not in (None, 0.0))
            else None
        )
    return records, table


def write_compare_csv(table, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COMPARE_TABLE_FIELDS)
        for row in table:
            writer.writerow([_cell(row[f]) for f in COMPARE_TABLE_FIELDS])
