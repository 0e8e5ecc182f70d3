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
import math
import re
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .general import (
    DegeneratePosteriorError,
    FDConfig,
    GeneralModel,
    fd_info,
    fd_score,
    observed_info_from_moments,
    posterior_moments_is,
    posterior_moments_quadrature,
    score_from_moments,
)
from .models import gaussian_location_model, poisson_loglink_model
from .perturbation import make_gaussian_kernel
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

METHODS = (
    "is-score",
    "is-oim",
    "quad-score",
    "quad-oim",
    "fd-score",
    "fd-oim",
    "smc-score",
    "smc-oim",
    "oracle",
)

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
        run = parser["run"]
    except KeyError as exc:
        raise ConfigError(f"missing section [{exc.args[0]}]", key=str(exc.args[0]))

    kind = model.get("kind", "")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}", key="model.kind")

    model_params = {}
    for key in _ALLOWED_KEYS["model"]:
        if key in model and key != "kind":
            model_params[key] = model[key]

    tau_rule = grid.get("tau_rule", "").strip() if grid else ""
    taus_text = grid.get("tau", "").strip() if grid else ""
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
            ns=_ints(grid.get("n", "1000")) if grid else (1000,),
            deltas=_ints(grid.get("delta", "0")) if grid else (0,),
            hs=_floats(grid.get("h", "0.1")) if grid else (0.1,),
            tau_rule=tau_rule or None,
            replications=run.getint("replications", 1),
            base_seed=run.getint("seed", 0),
            compare_target=(
                parser["compare"].get("target", "score")
                if parser.has_section("compare")
                else "score"
            ),
            compare_smc_n=(
                parser["compare"].getint("smc_n", 5000)
                if parser.has_section("compare")
                else 5000
            ),
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


def _model_float(params, key, default):
    return float(params[key]) if key in params else default


def _build_lgssm(config: ExperimentConfig) -> LinearGaussianSSM:
    params = config.model_params
    free = tuple(
        name.strip() for name in params.get("free", ",".join(PARAM_NAMES)).split(",")
    )
    fixed = {
        name: float(params[name])
        for name in PARAM_NAMES
        if name not in free and name in params
    }
    return LinearGaussianSSM(
        free=free,
        fixed=fixed,
        init=params.get("init", "stationary"),
        init_mean=_model_float(params, "init_mean", 0.0),
        init_sd=_model_float(params, "init_sd", 1.0),
    )


def build_model_bundle(config: ExperimentConfig) -> _ModelBundle:
    theta = np.asarray(config.theta, dtype=np.float64)
    params = config.model_params
    if config.model_kind == "conjugate-gaussian":
        dim = int(params.get("dim", len(theta)))
        y = _model_float(params, "y", 0.0)
        obs_sd = _model_float(params, "obs_sd", 1.0)
        model = gaussian_location_model(y=y, obs_sd=obs_sd, dim=dim)
        score = (np.full(dim, y) - theta) / obs_sd**2
        info = np.eye(dim) / obs_sd**2

        def loglik_point(th, rng):
            return float(model.log_likelihood(np.atleast_2d(th))[0])

        return _ModelBundle(
            dim=dim,
            general=model,
            loglik_point=loglik_point,
            oracle_score=score,
            oracle_info=info,
        )
    if config.model_kind == "poisson":
        y = int(float(params.get("y", "1")))
        model = poisson_loglink_model(y)
        with np.errstate(over="ignore"):
            rate = np.exp(theta[0])
        score = np.array([y - rate])
        info = np.array([[rate]])

        def loglik_point(th, rng):
            return float(model.log_likelihood(np.atleast_2d(th))[0])

        return _ModelBundle(
            dim=1,
            general=model,
            loglik_point=loglik_point,
            oracle_score=score,
            oracle_info=info,
        )

    # state-space kinds
    horizon = int(params.get("horizon", "50"))
    if config.model_kind == "lgssm":
        spec = _build_lgssm(config)
        ssm = spec.state_space()
    else:
        free = tuple(
            name.strip() for name in params.get("free", "phi").split(",")
        )
        fixed = {
            name: float(params[name])
            for name in PARAM_NAMES
            if name not in free and name in params
        }
        spec = None
        ssm = make_nonlinear_shock_model(
            free=free,
            fixed=fixed,
            init_mean=_model_float(params, "init_mean", 0.0),
            init_sd=_model_float(params, "init_sd", 1.0),
        )
    if params.get("data_csv", "").strip():
        ys = load_observations(params["data_csv"].strip())
    else:
        theta_true = np.asarray(_floats(params.get("theta_true", "")), dtype=np.float64)
        if theta_true.size != ssm.param_dim:
            raise ConfigError(
                "theta_true must match the model's free-parameter count",
                key="model.theta_true",
            )
        data_rng = np.random.default_rng(int(params.get("data_seed", "0")))
        _, ys = simulate(ssm, theta_true, horizon, data_rng)
    bundle = _ModelBundle(dim=ssm.param_dim, ssm=ssm, ys=ys, horizon=len(ys))
    if config.model_kind == "lgssm":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            der = kalman_score_info(spec, theta, ys)
        bundle.oracle_score = der.score
        bundle.oracle_info = der.info

        def loglik_point(th, rng, spec=spec, ys=ys):
            from .state_space import kalman_loglik

            return kalman_loglik(spec, th, ys)

        bundle.loglik_point = loglik_point
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
    points = []
    index = 0
    if config.tau_rule:
        match = _TAU_RULE_RE.match(config.tau_rule)
        exponent = Fraction(int(match.group(1)), int(match.group(2)))
        for n in config.ns:
            for delta in config.deltas:
                for h in config.hs:
                    points.append(
                        _GridPoint(index, float(n) ** float(exponent), n, delta, h)
                    )
                    index += 1
        return points
    for tau in config.taus:
        for n in config.ns:
            for delta in config.deltas:
                for h in config.hs:
                    points.append(_GridPoint(index, tau, n, delta, h))
                    index += 1
    return points


def _smc_loglik_eval(bundle, config, point, seed_word):
    """Noisy SMC likelihood evaluator for FD on sample-only models."""
    n_fd = config.fd_particles or point.n

    def loglik(th, rng):
        return bootstrap_loglik(
            bundle.ssm, bundle.ys, th, n_fd, rng, resampling=config.resampling
        )

    return loglik


def _run_one(config: ExperimentConfig, bundle, point, rep) -> list:
    theta = np.asarray(config.theta, dtype=np.float64)
    d = bundle.dim
    kernel = make_gaussian_kernel(config.kernel_sigmas)
    rng, seed_word = derive_substream(config.base_seed, point.index, rep)
    run_id = f"{config.method}.g{point.index:03d}.r{rep:04d}"
    method = config.method

    def records(values, error=""):
        rows = []
        wall = values.pop("wall_time_ms", None) if isinstance(values, dict) else None
        comps = values.get("comps", []) if isinstance(values, dict) else []
        for comp_i, comp_j, est in comps:
            if comp_j is None:
                oracle = (
                    float(bundle.oracle_score[comp_i])
                    if bundle.oracle_score is not None
                    else None
                )
            else:
                oracle = (
                    float(bundle.oracle_info[comp_i, comp_j])
                    if bundle.oracle_info is not None
                    else None
                )
            if method == "oracle":
                oracle = None
            abs_error = (
                abs(est - oracle) if (est is not None and oracle is not None) else None
            )
            if method.startswith(("is-", "smc-")):
                n_used = point.n
            elif method.startswith("fd-") and config.loglik_source == "smc":
                n_used = config.fd_particles or point.n
            else:
                n_used = None
            rows.append(
                RunRecord(
                    run_id=run_id,
                    seed=seed_word,
                    method=method,
                    tau=point.tau if method.startswith(("is-", "smc-", "quad-")) else None,
                    h=point.h if method.startswith("fd-") else None,
                    delta=point.delta if method.startswith("smc-") else None,
                    n_particles=n_used,
                    T=bundle.horizon,
                    comp_i=comp_i + 1,
                    comp_j=None if comp_j is None else comp_j + 1,
                    estimate=est,
                    oracle=oracle,
                    abs_error=abs_error,
                    wall_time_ms=wall,
                    error=error,
                )
            )
        return rows

    def score_comps(values):
        return [(i, None, float(values[i])) for i in range(d)]

    def info_comps(values):
        return [(i, j, float(values[i, j])) for i in range(d) for j in range(d)]

    t0 = time.perf_counter()
    try:
        if method == "is-score":
            moments = posterior_moments_is(
                bundle.general, theta, point.tau, kernel, point.n, rng
            )
            est = score_from_moments(moments, theta, point.tau, kernel)
            comps = score_comps(est.values)
        elif method == "is-oim":
            moments = posterior_moments_is(
                bundle.general, theta, point.tau, kernel, point.n, rng
            )
            est = observed_info_from_moments(moments, point.tau, kernel)
            comps = info_comps(est.values)
        elif method in ("quad-score", "quad-oim"):
            if bundle.general is None or bundle.dim > 2:
                raise ConfigError(
                    "quadrature methods need a general model with dim <= 2",
                    key="estimator.method",
                )
            moments = posterior_moments_quadrature(
                bundle.general, theta, point.tau, kernel
            )
            if method == "quad-score":
                comps = score_comps(
                    score_from_moments(moments, theta, point.tau, kernel).values
                )
            else:
                comps = info_comps(
                    observed_info_from_moments(moments, point.tau, kernel).values
                )
        elif method in ("fd-score", "fd-oim"):
            if bundle.ssm is not None and config.loglik_source == "smc":
                loglik = _smc_loglik_eval(bundle, config, point, seed_word)
            elif bundle.loglik_point is not None:
                loglik = bundle.loglik_point
            else:
                raise ConfigError(
                    "model has no likelihood evaluator for finite differences",
                    key="estimator.loglik_source",
                )
            fd_cfg = FDConfig(h=point.h, base_seed=seed_word)
            if method == "fd-score":
                comps = score_comps(fd_score(loglik, theta, fd_cfg).values)
            else:
                comps = info_comps(fd_info(loglik, theta, fd_cfg).values)
        elif method in ("smc-score", "smc-oim"):
            if bundle.ssm is None:
                raise ConfigError(
                    "smc methods need a state-space model", key="estimator.method"
                )
            filter_cfg = ExtendedFilterConfig(
                theta=theta,
                tau=point.tau,
                kernel=kernel,
                lag=point.delta,
                n_particles=point.n,
                resampling=config.resampling,
                ess_threshold=config.ess_threshold,
            )
            acc = run_extended_bootstrap(bundle.ssm, bundle.ys, filter_cfg, rng=rng)
            if method == "smc-score":
                est = score_from_accumulator(acc, theta, point.tau, kernel)
                comps = score_comps(est.values)
            else:
                est = observed_info_from_accumulator(acc, point.tau, kernel)
                comps = info_comps(est.values)
        elif method == "oracle":
            if bundle.oracle_score is None:
                raise ConfigError(
                    "model has no oracle", key="estimator.method"
                )
            comps = score_comps(bundle.oracle_score) + info_comps(bundle.oracle_info)
        else:  # pragma: no cover - guarded by config validation
            raise ConfigError(f"unknown method {method!r}")
    except (
        ParticleCollapseError,
        DegeneratePosteriorError,
        ParameterDomainError,
    ) as exc:
        wall = (time.perf_counter() - t0) * 1e3
        empty = [(i, None, None) for i in range(d)]
        if method.endswith("oim"):
            empty = [(i, j, None) for i in range(d) for j in range(d)]
        return records(
            {"comps": empty, "wall_time_ms": wall}, error=type(exc).__name__
        )
    wall = (time.perf_counter() - t0) * 1e3
    return records({"comps": comps, "wall_time_ms": wall})


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list:
    """Run all grid points and replications; returns sorted RunRecords."""
    bundle = build_model_bundle(config)
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
        for r in records:
            writer.writerow(
                [
                    r.run_id,
                    r.seed,
                    r.method,
                    _cell(r.tau),
                    _cell(r.h),
                    _cell(r.delta),
                    _cell(r.n_particles),
                    _cell(r.T),
                    r.comp_i,
                    _cell(r.comp_j),
                    _cell(r.estimate),
                    _cell(r.oracle),
                    _cell(r.abs_error),
                    _cell(r.wall_time_ms) if timings else "",
                    r.error,
                ]
            )


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


def _fd_eval_count(target: str, d: int) -> int:
    if target == "score":
        return 2 * d
    return 3 * d + 2 * d * (d - 1)


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
    d = len(config.theta)
    target = config.compare_target
    n_nodes = _fd_eval_count(target, d)
    fd_n = max(2, config.compare_smc_n // n_nodes)
    is_ssm = config.model_kind in ("lgssm", "nonlinear-ar1")
    proposed = ("smc-" if is_ssm else "is-") + target
    smc_method = proposed
    fd_method = "fd-score" if target == "score" else "fd-oim"
    smc_cfg = replace(
        config,
        method=smc_method,
        ns=(config.compare_smc_n,),
    )
    fd_cfg = replace(
        config,
        method=fd_method,
        loglik_source="smc" if is_ssm else "exact",
        fd_particles=fd_n,
        ns=(config.compare_smc_n,),
    )
    records = run_experiment(smc_cfg, threads=threads) + run_experiment(
        fd_cfg, threads=threads
    )

    def stats(method):
        per_comp: dict = {}
        for r in records:
            if r.method != method or r.estimate is None:
                continue
            per_comp.setdefault((r.comp_i, r.comp_j), []).append((r.estimate, r.oracle))
        rows = {}
        for comp, values in sorted(per_comp.items()):
            est = np.array([v[0] for v in values])
            oracle = values[0][1]
            mean = float(est.mean())
            var = float(est.var(ddof=1)) if est.size > 1 else 0.0
            if oracle is None:
                rows[comp] = (mean, None, None, var, None)
            else:
                rows[comp] = (
                    mean,
                    oracle,
                    abs(mean - oracle),
                    var,
                    float(np.mean((est - oracle) ** 2)),
                )
        return rows

    smc_stats = stats(smc_method)
    fd_stats = stats(fd_method)
    table = []
    for method, rows in ((fd_method, fd_stats), (smc_method, smc_stats)):
        for comp, (mean, oracle, bias, var, mse) in rows.items():
            smc_var = smc_stats.get(comp, (None, None, None, None, None))[3]
            fd_var = fd_stats.get(comp, (None, None, None, None, None))[3]
            ratio = (
                fd_var / smc_var
                if (fd_var is not None and smc_var not in (None, 0.0))
                else None
            )
            table.append(
                {
                    "method": method,
                    "comp_i": comp[0],
                    "comp_j": comp[1],
                    "mean_estimate": mean,
                    "oracle": oracle,
                    "abs_bias": bias,
                    "variance": var,
                    "mse": mse,
                    "variance_ratio": ratio,
                }
            )
    return records, table


def write_compare_csv(table, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COMPARE_TABLE_FIELDS)
        for row in table:
            writer.writerow([_cell(row[f]) for f in COMPARE_TABLE_FIELDS])
