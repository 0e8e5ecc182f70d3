"""Config parsing, seed splitting, experiment runs, and rate fitting."""

import math
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dfscore.harness as harness
from dfscore.harness import (
    MODEL_KINDS,
    RUN_RECORD_FIELDS,
    SOURCES,
    COMPARE_TABLE_FIELDS,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    build_model_bundle,
    compare_fd,
    derive_substream,
    fit_loglog_slope,
    fit_rate_slope,
    load_config,
    run_experiment,
    write_compare_csv,
    write_records_csv,
    _SCHEMA,
    _GridPoint,
    _run_one,
    _spawn,
)

CONJUGATE_INI = """
[model]
kind = conjugate-gaussian
dim = 1
y = 0.0

[estimator]
method = is-score
theta = 1.0
kernel_sigmas = 1.0

[grid]
tau = 0.1
n = 2000

[run]
replications = 2
seed = 11
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def base_config(**overrides):
    kwargs = dict(
        model_kind="conjugate-gaussian",
        model_params={"dim": 1, "y": 0.0},
        method="is-score",
        theta=(1.0,),
        kernel_sigmas=(1.0,),
        resampling="multinomial",
        ess_threshold=None,
        loglik_source="exact",
        taus=(0.1,),
        ns=(2000,),
        deltas=(0,),
        hs=(0.1,),
        tau_rule=None,
        replications=2,
        base_seed=11,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_load_config_happy_path(tmp_path):
    config = load_config(write_config(tmp_path, CONJUGATE_INI))
    assert config.model_kind == "conjugate-gaussian"
    assert config.method == "is-score"
    assert config.taus == (0.1,)
    assert config.ns == (2000,)
    assert config.replications == 2


def test_unknown_key_is_named(tmp_path):
    path = write_config(tmp_path, CONJUGATE_INI.replace("dim = 1", "dim = 1\nwhom = 2"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "model.whom"
    assert "whom" in str(err.value)


def test_unknown_section_and_method(tmp_path):
    path = write_config(tmp_path, CONJUGATE_INI + "\n[extra]\nfoo = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "extra"

    path = write_config(
        tmp_path, CONJUGATE_INI.replace("method = is-score", "method = magic"), "m.ini"
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "estimator.method"


def test_tau_rule_parsing(tmp_path):
    text = CONJUGATE_INI.replace("tau = 0.1", "tau_rule = n^(-1/6)")
    config = load_config(write_config(tmp_path, text))
    assert config.tau_rule == "n^(-1/6)"
    bad = CONJUGATE_INI.replace("tau = 0.1", "tau_rule = oops")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad, "bad.ini"))
    both = CONJUGATE_INI.replace("tau = 0.1", "tau = 0.1\ntau_rule = n^(-1/6)")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, both, "both.ini"))


def test_config_grid_validation():
    with pytest.raises(ConfigError):
        base_config(ns=(1,))
    with pytest.raises(ConfigError):
        base_config(taus=(-0.1,))
    with pytest.raises(ConfigError):
        base_config(replications=0)
    with pytest.raises(ConfigError):
        base_config(hs=(0.0,))
    for sigmas in ((0.0,), (-1.0,), (float("inf"),), (float("nan"),)):
        with pytest.raises(ConfigError) as err:
            base_config(kernel_sigmas=sigmas)
        assert err.value.key == "estimator.kernel_sigmas"


LGSSM_INI = """
[model]
kind = lgssm
free = phi
log_sigma_v = 0.0
log_sigma_w = 0.0
init = fixed
theta_true = 0.5
horizon = 5

[estimator]
method = smc-score
theta = 0.4

[grid]
tau = 0.1
n = 100
"""

# A value each schema row rejects: as INI text, and typed as ExperimentConfig
# holds it.
BAD_VALUES = {
    "model.kind": ("bogus", "bogus"),
    "model.free": ("phi, phi", ("phi", "phi")),
    "model.phi": ("nan", math.nan),
    "model.log_sigma_v": ("inf", math.inf),
    "model.log_sigma_w": ("-inf", -math.inf),
    "model.init": ("bogus", "bogus"),
    "model.init_mean": ("nan", math.nan),
    "model.init_sd": ("inf", math.inf),
    "model.theta_true": ("0.5, nan", (0.5, math.nan)),
    "model.data_seed": ("-1", -1),
    "model.horizon": ("0", 0),
    "model.data_csv": ("missing/ys.csv", "missing/ys.csv"),
    "model.y": ("nan", math.nan),
    "model.obs_sd": ("0", 0.0),
    "model.dim": ("0", 0),
    "estimator.method": ("magic", "magic"),
    "estimator.theta": ("nan", (math.nan,)),
    "estimator.kernel_sigmas": ("1.0, 0", (1.0, 0.0)),
    "estimator.resampling": ("bogus", "bogus"),
    "estimator.ess_threshold": ("0", 0.0),
    "estimator.loglik_source": ("bogus", "bogus"),
    "grid.tau": ("inf", (math.inf,)),
    "grid.n": ("1", (1,)),
    "grid.delta": ("-1", (-1,)),
    "grid.h": ("nan", (math.nan,)),
    "grid.tau_rule": ("n^(1/0)", "n^(1/0)"),
    "run.replications": ("0", 0),
    "run.seed": ("-1", -1),
    "compare.target": ("bogus", "bogus"),
    "compare.smc_n": ("1", 1),
}


@pytest.mark.parametrize(
    "section, key", [(section, key) for section, rows in _SCHEMA.items() for key in rows]
)
def test_every_schema_row_rejects_a_bad_value_on_its_key(tmp_path, section, key):
    text, value = BAD_VALUES[f"{section}.{key}"]
    row = _SCHEMA[section][key]
    base = CONJUGATE_INI if "conjugate-gaussian" in row.kinds else LGSSM_INI
    good = load_config(write_config(tmp_path, base, "good.ini"))
    # a tau_rule replaces the tau grid
    drop = ("tau", key) if key == "tau_rule" else (key,)
    ini = "".join(
        line for line in base.splitlines(keepends=True) if line.split(" = ")[0] not in drop
    )
    if f"[{section}]" not in ini:
        ini += f"\n[{section}]\n"
    ini = ini.replace(f"[{section}]\n", f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, ini))
    assert err.value.key == f"{section}.{key}"
    assert row.rule in str(err.value)

    if row.field:
        changes = {row.field: value}
    else:
        changes = {"model_params": {**good.model_params, key: value}}
    with pytest.raises(ConfigError) as err:
        replace(good, **changes)
    assert err.value.key == f"{section}.{key}"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**{**good.__dict__, **changes})
    assert err.value.key == f"{section}.{key}"


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("replications", "3", "run.replications"),
        ("taus", 0.1, "grid.tau"),
        ("ess_threshold", "0.5", "estimator.ess_threshold"),
    ],
)
def test_wrongly_typed_value_in_code_is_a_config_error(field, value, key):
    # a check that cannot compare the value fails it instead of raising TypeError
    with pytest.raises(ConfigError) as err:
        replace(base_config(), **{field: value})
    assert err.value.key == key


def test_readme_key_table_matches_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `(\w+\.\w+)` \| (.+?) \| (.+?) \| (.+?) \|$", readme, re.M)
    kinds = lambda row: "all" if row.kinds == MODEL_KINDS else ", ".join(row.kinds)
    methods = lambda row: "all" if row.methods == SOURCES else ", ".join(row.methods)
    assert table == [
        (f"{section}.{key}", kinds(row), methods(row), row.rule)
        for section, rows in _SCHEMA.items()
        for key, row in rows.items()
    ]
    for kind in MODEL_KINDS:
        listed = re.search(rf"^- `{kind}`: (.+)$", readme, re.M).group(1)
        keys = [key for key, row in _SCHEMA["model"].items() if kind in row.kinds]
        assert listed == ", ".join(f"`{key}`" for key in keys)


# ---------------------------------------------------------------------------
# seed splitting
# ---------------------------------------------------------------------------


def test_substreams_are_deterministic_and_distinct():
    rng_a, word_a = derive_substream(7, 3, 5)
    rng_b, word_b = derive_substream(7, 3, 5)
    assert word_a == word_b
    assert rng_a.standard_normal(4).tolist() == rng_b.standard_normal(4).tolist()
    _, word_c = derive_substream(7, 3, 6)
    _, word_d = derive_substream(7, 4, 5)
    assert len({word_a, word_c, word_d}) == 3


def test_substream_collisions_absent_on_one_million_derivations():
    # 10^6 derived 128-bit states across (base, grid, rep) combinations
    seen = set()
    for base in range(10):
        for grid in range(100):
            for rep in range(1000):
                seen.add(_spawn(base, grid, rep).generate_state(2, np.uint64).tobytes())
    assert len(seen) == 10 * 100 * 1000


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_record_cardinality_score_and_info():
    records = run_experiment(base_config(replications=1))
    assert len(records) == 1  # d = 1 score
    records = run_experiment(base_config(method="is-oim", replications=1))
    assert len(records) == 1  # d^2 = 1
    config = base_config(
        model_params={"dim": 2, "y": 0.0},
        theta=(1.0, 0.5),
        kernel_sigmas=(1.0, 1.0),
        method="is-oim",
        replications=1,
    )
    records = run_experiment(config)
    assert len(records) == 4
    assert all(r.oracle is not None and r.abs_error is not None for r in records)


def lgssm_config(**overrides):
    kwargs = dict(
        model_kind="lgssm",
        model_params={
            "free": ("phi",),
            "log_sigma_v": 0.0,
            "log_sigma_w": 0.0,
            "init": "fixed",
            "init_sd": 1.0,
            "theta_true": (0.6,),
            "data_seed": 4,
            "horizon": 10,
        },
        theta=(0.5,),
        taus=(0.05,),
        ns=(200,),
        deltas=(3,),
        kernel_sigmas=(2.0,),
    )
    kwargs.update(overrides)
    return base_config(**kwargs)


# one config per moment source, each with more than one run
THREAD_CASES = {
    "is-score": base_config(taus=(0.1, 0.2), replications=3),
    "is-oim": base_config(method="is-oim", taus=(0.1, 0.2), replications=3),
    "quad-oim": base_config(method="quad-oim", taus=(0.1, 0.2), replications=2),
    "smc-score": lgssm_config(method="smc-score", replications=3),
    "smc-oim": lgssm_config(method="smc-oim", replications=3),
    "fd-score-smc": lgssm_config(method="fd-score", loglik_source="smc", replications=3),
    "fd-oim-exact": base_config(method="fd-oim", hs=(0.1, 0.2), replications=2),
    "oracle": base_config(method="oracle", taus=(0.1, 0.2), replications=2),
}


@pytest.mark.parametrize("case", sorted(THREAD_CASES))
def test_runs_are_reproducible_and_thread_invariant(tmp_path, case):
    config = THREAD_CASES[case]
    a = run_experiment(config, threads=1)
    b = run_experiment(config, threads=2)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(a, pa)
    write_records_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize(
    "config",
    [
        lgssm_config(method="smc-oim", replications=3, compare_smc_n=400),
        base_config(method="is-oim", replications=3, compare_smc_n=2000),
    ],
    ids=["lgssm", "conjugate-gaussian"],
)
def test_compare_fd_tables_are_thread_invariant(tmp_path, config):
    paths = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
    for threads, path in zip((1, 2), paths):
        write_compare_csv(compare_fd(config, threads=threads)[1], path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("case", sorted(THREAD_CASES))
def test_only_is_and_quadrature_runs_use_the_thread_pool(monkeypatch, case):
    # a filter's small numpy calls hold the GIL, so a second thread only slows them
    seen = set()

    def spy(*args):
        seen.add(threading.get_ident())
        return _run_one(*args)

    monkeypatch.setattr(harness, "_run_one", spy)
    run_experiment(THREAD_CASES[case], threads=2)
    if case.startswith(("is-", "quad-")):
        assert seen and threading.get_ident() not in seen
    else:
        assert seen == {threading.get_ident()}


def test_csv_header_is_pinned_schema_v1(tmp_path):
    # golden header: changing any column name or order is a schema break
    assert RUN_RECORD_FIELDS == (
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
    path = tmp_path / "r.csv"
    write_records_csv(run_experiment(base_config(replications=1)), path)
    assert path.read_text().splitlines()[0] == ",".join(RUN_RECORD_FIELDS)


def test_timings_column_blank_by_default(tmp_path):
    records = run_experiment(base_config(replications=1))
    assert records[0].wall_time_ms is not None  # measured on the record
    p_default = tmp_path / "d.csv"
    p_timed = tmp_path / "t.csv"
    write_records_csv(records, p_default)
    write_records_csv(records, p_timed, timings=True)
    row = p_default.read_text().splitlines()[1].split(",")
    assert row[RUN_RECORD_FIELDS.index("wall_time_ms")] == ""
    row_t = p_timed.read_text().splitlines()[1].split(",")
    assert float(row_t[RUN_RECORD_FIELDS.index("wall_time_ms")]) > 0


def test_estimator_failure_tagged_not_fatal():
    # theta far in the Poisson tail: exp overflows, every weight is zero
    config = base_config(
        model_kind="poisson",
        model_params={"y": 3.0},
        theta=(800.0,),
        replications=2,
    )
    records = run_experiment(config)
    assert len(records) == 2
    assert all(r.error == "DegeneratePosteriorError" for r in records)
    assert all(r.estimate is None for r in records)


def test_conjugate_quadrature_bias_column_matches_closed_form():
    # quadrature estimator: abs_error equals the closed-form bias to 1e-6
    config = base_config(method="quad-score", replications=1)
    records = run_experiment(config)
    assert records[0].abs_error == pytest.approx(0.01 / 1.01, abs=1e-6)
    config = base_config(method="quad-oim", replications=1)
    records = run_experiment(config)
    assert records[0].estimate == pytest.approx(1.0 / 1.01, abs=1e-6)


def test_oracle_method_records():
    config = base_config(method="oracle", replications=1)
    records = run_experiment(config)
    # d score rows + d^2 info rows, oracle column blank
    assert len(records) == 2
    assert records[0].estimate == pytest.approx(-1.0)
    assert records[1].estimate == pytest.approx(1.0)
    assert all(r.oracle is None for r in records)


def test_smc_methods_through_harness():
    config = base_config(
        model_kind="lgssm",
        model_params={
            "free": ("phi",),
            "log_sigma_v": 0.0,
            "log_sigma_w": 0.0,
            "init": "fixed",
            "init_sd": 1.0,
            "theta_true": (0.5,),
            "data_seed": 3,
            "horizon": 15,
        },
        method="smc-score",
        theta=(0.4,),
        taus=(0.1,),
        ns=(400,),
        deltas=(3,),
        replications=2,
    )
    records = run_experiment(config)
    assert len(records) == 2
    assert all(r.oracle is not None for r in records)
    assert all(r.T == 15 for r in records)
    config2 = base_config(
        model_kind="nonlinear-ar1",
        model_params={
            "free": ("phi",),
            "log_sigma_v": 0.0,
            "log_sigma_w": 0.0,
            "theta_true": (0.5,),
            "data_seed": 3,
            "horizon": 10,
        },
        method="smc-oim",
        theta=(0.4,),
        taus=(0.1,),
        ns=(300,),
        deltas=(2,),
        replications=1,
    )
    records2 = run_experiment(config2)
    assert len(records2) == 1
    assert all(r.oracle is None for r in records2)  # no oracle for the demo model


LGSSM_2D = {
    "free": ("phi", "log_sigma_v"),
    "log_sigma_w": 0.0,
    "init": "fixed",
    "init_sd": 1.0,
    "theta_true": (0.6, 0.0),
    "data_seed": 3,
    "horizon": 6,
}
SCORE_LAYOUT = [(1, None), (2, None)]
INFO_LAYOUT = [(1, 1), (1, 2), (2, 1), (2, 2)]
ORACLE_LAYOUT = [(1, None), (1, 1), (1, 2), (2, None), (2, 1), (2, 2)]


@pytest.mark.parametrize(
    "method, loglik_source, filled, layout",
    [
        ("is-score", "exact", {"tau", "n_particles"}, SCORE_LAYOUT),
        ("is-oim", "exact", {"tau", "n_particles"}, INFO_LAYOUT),
        ("quad-score", "exact", {"tau"}, SCORE_LAYOUT),
        ("quad-oim", "exact", {"tau"}, INFO_LAYOUT),
        ("fd-score", "exact", {"h"}, SCORE_LAYOUT),
        ("fd-oim", "exact", {"h"}, INFO_LAYOUT),
        ("fd-score", "smc", {"h", "n_particles"}, SCORE_LAYOUT),
        ("fd-oim", "smc", {"h", "n_particles"}, INFO_LAYOUT),
        ("smc-score", "exact", {"tau", "delta", "n_particles"}, SCORE_LAYOUT),
        ("smc-oim", "exact", {"tau", "delta", "n_particles"}, INFO_LAYOUT),
        ("oracle", "exact", set(), ORACLE_LAYOUT),
    ],
)
def test_every_method_row_layout_and_grid_cells(method, loglik_source, filled, layout):
    on_ssm = method.startswith("smc-") or loglik_source == "smc"
    config = base_config(
        model_kind="lgssm" if on_ssm else "conjugate-gaussian",
        model_params=LGSSM_2D if on_ssm else {"dim": 2, "y": 0.3},
        method=method,
        theta=(0.5, -0.1),
        kernel_sigmas=(1.0, 0.8),
        loglik_source=loglik_source,
        taus=(0.1,),
        ns=(64,),
        deltas=(2,),
        hs=(0.05,),
        replications=2,
    )
    records = run_experiment(config)
    assert len(records) == 2 * len(layout)
    # FD on SMC likelihoods reports its particles per stencil node, the grid n
    expected = {"tau": 0.1, "h": 0.05, "delta": 2, "n_particles": 64}
    for rep in range(2):
        rows = [r for r in records if r.run_id == f"{method}.g000.r{rep:04d}"]
        assert [(r.comp_i, r.comp_j) for r in rows] == layout
    for r in records:
        assert r.error == "" and r.estimate is not None
        assert r.T == (6 if on_ssm else None)
        cells = {name: getattr(r, name) for name in expected}
        assert {name for name, value in cells.items() if value is not None} == filled
        assert all(cells[name] == expected[name] for name in filled)
        if method == "oracle":
            assert r.oracle is None and r.abs_error is None
        else:
            assert r.oracle is not None and r.abs_error == abs(r.estimate - r.oracle)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def test_slope_exact_quadratic():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_loglog_slope(xs, xs**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)


def test_slope_inverse_law():
    xs = np.array([1.0, 3.0, 9.0, 27.0])
    fit = fit_loglog_slope(xs, 5.0 / xs)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_slope_filters_nonpositive_with_warning():
    with pytest.warns(UserWarning, match="dropped 1"):
        fit = fit_loglog_slope([1.0, 2.0, 4.0, 8.0], [1.0, 0.0, 16.0, 64.0])
    assert fit.n_filtered == 1
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])


def test_slope_needs_three_distinct_x_values():
    # points on one x leave the slope undefined: say so, do not divide by zero
    with pytest.raises(ValueError, match="3 distinct positive x values"):
        fit_loglog_slope([10.0, 10.0, 10.0], [1.0, 2.0, 3.0])
    fit = fit_loglog_slope([1.0, 2.0, 2.0, 4.0], [1.0, 4.0, 4.0, 16.0])
    assert fit.slope == pytest.approx(2.0, abs=1e-12) and fit.n_points == 4


def test_fit_rate_slope_skips_rows_without_an_estimate_or_an_oracle():
    def row(n, estimate, oracle=0.0):
        return RunRecord(
            "r", 0, "is-score", 0.1, None, None, n, None, 1, None, estimate, oracle, None, None
        )

    kept = [row(n, 1.0 / n) for n in (10, 100, 1000)]
    skipped = [row(10_000, None), row(100_000, 5.0, oracle=None)]
    fit = fit_rate_slope(kept + skipped, "n_particles")
    assert fit.n_points == 3
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_fit_rate_slope_rejects_an_unknown_transform():
    with pytest.raises(ValueError, match="y_transform"):
        fit_rate_slope([], "tau", "rmse")


def test_fit_rate_slope_over_records():
    config = base_config(
        method="quad-score", taus=(0.4, 0.2, 0.1, 0.05), replications=1
    )
    records = run_experiment(config)
    fit = fit_rate_slope(records, "tau", "abs_bias")
    assert 1.9 <= fit.slope <= 2.1  # tau^2 bias, noise-free moments


# ---------------------------------------------------------------------------
# finite-difference comparison
# ---------------------------------------------------------------------------


def test_compare_fd_exact_quadratic_has_zero_fd_variance(tmp_path):
    config = base_config(method="is-score", replications=4, compare_smc_n=2000)
    records, table = compare_fd(config)
    fd_rows = [row for row in table if row["method"] == "fd-score"]
    assert fd_rows and all(row["variance"] == 0.0 for row in fd_rows)
    path = tmp_path / "cmp.csv"
    write_compare_csv(table, path)
    assert path.read_text().splitlines()[0] == ",".join(COMPARE_TABLE_FIELDS)


def test_compare_fd_ratio_is_blank_when_the_proposed_variance_is_zero(tmp_path):
    # one replication leaves every variance at 0; the CLI forbids it, the library does not
    config = base_config(method="is-score", replications=1, compare_smc_n=2000)
    _, table = compare_fd(config)
    assert table and all(row["variance_ratio"] is None for row in table)
    path = tmp_path / "cmp.csv"
    write_compare_csv(table, path)
    assert all(line.endswith(",") for line in path.read_text().splitlines()[1:])


def test_compare_fd_lgssm_emits_ratio():
    config = base_config(
        model_kind="lgssm",
        model_params={
            "free": ("phi",),
            "log_sigma_v": 0.0,
            "log_sigma_w": 0.0,
            "init": "fixed",
            "init_sd": 1.0,
            "theta_true": (0.6,),
            "data_seed": 4,
            "horizon": 10,
        },
        method="smc-score",
        theta=(0.5,),
        taus=(0.05,),
        deltas=(3,),
        kernel_sigmas=(2.0,),
        replications=4,
        compare_smc_n=800,
    )
    records, table = compare_fd(config)
    assert {row["method"] for row in table} == {"fd-score", "smc-score"}
    assert all(np.isfinite(row["variance_ratio"]) for row in table)
    assert all(row["mse"] is not None for row in table)


def test_run_one_handles_collapse(monkeypatch):
    config = base_config(
        model_kind="lgssm",
        model_params={
            "free": ("phi",),
            "log_sigma_v": 0.0,
            "log_sigma_w": 0.0,
            "init": "fixed",
            "init_sd": 1.0,
            "theta_true": (0.5,),
            "data_seed": 3,
            "horizon": 5,
        },
        method="smc-score",
        theta=(0.4,),
        replications=1,
    )
    bundle = build_model_bundle(config)
    from dataclasses import replace as dc_replace

    broken = dc_replace(
        bundle.ssm, obs_logdensity=lambda y, x, t: np.full(x.shape[0], -np.inf)
    )
    bundle.ssm = broken
    rows = _run_one(config, bundle, _GridPoint(0, 0.1, 100, 2, 0.1), 0)
    assert all(r.error == "ParticleCollapseError" for r in rows)
    assert all(r.estimate is None for r in rows)
