"""Output checks of each workload against the independent references.

Every function takes the program's outputs in plain form and returns a list
of failure messages; an empty list means the outputs passed.  Statistical
bands are "k standard errors plus a relative allowance": k keeps the
two-sided tail of a normal k-sigma band (``references.t_multiplier``), so a
correct program fails a band about once in 16 000 checks for k = 4 however
few replicates a run holds.
"""

from __future__ import annotations

import math

import numpy as np

from references import NORMAL_4SD_TAIL, t_multiplier

# Relative allowances for bias the estimators have by design (README,
# "Output checks").
LAG_SCORE_ALLOWANCE = 0.25
FD_COMPARE_ALLOWANCE = 0.15
ORACLE_RTOL = 1e-6
QUAD_ATOL = 1e-6


def _band(values, target, allowance, label):
    """Mean of replicate ``values`` (R, ...) within k SE + allowance*|target|."""
    values = np.asarray(values, dtype=np.float64)
    reps = values.shape[0]
    if reps < 2:
        return [f"{label}: need >= 2 replicates, got {reps}"]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(reps)
    k = t_multiplier(NORMAL_4SD_TAIL, reps - 1)
    return _band_from_stats(mean, se, k, target, allowance, label)


def _band_from_stats(mean, se, k, target, allowance, label):
    mean, se, target = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (mean, se, target))
    width = k * se + allowance * np.abs(target)
    out = []
    for idx in np.ndindex(target.shape):
        dev = abs(mean[idx] - target[idx])
        if not dev <= width[idx]:
            out.append(
                f"{label}{list(idx)}: mean {mean[idx]:.6g} is {dev:.4g} from reference "
                f"{target[idx]:.6g}, band {width[idx]:.4g} ({k:.3g} SE + {allowance:g} rel)"
            )
    return out


def _symmetric_finite(info, label):
    info = np.asarray(info)
    out = []
    if not np.all(np.isfinite(info)):
        out.append(f"{label}: information matrix is not finite")
    if not np.array_equal(info, info.T):
        out.append(f"{label}: information matrix is not bitwise symmetric")
    return out


def check_lag_sweep(replicates, ref_score, horizon, lags):
    """``replicates[lag]`` is a list of dicts with keys ``score``, ``info``,
    ``complete`` and ``readoff_horizon``, one per replicate, with replicate r
    run on the same random stream at every lag."""
    out = []
    top = max(lags)
    for lag in lags:
        for r, rep in enumerate(replicates[lag]):
            label = f"lag {lag} replicate {r}"
            if not np.all(np.isfinite(rep["score"])):
                out.append(f"{label}: score is not finite")
            out += _symmetric_finite(rep["info"], label)
            if lag >= horizon - 1:
                if not rep["complete"]:
                    out.append(f"{label}: accumulator is incomplete")
                if not np.all(np.asarray(rep["readoff_horizon"]) == horizon):
                    out.append(f"{label}: a read-off horizon differs from T={horizon}")
    for lag in lags:
        if 0 < lag < top:
            scores = [rep["score"] for rep in replicates[lag]]
            out += _band(scores, ref_score, LAG_SCORE_ALLOWANCE, f"lag {lag} score")
    # Paired gaps to full smoothing must not grow with the lag.
    full = np.array([rep["score"] for rep in replicates[top]])
    gaps = {
        lag: np.linalg.norm(np.array([rep["score"] for rep in replicates[lag]]) - full, axis=1)
        for lag in lags
        if lag < top
    }
    ordered = sorted(gaps)
    for lo, hi in zip(ordered, ordered[1:]):
        diff = gaps[hi] - gaps[lo]
        reps = diff.size
        if reps < 2:
            continue
        k = t_multiplier(NORMAL_4SD_TAIL, reps - 1)
        se = diff.std(ddof=1) / math.sqrt(reps)
        if diff.mean() > k * se:
            out.append(
                f"mean gap |s_L - s_{top}| grows from lag {lo} ({gaps[lo].mean():.4g}) "
                f"to lag {hi} ({gaps[hi].mean():.4g}) by more than {k:.3g} SE ({se:.4g})"
            )
    return out


def parse_compare_csv(text):
    """Rows of the compare-fd table as dicts of floats (None for empty)."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        row = {"method": cells["method"]}
        for key in header[1:]:
            row[key] = float(cells[key]) if cells[key] != "" else None
        rows.append(row)
    return rows


def check_fd_compare(rows, ref_info, replications, csv_threads2, csv_threads1):
    """``rows`` from ``parse_compare_csv``; ``ref_info`` the reference
    observed information; the two CSV texts from --threads 2 and 1."""
    out = []
    if csv_threads2 != csv_threads1:
        out.append("compare-fd CSV differs between --threads 2 and --threads 1")
    ref_info = np.asarray(ref_info)
    d = ref_info.shape[0]
    methods = sorted({row["method"] for row in rows})
    if methods != ["fd-oim", "smc-oim"]:
        out.append(f"compare-fd methods are {methods}, expected fd-oim and smc-oim")
    k = t_multiplier(NORMAL_4SD_TAIL, replications - 1)
    for row in rows:
        i, j = int(row["comp_i"]) - 1, int(row["comp_j"]) - 1
        label = f"{row['method']} ({i + 1},{j + 1})"
        ref = ref_info[i, j]
        if row["mean_estimate"] is None or row["variance"] is None:
            out.append(f"{label}: row is error-tagged or empty")
            continue
        if row["oracle"] is None or not abs(row["oracle"] - ref) <= ORACLE_RTOL * abs(ref):
            out.append(f"{label}: oracle {row['oracle']} differs from reference {ref!r}")
        ratio = row["variance_ratio"]
        if ratio is None or not (math.isfinite(ratio) and ratio > 0.0):
            out.append(f"{label}: variance_ratio {ratio} is not finite and > 0")
        se = math.sqrt(max(row["variance"], 0.0) / replications)
        out += _band_from_stats(row["mean_estimate"], se, k, ref, FD_COMPARE_ALLOWANCE, label)
    if len(rows) != 2 * d * d:
        out.append(f"compare-fd table has {len(rows)} rows, expected {2 * d * d}")
    return out


def parse_records_csv(text):
    """Rows of a run-record CSV (written with --timings) as dicts."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def records_to_info(rows, dim):
    """Information matrices per run_id, in run_id order; error rows raise."""
    runs = {}
    for row in rows:
        if row["error"]:
            raise ValueError(f"{row['run_id']} is error-tagged: {row['error']}")
        mat = runs.setdefault(row["run_id"], np.full((dim, dim), np.nan))
        mat[int(row["comp_i"]) - 1, int(row["comp_j"]) - 1] = float(row["estimate"])
    return [runs[key] for key in sorted(runs)]


def check_general(is_infos, quad_infos, target_info):
    """Information matrices from is-oim replicates and quad-oim runs against
    the conjugate closed form."""
    out = []
    target_info = np.asarray(target_info)
    for r, info in enumerate(list(is_infos) + list(quad_infos)):
        out += _symmetric_finite(info, f"estimate {r}")
    for r, info in enumerate(quad_infos):
        dev = np.max(np.abs(np.asarray(info) - target_info))
        if not dev <= QUAD_ATOL:
            out.append(f"quad-oim run {r}: max deviation {dev:.3g} from closed form > {QUAD_ATOL:g}")
    out += _band(is_infos, target_info, 0.0, "is-oim info")
    return out

