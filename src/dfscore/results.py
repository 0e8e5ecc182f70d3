"""Result containers shared by the general and state-space estimators, and
``_write_csv``, the one CSV writer (and so the one cell format) behind every
file dfscore writes."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["ScoreEstimate", "InfoEstimate"]


@dataclass(frozen=True)
class ScoreEstimate:
    """Estimated log-likelihood gradient; ``values`` is read-only."""

    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class InfoEstimate:
    """Estimated observed information matrix; symmetric, enforced exactly."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("information matrix must be square")
        if not np.array_equal(values, values.T):
            raise ValueError("information matrix must be exactly symmetric")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # the shortest round-trip repr; a bare repr of np.float64 prints
        # "np.float64(...)" under numpy 2
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    """Write ``header``, then each row: ``None`` is a blank cell, a float its
    shortest round-trip repr, anything else its ``str``; lines end in ``\\n``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
