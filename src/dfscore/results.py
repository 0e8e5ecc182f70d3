"""Result containers shared by the general and state-space estimators."""

from __future__ import annotations

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

