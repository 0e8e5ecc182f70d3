"""Hypothesis settings and fixtures shared by the test suite.

Examples run without a per-example deadline, because a loaded machine is
not a failure.  A failing example prints its ``@reproduce_failure`` blob,
so a log is enough to replay it.
"""

import pytest
from hypothesis import settings

from dfscore import kernels

settings.register_profile("dfscore", deadline=None, print_blob=True)
settings.load_profile("dfscore")


@pytest.fixture
def normalized_weights(monkeypatch):
    """A list that receives a copy of every weight vector the filter
    normalises, through ``kernels.normalize_log_weights``."""
    seen = []
    normalize = kernels.normalize_log_weights

    def recording(logw):
        w, lse = normalize(logw)
        seen.append(w.copy())
        return w, lse

    monkeypatch.setattr(kernels, "normalize_log_weights", recording)
    return seen
