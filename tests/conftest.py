"""Hypothesis settings shared by the test suite.

Examples run without a per-example deadline, because a loaded machine is
not a failure.  A failing example prints its ``@reproduce_failure`` blob,
so a log is enough to replay it.
"""

from hypothesis import settings

settings.register_profile("dfscore", deadline=None, print_blob=True)
settings.load_profile("dfscore")
