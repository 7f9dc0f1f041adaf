"""Hypothesis settings for the suite.

The loaded profile runs every phase but ``explain``, which replays a
shrunk failure to locate the lines it ran and can take minutes before the
failure is reported. Tests with their own ``settings(...)`` decorator keep
this default for anything they do not set.
"""

from hypothesis import Phase, settings

settings.register_profile("report-fast", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("report-fast")
