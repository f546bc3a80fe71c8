"""Shared test settings.

Property tests draw their examples from a fixed seed, so a run of the
suite checks the same cases every time; each test keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
