"""Suite-wide settings.

Hypothesis runs derandomized, so every property test draws the same
examples on every run, like the rest of the suite, and without a per-example
deadline, since wall time on a shared machine can swing by 2x.
"""

from hypothesis import settings

settings.register_profile("memnas", deadline=None, derandomize=True)
settings.load_profile("memnas")
