"""Shared test settings: property tests replay the same examples on every
run and carry no per-example deadline, so a slow host cannot fail them."""

from hypothesis import settings

settings.register_profile("mergosim", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("mergosim")
