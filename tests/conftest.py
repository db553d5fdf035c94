"""Test settings shared by every module."""

from hypothesis import settings

# property tests build schedules and decode mock models, whose run time varies with the
# drawn sizes, so no per-example deadline applies
settings.register_profile("pipedec", deadline=None)
settings.load_profile("pipedec")
