import os

from hypothesis import settings

# CI draws the same examples on every run; local runs keep exploring.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
