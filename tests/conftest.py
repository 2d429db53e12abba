import os

from hypothesis import settings

# CI draws the same examples on every run; local runs keep exploring.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_configure(config):
    # CI draws fresh examples for these outside the derandomized profile
    config.addinivalue_line(
        "markers", "bitwise: a bit-for-bit comparison with a reference spelling over drawn examples"
    )
