# keeps this directory on sys.path so tests can import the oracles module
from pathlib import Path

from hypothesis import settings

import polarnet

# One profile for every property test: no per-example deadline, since a
# shared machine's speed drifts by tens of percent, and a fixed seed per
# test, so that each run tries the same examples.
settings.register_profile("polarnet", deadline=None, derandomize=True)
settings.load_profile("polarnet")


def pytest_report_header(config):
    # pytest's pythonpath setting puts this checkout's src ahead of
    # PYTHONPATH, so a run meant for another checkout shows it here
    return f"polarnet: {Path(polarnet.__file__).parent}"
