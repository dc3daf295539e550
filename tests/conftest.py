# keeps this directory on sys.path so tests can import the oracles module
from hypothesis import settings

# One profile for every property test: no per-example deadline, since a
# shared machine's speed drifts by tens of percent, and a fixed seed per
# test, so that each run tries the same examples.
settings.register_profile("polarnet", deadline=None, derandomize=True)
settings.load_profile("polarnet")
