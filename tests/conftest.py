"""Suite-wide test settings: Hypothesis runs one fixed, derandomized profile.

Every ``@given`` test draws the same examples on every run and keeps no
example database, so the suite is deterministic.  A test's own
``@settings`` still sets the fields it names (``deadline``,
``max_examples``).  Hypothesis also caches the constants it reads from the
source files; that cache lives in a temporary directory removed when the
run ends, so a run writes no ``.hypothesis/`` directory into the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)
