import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches what it learns about the code under test in its home
    # directory (./.hypothesis by default); keep that out of the checkout.
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)
