import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cyber0.data import MNIST_FILES, _mnist_files

# property tests draw the same examples on every run and keep no example
# database on disk, so a tier-1 run is as reproducible as the simulator
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches literals scraped from local source files under its
    # home directory even without an example database; a home that lives
    # only as long as the session keeps a test run from writing into the
    # checkout
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="cyber0-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    home = config.stash.get(_HYPOTHESIS_HOME, None)
    if home is not None:
        shutil.rmtree(home, ignore_errors=True)


PROFILE_DIR = Path(__file__).resolve().parent.parent / "profiles"

_MNIST_SKIP = (
    "MNIST IDX files not found (set CYBER0_MNIST_DIR or run "
    "scripts/fetch_mnist.py on a machine with network access)"
)


def mnist_available(mnist_dir: str) -> bool:
    return all(p.exists() for split in MNIST_FILES for p in _mnist_files(mnist_dir, split))


def pytest_collection_modifyitems(config, items):
    if mnist_available(""):  # $CYBER0_MNIST_DIR, else data/mnist
        return
    skip = pytest.mark.skip(reason=_MNIST_SKIP)
    for item in items:
        if "mnist" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def profile_dir() -> Path:
    return PROFILE_DIR
