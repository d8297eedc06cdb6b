import random

import pytest

from jacobiforms import make_bundle


@pytest.fixture(scope="session")
def bundle():
    """Shared truncation at the desk-scale default N=10."""
    return make_bundle(10)


@pytest.fixture()
def rng():
    return random.Random(20240)
