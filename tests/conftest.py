import random

import pytest

from jacobiforms import make_bundle


@pytest.fixture(scope="session")
def bundle(request):
    """Shared truncation at the desk-scale default N=10, or at the N a test
    passes as an indirect parameter."""
    return make_bundle(getattr(request, "param", 10))


@pytest.fixture()
def rng():
    return random.Random(20240)
