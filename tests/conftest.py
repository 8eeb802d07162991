import os

import pytest
from hypothesis import settings

from milnork.groundfield import FieldTower, FunctionField
from milnork.kmilnor import KContext

# CI runs the same examples every time; local runs keep exploring
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def tower7():
    return FieldTower(7, seed=0)


@pytest.fixture(scope="session")
def ff5(tower7):
    return FunctionField(tower7, 5)


@pytest.fixture(scope="session")
def ctx5(ff5):
    return KContext(ff5, 3)


@pytest.fixture(scope="session")
def ff2(tower7):
    return FunctionField(tower7, 2)


@pytest.fixture(scope="session")
def ctx2(ff2):
    return KContext(ff2, 3)
