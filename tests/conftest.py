import numpy as np
import pytest

from ssk.geometry import DirectionGrid, PairSelection, circular_array
from ssk.spectral import StftConfig


@pytest.fixture(scope="session")
def array6():
    return circular_array(6, 0.07)


@pytest.fixture(scope="session")
def pairs6():
    return PairSelection.default_six()


@pytest.fixture(scope="session")
def grid36():
    return DirectionGrid.uniform(10.0)


@pytest.fixture(scope="session")
def cfg_default():
    return StftConfig.default()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
