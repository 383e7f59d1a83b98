import tracemalloc

import numpy as np
import pytest

from ssk.geometry import DirectionGrid, PairSelection, circular_array
from ssk.spatial_features import SpatialAnalysis

from oracles import PAPER_STFT


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
    return PAPER_STFT


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def whole_analysis(spec, *args):
    """The :class:`SpatialAnalysis` of a whole (J, T, F) spectrogram, handed
    over as one block; ``args`` follow the config in its signature."""
    return SpatialAnalysis([spec.data], spec.num_frames, spec.config, *args)


def traced_peak(fn):
    """``(fn(), peak)``: the result of ``fn()`` and the peak of the memory
    tracemalloc traced while it ran, in bytes (its result included)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
