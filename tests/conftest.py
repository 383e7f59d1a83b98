import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from ssk.geometry import DirectionGrid, PairSelection, circular_array
from ssk.room_sim import render_mixture
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
    """The :class:`SpatialAnalysis` of a whole (J, T, F) spectrogram, whose
    blocks are its slices; ``args`` follow the config in its signature."""
    return SpatialAnalysis(lambda a, b: spec.data[:, a:b], spec.num_frames, spec.config, *args)


class Scene(NamedTuple):
    mixture: np.ndarray          # (J, n)
    images: tuple                # per source, (J, n)


def render_scene(dry, room, array, mixing_gains_db=None) -> Scene:
    """The mixture :func:`render_mixture` returns and the images it hands
    on, collected in source order."""
    images = []

    def collect(c, image):
        assert c == len(images)
        images.append(image)

    mixture = render_mixture(dry, room, array, mixing_gains_db, on_image=collect)
    return Scene(mixture, tuple(images))


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
