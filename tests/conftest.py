import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from ssk.geometry import DirectionGrid, PairSelection, circular_array, normalize_azimuth
from ssk.room_sim import (MAX_ATTEMPTS, MIN_SOURCE_DISTANCE, ROOM_DIM_HI, ROOM_DIM_LO,
                          T60_RANGE, WALL_MARGIN, RoomConfig, SceneGenerationError,
                          render_mixture)
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
    on, collected in source order; every source at 0 dB by default."""
    images = []

    def collect(c, image):
        assert c == len(images)
        images.append(image)

    gains = [0.0] * len(dry) if mixing_gains_db is None else mixing_gains_db
    mixture = render_mixture(dry, room, array, gains, on_image=collect)
    return Scene(mixture, tuple(images))


def pinned_scene(rng, azimuths, sample_rate, array_radius):
    """A scene as :func:`~ssk.room_sim.sample_scene` draws it (room, T60,
    array center), but with source c on the ray at ``azimuths[c]`` from the
    array center, at a distance drawn between ``MIN_SOURCE_DISTANCE`` and
    the wall margin. Returns the room and the exact source azimuths."""
    for _ in range(MAX_ATTEMPTS):
        dims = rng.uniform(ROOM_DIM_LO, ROOM_DIM_HI)
        t60 = float(rng.uniform(*T60_RANGE))
        lo = np.array([WALL_MARGIN, WALL_MARGIN])
        hi = dims[:2] - WALL_MARGIN
        center_lo = lo + array_radius
        center_hi = hi - array_radius
        if np.any(center_lo >= center_hi):
            continue
        plane_z = float(rng.uniform(WALL_MARGIN, dims[2] - WALL_MARGIN))
        center_xy = rng.uniform(center_lo, center_hi)
        center = np.array([center_xy[0], center_xy[1], plane_z])

        positions = []
        for azimuth in azimuths:
            rad = np.deg2rad(normalize_azimuth(float(azimuth)))
            direction = np.array([np.cos(rad), np.sin(rad)])
            r_max = _ray_box_range(center_xy, direction, lo, hi)
            if r_max <= MIN_SOURCE_DISTANCE:
                break
            r = float(rng.uniform(MIN_SOURCE_DISTANCE, r_max))
            xy = center_xy + r * direction
            positions.append(np.array([xy[0], xy[1], plane_z]))
        if len(positions) < len(azimuths):
            continue
        room = RoomConfig(dimensions=dims, t60=t60, array_center=center,
                          source_positions=np.stack(positions), sample_rate=sample_rate)
        return room, [float(a) for a in room.source_azimuths()]
    raise SceneGenerationError(
        f"could not satisfy scene constraints after {MAX_ATTEMPTS} attempts")


def _ray_box_range(center, direction, lo, hi) -> float:
    """Largest distance from ``center`` along unit ``direction`` staying in [lo, hi] (xy)."""
    t_max = np.inf
    for ax in range(2):
        if abs(direction[ax]) < 1e-12:
            continue
        for bound in (lo[ax], hi[ax]):
            t = (bound - center[ax]) / direction[ax]
            if t > 0:
                t_max = min(t_max, t)
    return float(t_max)


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
