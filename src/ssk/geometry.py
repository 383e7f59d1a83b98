"""Microphone-array geometry: TDOAs and azimuth arithmetic.

The one statement of scene geometry: a far-field plane wave travelling in
the horizontal plane of the array at :data:`SOUND_SPEED`, the only speed of
sound, which the room simulation uses too. Azimuths are plain floats, degrees
counter-clockwise from the +x axis, folded into [0, 360) where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

SOUND_SPEED = 343.0


def normalize_azimuth(deg: float) -> float:
    """Fold an azimuth into [0, 360)."""
    return float(np.mod(deg, 360.0))


@dataclass(frozen=True, eq=False)
class MicArray:
    """J microphone positions in meters; delays are relative to ``ref_index``."""

    positions: np.ndarray
    ref_index: int = 0

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (J, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("need at least one microphone")
        if not np.all(np.isfinite(pos)):
            raise ValueError("microphone positions must be finite")
        if not 0 <= self.ref_index < pos.shape[0]:
            raise ValueError(f"ref_index {self.ref_index} out of range for J={pos.shape[0]}")
        if pos.shape[0] > 1:
            dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 0.0:
                raise ValueError("microphone positions must be pairwise distinct")
        object.__setattr__(self, "positions", pos)

    @property
    def num_mics(self) -> int:
        return int(self.positions.shape[0])


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Fixed grid of look directions (degrees, strictly ascending in [0, 360))."""

    azimuths: np.ndarray

    def __post_init__(self) -> None:
        az = np.asarray(self.azimuths, dtype=float).ravel()
        if az.size < 2:
            raise ValueError("grid needs at least two directions")
        if np.any(az < 0.0) or np.any(az >= 360.0):
            raise ValueError("grid azimuths must lie in [0, 360)")
        if np.any(np.diff(az) <= 0.0):
            raise ValueError("grid azimuths must be strictly ascending")
        object.__setattr__(self, "azimuths", az)

    @classmethod
    def uniform(cls, step_deg: float) -> "DirectionGrid":
        if not 0.0 < step_deg <= 180.0:
            raise ValueError("step must be in (0, 180]")
        return cls(np.arange(0.0, 360.0, step_deg))

    @property
    def num_directions(self) -> int:
        return int(self.azimuths.size)


@dataclass(frozen=True)
class PairSelection:
    """Ordered microphone pairs (0-based channel indices) used for IPDs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        for a, b in pairs:
            if a == b:
                raise ValueError(f"pair ({a}, {b}) uses the same channel twice")
            if a < 0 or b < 0:
                raise ValueError("pair indices must be non-negative")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def default_six(cls) -> "PairSelection":
        # Opposite and adjacent pairs of the 6-mic circle, 1-based
        # (1,4),(2,5),(3,6),(1,2),(3,4),(5,6) converted to 0-based.
        return cls(((0, 3), (1, 4), (2, 5), (0, 1), (2, 3), (4, 5)))

    def validate_for(self, num_mics: int) -> None:
        for a, b in self.pairs:
            if a >= num_mics or b >= num_mics:
                raise ValueError(f"pair ({a}, {b}) out of range for J={num_mics}")


def circular_array(num_mics: int, diameter: float) -> MicArray:
    """Uniform circular array in the horizontal plane, referenced to mic 0.

    Mic 0 sits at azimuth 0 degrees at radius ``diameter / 2``; the remaining
    mics follow counter-clockwise.
    """
    if num_mics < 1:
        raise ValueError("num_mics must be >= 1")
    if not diameter > 0.0:
        raise ValueError("diameter must be positive")
    angles = 2.0 * np.pi * np.arange(num_mics) / num_mics
    radius = diameter / 2.0
    pos = np.stack([radius * np.cos(angles),
                    radius * np.sin(angles),
                    np.zeros(num_mics)], axis=1)
    return MicArray(pos)


def tdoa(array: MicArray, azimuth_deg: float) -> np.ndarray:
    """Per-mic arrival delay in seconds relative to the reference mic.

    Plane-wave model: a mic farther from the source (smaller projection on
    the source bearing) receives the wavefront later and gets a positive
    delay. ``delay[ref] == 0`` always. The azimuth is folded into [0, 360)
    first, so az and az + 360 give bit-equal delays.
    """
    az = np.deg2rad(normalize_azimuth(azimuth_deg))
    toward = np.array([np.cos(az), np.sin(az), 0.0])
    rel = array.positions - array.positions[array.ref_index]
    return -(rel @ toward) / SOUND_SPEED


def angle_difference(phi1: float, phi2: float) -> float:
    """Minimal circular separation of two azimuths, in [0, 180] degrees."""
    d = abs(normalize_azimuth(phi1) - normalize_azimuth(phi2))
    return float(min(d, 360.0 - d))


def closest_source(azimuths: Sequence[float], target: int) -> tuple[int, float]:
    """Index of the azimuth closest to ``azimuths[target]`` among the others,
    and its angle difference; ties go to the lower index."""
    others = [(angle_difference(azimuths[target], az), c)
              for c, az in enumerate(azimuths) if c != target]
    if not others:
        raise ValueError("need at least one other azimuth")
    difference, index = min(others)
    return index, difference
