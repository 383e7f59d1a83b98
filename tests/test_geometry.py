import ast
import tokenize
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import ssk

from ssk.geometry import (DirectionGrid, MicArray, PairSelection, angle_difference,
                          circular_array, closest_source, tdoa)

azimuths = st.floats(min_value=-720.0, max_value=720.0,
                     allow_nan=False, allow_infinity=False)


class TestCircularArray:
    def test_six_mic_seven_cm(self):
        arr = circular_array(6, 0.07)
        radii = np.linalg.norm(arr.positions[:, :2], axis=1)
        npt.assert_allclose(radii, 0.035)
        angles = np.degrees(np.arctan2(arr.positions[:, 1], arr.positions[:, 0]))
        npt.assert_allclose(np.diff(np.unwrap(np.radians(angles))), np.radians(60.0))

    def test_single_mic(self):
        arr = circular_array(1, 0.07)
        npt.assert_allclose(arr.positions, [[0.035, 0.0, 0.0]])

    def test_opposite_mics_span_diameter(self):
        arr = circular_array(6, 0.07)
        npt.assert_allclose(np.linalg.norm(arr.positions[0] - arr.positions[3]), 0.07)

    def test_ref_index_default_first(self):
        assert circular_array(6, 0.07).ref_index == 0

    @pytest.mark.parametrize("num, diam", [(0, 0.07), (6, 0.0), (6, -1.0)])
    def test_invalid_args(self, num, diam):
        with pytest.raises(ValueError):
            circular_array(num, diam)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            MicArray(np.zeros((2, 3)))

    def test_ref_index_out_of_range(self):
        with pytest.raises(ValueError):
            MicArray(np.array([[0.0, 0.0, 0.0]]), ref_index=1)


class TestTdoa:
    def test_source_facing_mic1_delay_to_mic4(self, array6):
        # Geometry oracle: mic 1 at (r,0,0), mic 4 at (-r,0,0); a wave from
        # azimuth 0 travels the extra 2r = 0.07 m to reach mic 4.
        delays = tdoa(array6, 0.0)
        npt.assert_allclose(delays[3], 0.07 / 343.0, rtol=1e-12)
        assert delays[0] == 0.0

    def test_broadside_pair_has_zero_difference(self, array6):
        # Azimuth 90 is broadside to the (1,4) axis; mics 0 and 3 are
        # symmetric about the propagation direction.
        delays = tdoa(array6, 90.0)
        npt.assert_allclose(delays[0] - delays[3], 0.0, atol=1e-18)

    def test_single_mic(self):
        arr = circular_array(1, 0.07)
        npt.assert_allclose(tdoa(arr, 123.0), [0.0])

    @given(azimuths, st.floats(-5, 5), st.floats(-5, 5))
    def test_translation_invariance(self, az, dx, dy):
        arr = circular_array(6, 0.07)
        moved = MicArray(arr.positions + np.array([dx, dy, 0.0]))
        npt.assert_allclose(tdoa(arr, az),
                            tdoa(moved, az), atol=1e-15)

    @given(azimuths)
    def test_opposite_direction_negates_pair_differences(self, az):
        arr = circular_array(6, 0.07)
        fwd = tdoa(arr, az)
        back = tdoa(arr, az + 180.0)
        for a, b in ((0, 3), (1, 4), (2, 5)):
            npt.assert_allclose(fwd[a] - fwd[b], -(back[a] - back[b]), atol=1e-15)


class TestAngleDifference:
    @pytest.mark.parametrize("a, b, expected", [
        (270.0, 90.0, 180.0),
        (350.0, 10.0, 20.0),
        (42.0, 42.0, 0.0),
    ])
    def test_examples(self, a, b, expected):
        assert angle_difference(a, b) == pytest.approx(expected)

    @given(azimuths, azimuths)
    def test_symmetric_and_bounded(self, a, b):
        d = angle_difference(a, b)
        assert 0.0 <= d <= 180.0
        assert d == pytest.approx(angle_difference(b, a))

    @given(azimuths)
    def test_zero_iff_equal_mod_360(self, a):
        assert angle_difference(a, a + 360.0) == pytest.approx(0.0, abs=1e-9)


class TestMinAngleDifference:
    """The closest-source rule: the other azimuth at the least angle
    difference, and that difference."""

    def test_basic(self):
        assert closest_source([0.0, 30.0, 200.0], 0) == (1, pytest.approx(30.0))

    def test_antipodal(self):
        assert closest_source([90.0, 270.0], 0) == (1, pytest.approx(180.0))

    def test_wraparound_wins(self):
        assert closest_source([10.0, 350.0, 80.0], 0) == (1, pytest.approx(20.0))

    def test_empty_others(self):
        with pytest.raises(ValueError):
            closest_source([0.0], 0)

    @pytest.mark.parametrize("azimuths, expected", [([0.0, 30.0, 330.0], 1),
                                                    ([0.0, 330.0, 30.0], 1)])
    def test_tie_goes_to_lower_index(self, azimuths, expected):
        assert closest_source(azimuths, 0) == (expected, 30.0)


class TestTypes:
    @given(st.integers(-720 * 16, 720 * 16).map(lambda k: k / 16.0))
    def test_source_direction_normalizes(self, az):
        # cos/sin of 370 and of 10 degrees differ in the last bit; tdoa folds
        # the azimuth first, so az and az +- 360 (exact for these sixteenths
        # of a degree) give bit-equal delays.
        arr = circular_array(6, 0.07)
        npt.assert_array_equal(tdoa(arr, 370.0), tdoa(arr, 10.0))
        npt.assert_array_equal(tdoa(arr, az), tdoa(arr, az + 360.0))
        npt.assert_array_equal(tdoa(arr, az), tdoa(arr, az - 360.0))

    def test_grid_default_36(self):
        grid = DirectionGrid.uniform(10.0)
        assert grid.num_directions == 36
        npt.assert_allclose(np.diff(grid.azimuths), 10.0)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            DirectionGrid(np.array([0.0, 0.0, 10.0]))

    def test_default_pairs_match_convention(self, pairs6):
        assert pairs6.pairs == ((0, 3), (1, 4), (2, 5), (0, 1), (2, 3), (4, 5))

    def test_pair_same_channel_rejected(self):
        with pytest.raises(ValueError):
            PairSelection(((1, 1),))


def test_one_speed_of_sound():
    # geometry.SOUND_SPEED is the only speed of sound in the package: no
    # module has a ``sound_speed`` name or another 343 literal.
    names, literals = [], []
    for path in sorted(Path(ssk.__file__).parent.glob("*.py")):
        with path.open() as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                where = f"{path.name}:{tok.start[0]}"
                if tok.type == tokenize.NAME and "sound_speed" in tok.string.lower() \
                        and tok.string != "SOUND_SPEED":
                    names.append(where)
                elif tok.type == tokenize.NUMBER and ast.literal_eval(tok.string) == 343:
                    literals.append((where, tok.line.strip()))
    assert names == []
    assert [line for _, line in literals] == ["SOUND_SPEED = 343.0"]
    assert literals[0][0].startswith("geometry.py:")
