"""Tests for the Trajectory polyline."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trajectory.point import TrajectoryPoint
from repro.trajectory.trajectory import Trajectory


def make_trajectory(samples, object_id="o"):
    return Trajectory(object_id, [TrajectoryPoint(x, y, t) for x, y, t in samples])


class TestConstruction:
    def test_sorts_by_time(self):
        tr = make_trajectory([(2, 2, 2), (0, 0, 0), (1, 1, 1)])
        assert [p.t for p in tr] == [0, 1, 2]

    def test_accepts_plain_tuples(self):
        tr = Trajectory("o", [(0, 0, 0), (1, 1, 1)])
        assert len(tr) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory("o", [])

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError):
            make_trajectory([(0, 0, 0), (1, 1, 0)])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Trajectory("o", [(float("nan"), 0, 0)])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match=r"^non-finite coordinates"):
            Trajectory("o", [(0.0, float("inf"), 0)])

    def test_rejects_float_time(self):
        with pytest.raises(ValueError, match="must be an integer, got 1.5"):
            Trajectory("o", [(0.0, 0.0, 1.5)])

    def test_single_point_trajectory(self):
        tr = make_trajectory([(5, 5, 3)])
        assert tr.tau == (3, 3)
        assert tr.duration == 0


class TestSampleTypes:
    """A tick is an int and never a bool; a coordinate is an int or a
    float, never a bool or a string, and is stored as a float."""

    @pytest.mark.parametrize("sample, value", [
        ((0.0, 0.0, True), "True"),
        ((0.0, 0.0, False), "False"),
        ((True, 0.0, 0), "True"),
        ((0.0, False, 0), "False"),
        (("1.5", 0.0, 0), "'1.5'"),
        ((0.0, "abc", 0), "'abc'"),
        ((None, 0.0, 0), "None"),
        (TrajectoryPoint("1.5", 0.0, 0), "'1.5'"),
        (TrajectoryPoint(0.0, 0.0, True), "True"),
    ], ids=["tick-true", "tick-false", "x-bool", "y-bool", "x-str", "y-str",
            "x-none", "point-x-str", "point-tick-bool"])
    def test_refused_naming_object_and_value(self, sample, value):
        with pytest.raises(ValueError, match=rf"'a'.*{re.escape(value)}"):
            Trajectory("a", [(1.0, 0.0, 2), sample])

    def test_int_coordinates_are_stored_as_floats(self):
        tr = make_trajectory([(1, -2, 0), (3, 4.5, 1)])
        _times, xs, ys = tr.coordinates()
        assert [type(v) for v in xs + ys] == [float] * 4
        assert (xs, ys) == ([1.0, 3.0], [-2.0, 4.5])

    def test_first_bad_sample_decides(self):
        with pytest.raises(ValueError, match=r"^non-finite coordinates"):
            Trajectory("a", [(float("nan"), 0.0, 0), (0.0, 0.0, 2.5)])
        with pytest.raises(ValueError, match=r"^time point must be an integer"):
            Trajectory("a", [(0.0, 0.0, 2.5), (float("nan"), 0.0, 0)])


class TestCoordinatesPastTheFloatRange:
    """An int coordinate no float can hold is refused with a
    ``ValueError`` naming the trajectory and the coordinate, not an
    ``OverflowError`` from the finiteness check."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("build", ["constructor", "from_columns"])
    def test_refused_naming_trajectory_and_coordinate(self, build, axis,
                                                      sign):
        huge = sign * 10**400
        xs, ys = [1.0, 2.0], [3.0, 4.0]
        (xs if axis == "x" else ys)[1] = huge
        match = rf"^trajectory 'a': {axis} coordinate at t=7 is an int too large"
        with pytest.raises(ValueError, match=match):
            if build == "constructor":
                Trajectory("a", list(zip(xs, ys, [6, 7])))
            else:
                Trajectory.from_columns("a", [6, 7], xs, ys)

    def test_first_bad_sample_decides(self):
        with pytest.raises(ValueError, match=r"^non-finite coordinates"):
            Trajectory("a", [(float("nan"), 0.0, 0), (10**400, 0.0, 1)])
        with pytest.raises(ValueError, match=r"y coordinate at t=1 is an int"):
            Trajectory("a", [(0.0, 10**400, 1), (float("nan"), 0.0, 0)])


class TestFromColumns:
    def test_same_storage_as_the_constructor(self):
        samples = [(2.5, -1.0, 7), (0.0, 3.0, -2), (1.0, 1.0, 4)]
        built = Trajectory.from_columns(
            "o", [t for _, _, t in samples], [x for x, _, _ in samples],
            [y for _, y, _ in samples],
        )
        assert built.coordinates() == Trajectory("o", samples).coordinates()
        assert built.coordinates() == ([-2, 4, 7], [0.0, 1.0, 2.5],
                                       [3.0, 1.0, -1.0])

    def test_sorted_float_columns_become_the_storage(self):
        times, xs, ys = [0, 1, 5], [0.0, 1.0, 2.0], [3.0, 4.0, 5.0]
        built = Trajectory.from_columns("o", times, xs, ys)
        stored = built.coordinates()
        assert all(a is b for a, b in zip(stored, (times, xs, ys)))

    @pytest.mark.parametrize("times, xs, ys, match", [
        ([0, True], [0.0, 1.0], [0.0, 1.0], r"'o'.*True"),
        ([0, 1], [0.0, "1"], [0.0, 1.0], r"'o'.*'1'"),
        ([0, 0], [0.0, 1.0], [0.0, 1.0], r"duplicate samples at t=0"),
        ([0, 1], [0.0], [0.0, 1.0], r"'o' has columns of unequal length"),
        ([], [], [], r"'o' has no points"),
    ], ids=["bool-tick", "str-coordinate", "duplicate", "unequal", "empty"])
    def test_refuses_what_the_constructor_refuses(self, times, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            Trajectory.from_columns("o", times, xs, ys)


class TestTemporalExtent:
    def test_tau(self):
        tr = make_trajectory([(0, 0, 2), (1, 1, 9)])
        assert tr.tau == (2, 9)
        assert tr.start_time == 2
        assert tr.end_time == 9
        assert tr.duration == 7


class TestLocationLookup:
    def test_exact_sample(self):
        tr = make_trajectory([(0, 0, 0), (10, 20, 10)])
        assert tr.location_at(0) == (0, 0)
        assert tr.location_at(10) == (10, 20)

    def test_interpolated_virtual_point(self):
        tr = make_trajectory([(0, 0, 0), (10, 20, 10)])
        assert tr.location_at(5) == (5.0, 10.0)

    def test_outside_tau_raises(self):
        tr = make_trajectory([(0, 0, 0), (10, 20, 10)])
        with pytest.raises(ValueError):
            tr.location_at(11)
        with pytest.raises(ValueError):
            tr.location_at(-1)

    @given(st.integers(min_value=0, max_value=30))
    def test_interpolation_within_sample_hull(self, t):
        tr = make_trajectory([(0, 0, 0), (4, 8, 10), (2, -6, 20), (9, 1, 30)])
        x, y = tr.location_at(t)
        assert 0 - 1e-9 <= x <= 9 + 1e-9
        assert -6 - 1e-9 <= y <= 8 + 1e-9


class TestAccessors:
    def test_coordinates_parallel_arrays(self):
        tr = make_trajectory([(1, 2, 0), (3, 4, 1)])
        times, xs, ys = tr.coordinates()
        assert list(times) == [0, 1]
        assert list(xs) == [1, 3]
        assert list(ys) == [2, 4]

    def test_indexing(self):
        tr = make_trajectory([(1, 2, 0), (3, 4, 1)])
        assert tr[1] == TrajectoryPoint(3, 4, 1)
        assert tr[-1] == TrajectoryPoint(3, 4, 1)

    def test_repr_mentions_id_and_tau(self):
        tr = make_trajectory([(0, 0, 2), (1, 1, 5)], object_id="truck-7")
        assert "truck-7" in repr(tr)
        assert "[2, 5]" in repr(tr)
