"""Tests for the Trajectory polyline."""

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

    def test_single_point_trajectory(self):
        tr = make_trajectory([(5, 5, 3)])
        assert tr.tau == (3, 3)
        assert tr.duration == 0


class TestTemporalExtent:
    def test_tau(self):
        tr = make_trajectory([(0, 0, 2), (1, 1, 9)])
        assert tr.tau == (2, 9)
        assert tr.start_time == 2
        assert tr.end_time == 9
        assert tr.duration == 7

    def test_is_alive_at(self):
        tr = make_trajectory([(0, 0, 2), (1, 1, 9)])
        assert tr.is_alive_at(2)
        assert tr.is_alive_at(5)  # between samples still alive
        assert tr.is_alive_at(9)
        assert not tr.is_alive_at(1)
        assert not tr.is_alive_at(10)

    def test_has_sample_at(self):
        tr = make_trajectory([(0, 0, 2), (1, 1, 5), (2, 2, 9)])
        assert tr.has_sample_at(5)
        assert not tr.has_sample_at(4)
        assert not tr.has_sample_at(99)


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

    def test_point_at_carries_time(self):
        tr = make_trajectory([(0, 0, 0), (10, 20, 10)])
        p = tr.point_at(5)
        assert p.t == 5 and p.xy == (5.0, 10.0)

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

    def test_bounding_box(self):
        tr = make_trajectory([(1, 2, 0), (3, -4, 1), (0, 0, 2)])
        box = tr.bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, -4, 3, 2)

    def test_repr_mentions_id_and_tau(self):
        tr = make_trajectory([(0, 0, 2), (1, 1, 5)], object_id="truck-7")
        assert "truck-7" in repr(tr)
        assert "[2, 5]" in repr(tr)
