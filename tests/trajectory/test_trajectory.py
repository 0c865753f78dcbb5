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


class TestSlicing:
    def test_plain_slice(self):
        tr = make_trajectory([(i, i, i) for i in range(10)])
        piece = tr.sliced(3, 6)
        assert piece.tau == (3, 6)
        assert len(piece) == 4

    def test_disjoint_window_returns_none(self):
        tr = make_trajectory([(i, i, i) for i in range(5)])
        assert tr.sliced(10, 20) is None

    def test_reversed_window_rejected(self):
        tr = make_trajectory([(i, i, i) for i in range(5)])
        with pytest.raises(ValueError):
            tr.sliced(4, 2)

    def test_slice_synthesizes_boundary_samples(self):
        # Samples at 0 and 10 only; slicing [3, 7] must keep the object
        # alive over the whole window via interpolated boundary points.
        tr = make_trajectory([(0, 0, 0), (10, 0, 10)])
        piece = tr.sliced(3, 7)
        assert piece.tau == (3, 7)
        assert piece.location_at(3) == pytest.approx((3.0, 0.0))
        assert piece.location_at(7) == pytest.approx((7.0, 0.0))

    def test_slice_clamps_to_tau(self):
        tr = make_trajectory([(i, 0, i) for i in range(4, 9)])
        piece = tr.sliced(0, 100)
        assert piece.tau == (4, 8)

    @pytest.mark.parametrize("window", [(2.5, 6), (2, 6.5)])
    def test_fractional_synthesized_edge_rejected(self, window):
        """The slice validates the boundary samples it synthesizes."""
        tr = make_trajectory([(i, i, i) for i in range(10)])
        with pytest.raises(ValueError, match="time point must be an integer"):
            tr.sliced(*window)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(-3, 40),
        st.integers(0, 20),
    )
    def test_slice_equals_revalidated_construction(self, rows, t_lo, width):
        """The slice built from the parent's arrays holds exactly the
        samples a fresh, fully validated Trajectory of the same window
        points holds."""
        t = 0
        samples = []
        for x, y, gap in rows:
            t += gap
            samples.append((x, y, t))
        tr = make_trajectory(samples)
        t_hi = t_lo + width
        piece = tr.sliced(t_lo, t_hi)
        lo_t, hi_t = max(t_lo, tr.start_time), min(t_hi, tr.end_time)
        if lo_t > hi_t:
            assert piece is None
            return
        points = [p for p in tr if lo_t <= p.t <= hi_t]
        if not points or points[0].t != lo_t:
            points.insert(0, tr.point_at(lo_t))
        if points[-1].t != hi_t:
            points.append(tr.point_at(hi_t))
        want = Trajectory("o", points)
        assert piece.coordinates() == want.coordinates()
        assert piece.object_id == "o"

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    )
    def test_slice_preserves_location_semantics(self, a, b):
        """o_sliced(t) == o(t) for every t the slice covers."""
        t_lo, t_hi = min(a, b), max(a, b)
        tr = make_trajectory(
            [(0, 0, 0), (7, 3, 5), (1, 9, 11), (4, 4, 16), (8, 0, 20)]
        )
        piece = tr.sliced(t_lo, t_hi)
        if piece is None:
            return
        for t in range(piece.start_time, piece.end_time + 1):
            expected = tr.location_at(t)
            got = piece.location_at(t)
            assert got[0] == pytest.approx(expected[0], abs=1e-9)
            assert got[1] == pytest.approx(expected[1], abs=1e-9)


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
