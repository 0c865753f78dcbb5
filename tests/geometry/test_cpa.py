"""Tests for Closest-Point-of-Approach machinery (CuTS*, Section 6.2).

The readable ``D*`` lives with the filter's reference
(:mod:`tests.filter_reference`); the filter's join inlines it.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.filter_reference import (
    cpa_distance,
    cpa_time,
    segment_distance,
    segment_location_at,
)

coord = st.floats(min_value=-500, max_value=500, allow_nan=False)
points = st.tuples(coord, coord)


class TestSegmentLocation:
    def test_endpoints(self):
        assert segment_location_at((0, 0), (10, 0), 0, 10, 0) == (0, 0)
        assert segment_location_at((0, 0), (10, 0), 0, 10, 10) == (10, 0)

    def test_time_ratio_midpoint(self):
        assert segment_location_at((0, 0), (10, 20), 0, 10, 5) == (5, 10)

    def test_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            segment_location_at((0, 0), (10, 0), 0, 10, 11)

    def test_zero_duration_segment(self):
        assert segment_location_at((3, 4), (3, 4), 5, 5, 5) == (3, 4)


class TestCpaTime:
    def test_head_on_crossing(self):
        # Two objects walking toward each other on the x axis meet at t=5.
        t = cpa_time((0, 0), (10, 0), 0, 10, (10, 0), (0, 0), 0, 10)
        assert t == pytest.approx(5.0)

    def test_parallel_motion_returns_interval_start(self):
        t = cpa_time((0, 0), (10, 0), 0, 10, (0, 3), (10, 3), 0, 10)
        assert t == 0

    def test_clamped_to_common_interval(self):
        # The unconstrained CPA would be at t=10, but the second segment
        # only exists until t=6.
        t = cpa_time((0, 0), (10, 0), 0, 10, (10, 5), (4, 5), 0, 6)
        assert 0 <= t <= 6

    def test_disjoint_intervals_rejected(self):
        with pytest.raises(ValueError):
            cpa_time((0, 0), (1, 0), 0, 2, (0, 0), (1, 0), 5, 6)


class TestCpaDistance:
    def test_crossing_objects_reach_zero(self):
        d = cpa_distance((0, 0), (10, 0), 0, 10, (10, 0), (0, 0), 0, 10)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_time_is_infinite(self):
        assert cpa_distance(
            (0, 0), (1, 0), 0, 2, (0, 0), (1, 0), 5, 6
        ) == math.inf

    def test_figure11_tightening(self):
        # Figure 11: two segments whose *spatial* footprints come close but
        # whose objects pass through the closest region at different times.
        # D* must exceed DLL.
        l1 = ((0, 0), (10, 0), 0, 10)
        l2 = ((30, 3), (20, 3), 8, 18)  # nearest approach happens too late
        d_star = cpa_distance(*l1, *l2)
        d_ll = segment_distance(l1[0], l1[1], l2[0], l2[1])
        assert d_star > d_ll

    @given(points, points, points, points)
    def test_dstar_upper_bounds_dll(self, a, b, c, d):
        """D* >= DLL always (the whole point of Section 6.2)."""
        d_star = cpa_distance(a, b, 0, 10, c, d, 0, 10)
        d_ll = segment_distance(a, b, c, d)
        assert d_star >= d_ll - 1e-6

    @given(points, points, points, points,
           st.integers(min_value=0, max_value=10))
    def test_dstar_lower_bounds_synchronous_distance(self, a, b, c, d, t):
        """D* <= D(l1(t), l2(t)) for every shared t (it is the minimum)."""
        d_star = cpa_distance(a, b, 0, 10, c, d, 0, 10)
        loc1 = segment_location_at(a, b, 0, 10, t)
        loc2 = segment_location_at(c, d, 0, 10, t)
        assert d_star <= math.dist(loc1, loc2) + 1e-6

    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        d1 = cpa_distance(a, b, 0, 7, c, d, 2, 9)
        d2 = cpa_distance(c, d, 2, 9, a, b, 0, 7)
        assert math.isclose(d1, d2, rel_tol=1e-9, abs_tol=1e-9)

    def test_stationary_objects(self):
        d = cpa_distance((0, 0), (0, 0), 0, 5, (3, 4), (3, 4), 0, 5)
        assert d == pytest.approx(5.0)
