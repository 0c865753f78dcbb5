"""Tests for the Definition 1 distance functions.

``DLL`` lives with the filter's reference (:mod:`tests.filter_reference`):
the filter's join inlines it, and no other code measures it.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.distance import (
    point_distance,
    point_line_distance,
    point_segment_distance,
    point_segment_projection,
    squared_point_distance,
)
from tests.filter_reference import segment_distance

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
points = st.tuples(coord, coord)


class TestPointDistance:
    def test_classic_triangle(self):
        assert point_distance((0, 0), (3, 4)) == 5.0

    def test_zero_for_same_point(self):
        assert point_distance((2.5, -1), (2.5, -1)) == 0.0

    @given(points, points)
    def test_symmetry(self, p, q):
        assert point_distance(p, q) == point_distance(q, p)

    @given(points, points)
    def test_squared_matches(self, p, q):
        assert math.isclose(
            squared_point_distance(p, q), point_distance(p, q) ** 2,
            rel_tol=1e-9, abs_tol=1e-9,
        )

    @given(points, points, points)
    def test_triangle_inequality(self, p, q, r):
        assert point_distance(p, r) <= (
            point_distance(p, q) + point_distance(q, r) + 1e-6
        )


class TestPointSegmentDistance:
    def test_projection_inside(self):
        # Point above the middle of a horizontal segment.
        assert point_segment_distance((5, 3), (0, 0), (10, 0)) == 3.0

    def test_projection_clamped_to_endpoint(self):
        # Point beyond the right end: distance is to the endpoint.
        assert point_segment_distance((13, 4), (0, 0), (10, 0)) == 5.0

    def test_point_on_segment(self):
        assert point_segment_distance((5, 0), (0, 0), (10, 0)) == 0.0

    def test_degenerate_segment(self):
        assert point_segment_distance((3, 4), (0, 0), (0, 0)) == 5.0

    @given(points, points, points)
    def test_never_exceeds_endpoint_distances(self, p, a, b):
        d = point_segment_distance(p, a, b)
        assert d <= point_distance(p, a) + 1e-9
        assert d <= point_distance(p, b) + 1e-9

    @given(points, points, points)
    def test_projection_lies_on_segment_bbox(self, p, a, b):
        q = point_segment_projection(p, a, b)
        assert min(a[0], b[0]) - 1e-6 <= q[0] <= max(a[0], b[0]) + 1e-6
        assert min(a[1], b[1]) - 1e-6 <= q[1] <= max(a[1], b[1]) + 1e-6

    @given(points, points, points)
    def test_matches_brute_force_sampling(self, p, a, b):
        d = point_segment_distance(p, a, b)
        best = min(
            point_distance(
                p, (a[0] + (b[0] - a[0]) * i / 50, a[1] + (b[1] - a[1]) * i / 50)
            )
            for i in range(51)
        )
        # Sampling 51 points can only over-estimate the true minimum.
        assert d <= best + 1e-6


class TestPointLineDistance:
    def test_perpendicular_vs_segment_distance(self):
        # Projection falls outside the chord: line distance is smaller.
        p, a, b = (13.0, 4.0), (0.0, 0.0), (10.0, 0.0)
        assert point_line_distance(p, a, b) == pytest.approx(4.0)
        assert point_segment_distance(p, a, b) == pytest.approx(5.0)

    def test_degenerate_line(self):
        assert point_line_distance((3, 4), (1, 1), (1, 1)) == pytest.approx(
            point_distance((3, 4), (1, 1))
        )

    @given(points, points, points)
    def test_line_distance_lower_bounds_segment_distance(self, p, a, b):
        assert (
            point_line_distance(p, a, b)
            <= point_segment_distance(p, a, b) + 1e-6
        )


class TestSegmentDistance:
    def test_crossing_segments(self):
        assert segment_distance((0, -1), (0, 1), (-1, 0), (1, 0)) == 0.0

    def test_touching_at_endpoint(self):
        assert segment_distance((0, 0), (1, 0), (1, 0), (2, 5)) == 0.0

    def test_parallel_segments(self):
        assert segment_distance((0, 0), (10, 0), (0, 3), (10, 3)) == 3.0

    def test_collinear_disjoint(self):
        assert segment_distance((0, 0), (1, 0), (3, 0), (5, 0)) == 2.0

    def test_degenerate_both_points(self):
        assert segment_distance((0, 0), (0, 0), (3, 4), (3, 4)) == 5.0

    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        assert math.isclose(
            segment_distance(a, b, c, d),
            segment_distance(c, d, a, b),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @given(points, points, points, points)
    def test_lower_bounds_all_point_pairs(self, a, b, c, d):
        d_ll = segment_distance(a, b, c, d)
        for p in (a, b):
            for q in (c, d):
                assert d_ll <= point_distance(p, q) + 1e-9

    @given(points, points, points, points)
    def test_matches_brute_force_sampling(self, a, b, c, d):
        d_ll = segment_distance(a, b, c, d)
        samples_1 = [
            (a[0] + (b[0] - a[0]) * i / 20, a[1] + (b[1] - a[1]) * i / 20)
            for i in range(21)
        ]
        samples_2 = [
            (c[0] + (d[0] - c[0]) * i / 20, c[1] + (d[1] - c[1]) * i / 20)
            for i in range(21)
        ]
        best = min(
            point_distance(p, q) for p in samples_1 for q in samples_2
        )
        assert d_ll <= best + 1e-6
