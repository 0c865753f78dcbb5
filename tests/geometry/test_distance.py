"""Tests for the Definition 1 distance functions.

``DLL`` lives with the filter's reference (:mod:`tests.filter_reference`):
the filter's join inlines it, and no other code measures it.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.distance import (
    point_segment_distance,
    point_segment_projection,
)
from tests.filter_reference import segment_distance

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
points = st.tuples(coord, coord)


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
        assert d <= math.dist(p, a) + 1e-9
        assert d <= math.dist(p, b) + 1e-9

    @given(points, points, points)
    def test_projection_lies_on_segment_bbox(self, p, a, b):
        q = point_segment_projection(p, a, b)
        assert min(a[0], b[0]) - 1e-6 <= q[0] <= max(a[0], b[0]) + 1e-6
        assert min(a[1], b[1]) - 1e-6 <= q[1] <= max(a[1], b[1]) + 1e-6

    @given(points, points, points)
    def test_matches_brute_force_sampling(self, p, a, b):
        d = point_segment_distance(p, a, b)
        best = min(
            math.dist(
                p, (a[0] + (b[0] - a[0]) * i / 50, a[1] + (b[1] - a[1]) * i / 50)
            )
            for i in range(51)
        )
        # Sampling 51 points can only over-estimate the true minimum.
        assert d <= best + 1e-6


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
                assert d_ll <= math.dist(p, q) + 1e-9

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
            math.dist(p, q) for p in samples_1 for q in samples_2
        )
        assert d_ll <= best + 1e-6
