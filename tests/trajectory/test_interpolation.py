"""Tests for virtual-point interpolation (Section 4 semantics)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trajectory.interpolation import interpolate_position


class TestInterpolatePosition:
    def test_exact_sample(self):
        assert interpolate_position([0, 10], [0, 10], [0, 20], 10) == (10, 20)

    def test_midpoint(self):
        assert interpolate_position([0, 10], [0, 10], [0, 20], 5) == (5.0, 10.0)

    def test_irregular_gaps(self):
        times = [0, 1, 7]
        xs = [0, 1, 7]
        ys = [0, 0, 0]
        assert interpolate_position(times, xs, ys, 4) == (4.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interpolate_position([], [], [], 0)

    def test_no_extrapolation(self):
        with pytest.raises(ValueError):
            interpolate_position([2, 5], [0, 0], [0, 0], 1)
        with pytest.raises(ValueError):
            interpolate_position([2, 5], [0, 0], [0, 0], 6)

    @given(st.integers(min_value=0, max_value=100))
    def test_always_inside_segment_hull(self, t):
        times = [0, 30, 100]
        xs = [0.0, 60.0, 10.0]
        ys = [5.0, -5.0, 0.0]
        x, y = interpolate_position(times, xs, ys, t)
        assert min(xs) - 1e-9 <= x <= max(xs) + 1e-9
        assert min(ys) - 1e-9 <= y <= max(ys) + 1e-9
