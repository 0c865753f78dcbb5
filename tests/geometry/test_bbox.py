"""Tests for bounding boxes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox, box_of_points

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
points = st.tuples(coord, coord)


def boxes():
    return st.builds(
        lambda x1, y1, x2, y2: BoundingBox(
            min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)
        ),
        coord, coord, coord, coord,
    )


class TestBoundingBox:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(5, 0, 0, 5)

    def test_width_height(self):
        box = BoundingBox(1, 2, 4, 7)
        assert box.width == 3
        assert box.height == 5

    def test_contains_point(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains_point((5, 5))
        assert box.contains_point((0, 10))  # boundary is inside
        assert not box.contains_point((11, 5))

    def test_expanded(self):
        box = BoundingBox(0, 0, 2, 2).expanded(1.5)
        assert box.min_x == -1.5 and box.max_y == 3.5

    def test_expanded_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 2, 2).expanded(-0.1)

    def test_union(self):
        merged = BoundingBox(0, 0, 1, 1).union(BoundingBox(5, -3, 6, 0))
        assert merged == BoundingBox(0, -3, 6, 1)

    def test_intersects(self):
        a = BoundingBox(0, 0, 10, 10)
        assert a.intersects(BoundingBox(10, 10, 20, 20))  # corner touch
        assert not a.intersects(BoundingBox(11, 0, 20, 10))

    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        merged = a.union(b)
        assert merged.min_x <= min(a.min_x, b.min_x)
        assert merged.max_y >= max(a.max_y, b.max_y)


class TestBoxOfPoints:
    def test_single_point(self):
        box = box_of_points([(3, 4)])
        assert box == BoundingBox(3, 4, 3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_of_points([])

    @given(st.lists(points, min_size=1, max_size=20))
    def test_contains_every_point(self, pts):
        box = box_of_points(pts)
        for p in pts:
            assert box.contains_point(p)
