"""Tests for bounding boxes."""

import pytest

from repro.geometry.bbox import BoundingBox


class TestBoundingBox:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(5, 0, 0, 5)

    def test_width_height(self):
        box = BoundingBox(1, 2, 4, 7)
        assert box.width == 3
        assert box.height == 5
