"""Axis-aligned bounding boxes.

A :class:`BoundingBox` is the spatial extent of a trajectory or of a
stored convoy (:mod:`repro.store`), and the region of a ``query --box``.
The CuTS filter's segment boxes and their ``Dmin`` gap test (Lemma 2)
are plain floats inlined in :mod:`repro.clustering.spatial_join`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "degenerate bounding box: "
                f"({self.min_x}, {self.min_y}) .. ({self.max_x}, {self.max_y})"
            )

    @property
    def width(self):
        """Extent along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self):
        """Extent along the y axis."""
        return self.max_y - self.min_y
