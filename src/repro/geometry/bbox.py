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

    def contains_point(self, p):
        """Return True if point ``p`` lies inside the closed box."""
        return self.min_x <= p[0] <= self.max_x and self.min_y <= p[1] <= self.max_y

    def expanded(self, margin):
        """Return a copy grown by ``margin`` on every side.

        This is the "new search space" of Figure 8: a search over
        simplified trajectories must enlarge the query region by
        ``e + δ(l'q) + δ(l'i)``.  The filter's join widens its segment
        boxes the same way, inline.
        """
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def union(self, other):
        """Return the smallest box covering both ``self`` and ``other``."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersects(self, other):
        """Return True if the two closed boxes share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )


def box_of_points(points):
    """Return the minimum bounding box ``B`` of a non-empty point iterable."""
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("cannot bound an empty point collection") from None
    min_x = max_x = first[0]
    min_y = max_y = first[1]
    for p in iterator:
        if p[0] < min_x:
            min_x = p[0]
        elif p[0] > max_x:
            max_x = p[0]
        if p[1] < min_y:
            min_y = p[1]
        elif p[1] > max_y:
            max_y = p[1]
    return BoundingBox(min_x, min_y, max_x, max_y)
