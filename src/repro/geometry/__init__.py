"""Planar geometry substrate for convoy discovery.

This package holds the point distances of Definition 1 — ``D`` and the
point-to-segment ``DPL`` that DP and DP+ measure deviation with — plus
axis-aligned bounding boxes (a stored convoy's extent and the ``query
--box`` region) and tiny vector helpers.  The segment distances the CuTS
filter needs (``DLL``, ``Dmin`` and the time-parameterized ``D*`` of
Section 6.2) are inlined in :mod:`repro.clustering.spatial_join`.

Everything here is deliberately dependency-free scalar math: the rest of
the library calls these functions in tight inner loops, so they avoid any
object allocation beyond plain tuples.
"""

from repro.geometry.bbox import BoundingBox, box_of_points
from repro.geometry.distance import (
    point_distance,
    point_segment_distance,
    squared_point_distance,
)
from repro.geometry.vec import (
    add,
    dot,
    norm,
    scale,
    squared_norm,
    sub,
)

__all__ = [
    "BoundingBox",
    "add",
    "box_of_points",
    "dot",
    "norm",
    "point_distance",
    "point_segment_distance",
    "scale",
    "squared_norm",
    "squared_point_distance",
    "sub",
]
