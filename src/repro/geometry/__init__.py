"""Planar geometry substrate for convoy discovery.

This package holds the point-to-segment distance ``DPL`` of Definition 1,
which DP and DP+ measure deviation with (the point distance ``D`` is
:func:`math.dist`), plus axis-aligned bounding boxes (a stored convoy's
extent and the ``query --box`` region) and tiny vector helpers.  The
segment distances the CuTS filter needs (``DLL``, ``Dmin`` and the
time-parameterized ``D*`` of Section 6.2) are inlined in
:mod:`repro.clustering.spatial_join`.

Everything here is deliberately dependency-free scalar math: the rest of
the library calls these functions in tight inner loops, so they avoid any
object allocation beyond plain tuples.
"""

from repro.geometry.bbox import BoundingBox
from repro.geometry.distance import point_segment_distance
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
    "dot",
    "norm",
    "point_segment_distance",
    "scale",
    "squared_norm",
    "sub",
]
