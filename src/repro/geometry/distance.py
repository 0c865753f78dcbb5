"""The point-to-segment distance of Definition 1.

The paper defines four distances.  ``D(pu, pv)``, the Euclidean distance
between two points, is :func:`math.dist`.  ``DPL(p, l)``, the shortest
distance between a point and any point on a line segment, lives here
(:func:`point_segment_distance`): it is the deviation DP and DP+ measure.

The segment distance ``DLL`` and the box distance ``Dmin`` are only used
by the CuTS filter, which inlines them
(:mod:`repro.clustering.spatial_join`).

Segments are pairs of ``(x, y)`` tuples.  All functions return plain floats.
"""

from __future__ import annotations

import math

from repro.geometry.vec import dot, squared_norm, sub


def _clamp01(value):
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def point_segment_projection(p, a, b):
    """Return the point on segment ``ab`` closest to ``p``.

    The result is the orthogonal projection of ``p`` onto the supporting
    line of ``ab``, clamped to the segment.  Degenerate segments (``a == b``)
    are handled by returning ``a``.
    """
    ab = sub(b, a)
    denom = squared_norm(ab)
    if denom == 0.0:
        return a
    t = _clamp01(dot(sub(p, a), ab) / denom)
    return (a[0] + ab[0] * t, a[1] + ab[1] * t)


def point_segment_distance(p, a, b):
    """Return ``DPL(p, l)``: shortest distance from point ``p`` to segment ``ab``."""
    q = point_segment_projection(p, a, b)
    return math.hypot(p[0] - q[0], p[1] - q[1])
