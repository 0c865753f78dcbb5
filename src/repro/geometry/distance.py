"""Point distance functions of Definition 1.

The paper defines four distances; two live here:

* ``D(pu, pv)``      — Euclidean distance between two points
                       (:func:`point_distance`);
* ``DPL(p, l)``      — shortest distance between a point and any point on a
                       line segment (:func:`point_segment_distance`), the
                       deviation DP and DP+ measure.

The segment distance ``DLL`` and the box distance ``Dmin`` are only used
by the CuTS filter, which inlines them
(:mod:`repro.clustering.spatial_join`).

Segments are pairs of ``(x, y)`` tuples.  All functions return plain floats.
"""

from __future__ import annotations

import math

from repro.geometry.vec import dot, squared_norm, sub


def point_distance(pu, pv):
    """Return ``D(pu, pv)``: the Euclidean distance between two points."""
    return math.hypot(pu[0] - pv[0], pu[1] - pv[1])


def squared_point_distance(pu, pv):
    """Return ``D(pu, pv)^2`` without the square root.

    Range searches compare against a threshold, so comparing squared
    distances against a squared threshold saves a ``sqrt`` per candidate.
    """
    dx = pu[0] - pv[0]
    dy = pu[1] - pv[1]
    return dx * dx + dy * dy


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


def point_line_distance(p, a, b):
    """Return the perpendicular distance from ``p`` to the *infinite* line ``ab``.

    The classical Douglas-Peucker algorithm [11] measures deviation with the
    perpendicular distance to the chord's supporting line; we expose it
    separately from :func:`point_segment_distance` because the two differ
    for points whose projection falls outside the chord.

    For a degenerate chord (``a == b``) the distance to the single point is
    returned.
    """
    ab = sub(b, a)
    denom = math.hypot(ab[0], ab[1])
    if denom == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    cross = (b[0] - a[0]) * (a[1] - p[1]) - (a[0] - p[0]) * (b[1] - a[1])
    return abs(cross) / denom
