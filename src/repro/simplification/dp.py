"""Classical Douglas-Peucker simplification (reference [11]; Section 5.1)."""

from __future__ import annotations

from math import hypot

from repro.geometry.distance import point_segment_distance
from repro.simplification.tree import TreeSimplifier


def spatial_deviation(xs, ys, times, lo, hi, i):
    """Deviation of point ``i`` from chord ``lo..hi``: ``DPL(p_i, chord)``.

    Definition 4 measures tolerance with the point-to-segment distance, so
    the split criterion uses the same measure (see the package docstring
    for why this differs from the perpendicular-to-line variant).
    """
    return point_segment_distance(
        (xs[i], ys[i]), (xs[lo], ys[lo]), (xs[hi], ys[hi])
    )


def spatial_chord(times, xs, ys, lo, hi):
    """First argmax and max of :func:`spatial_deviation` inside ``lo..hi``.

    The chord's constants are hoisted and the argmax is tracked in the
    loop.  Each deviation evaluates the float expressions of
    :func:`~repro.geometry.distance.point_segment_distance`, in its order,
    so the result is bit-for-bit the per-point function's.
    """
    ax = xs[lo]
    ay = ys[lo]
    abx = xs[hi] - ax
    aby = ys[hi] - ay
    denom = abx * abx + aby * aby
    split = first = lo + 1
    max_dev = 0.0
    interior = zip(range(first, hi), xs[first:hi], ys[first:hi])
    if denom == 0.0:
        for i, x, y in interior:
            dev = hypot(x - ax, y - ay)
            if dev > max_dev:
                max_dev = dev
                split = i
        return split, max_dev
    for i, x, y in interior:
        t = ((x - ax) * abx + (y - ay) * aby) / denom
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        dev = hypot(x - (ax + abx * t), y - (ay + aby * t))
        if dev > max_dev:
            max_dev = dev
            split = i
    return split, max_dev


#: **DP** — split at the point of maximum spatial deviation.  The classical
#: algorithm of Douglas & Peucker (1973) applied to a trajectory's spatial
#: footprint, ignoring time.
douglas_peucker = TreeSimplifier(spatial_chord, "DP")
