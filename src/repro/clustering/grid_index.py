"""Uniform grid index for exact ``e``-neighbourhood queries.

DBSCAN's core operation is the ``e``-neighbourhood search
``NH_e(p) = {q | D(p, q) <= e}``.  A uniform grid with cell side ``e``
answers it exactly by scanning the 3x3 block of cells around the query
point and filtering by true distance — the standard trick that brings
snapshot clustering from O(N^2) to expected O(N) per query on non-adversarial
data, playing the role of the "spatial index" the paper credits with
O(N log N) clustering.

Why the buckets are a hair wider than ``cell_size``: the distance test is
the floating-point predicate ``dx*dx + dy*dy <= r*r``, and rounding lets
it accept a pair whose true separation exceeds ``r`` by a few ulps.  The
pair ``(-1e-300, 0)``, ``(10.0, 0)`` at ``r = 10`` computes ``dx = 10.0``
exactly and is a neighbour pair, yet on buckets of side 10 the two points
sit two cells apart and a 3x3 scan misses it.  Keying buckets on
``cell_size * (1 + 2**-40)`` (:func:`bucket_side`) absorbs those few ulps:
every pair the predicate accepts at ``r <= cell_size`` then lies in
adjacent buckets, so the 3x3 scan is exact (:func:`block_reach` sizes the
block for larger radii the same way).  The argument needs ``r*r`` and the
squared offsets to stay normal floats — radii between about ``1e-154``
and ``1e154``; outside that range squares underflow or overflow and the
predicate stops being a distance test at all.

The index is mutable: :meth:`GridIndex.remove` and :meth:`GridIndex.move`
let one index follow a snapshot stream across ticks instead of being
rebuilt from scratch (the incremental clusterer in
:mod:`repro.clustering.incremental` relies on this).  Buckets are insertion
-ordered hash sets (dicts), so every mutation is amortized O(1) — no
tombstones accumulate and a bucket whose last point leaves is reclaimed
immediately, keeping memory proportional to the live points regardless of
how far they have drifted since the index was built.

:meth:`GridIndex.all_neighbors` is the full-pass form of the query:
every stored point's disk at once, pairing each occupied cell with
itself and the forward half of its block so that every pair's distance
is computed once.  Snapshot DBSCAN and the incremental clusterer's full
pass use it.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Bucket side over ``cell_size``: the ``2**-40`` slack dwarfs the few
#: ulps by which the squared-distance predicate can overshoot ``r``.
_BUCKET_WIDENING = 1.0 + 2.0 ** -40


def bucket_side(cell_size):
    """The side length buckets are keyed on for a given ``cell_size``.

    Slightly wider than ``cell_size`` so that every pair the
    squared-distance predicate accepts at ``radius <= cell_size`` lies in
    adjacent buckets (see the module docstring).
    """
    return cell_size * _BUCKET_WIDENING


def block_reach(radius, cell_size):
    """Buckets to scan on each side of a query's own bucket.

    1 (a 3x3 block) whenever ``radius <= cell_size``; larger radii scan
    ``ceil(radius / cell_size)`` rings, which the bucket widening keeps
    exact for the same reason.
    """
    return max(1, math.ceil(radius / cell_size))


class GridIndex:
    """A uniform grid over identified 2-D points.

    Args:
        cell_size: the radius the grid is tuned for.  For
            ``e``-neighbourhood queries the natural choice is ``e`` itself
            (then only the 3x3 surrounding block must be scanned).
        points: optional mapping ``{item_id: (x, y)}`` to bulk-load.
    """

    def __init__(self, cell_size, points=None):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = float(cell_size)
        self._side = bucket_side(self._cell_size)
        self._cells = defaultdict(dict)
        self._points = {}
        if points:
            self._bulk_load(points)

    def __len__(self):
        return len(self._points)

    def __contains__(self, item_id):
        return item_id in self._points

    @property
    def cell_size(self):
        """The configured cell side length."""
        return self._cell_size

    def _cell_of(self, xy):
        return (int(xy[0] // self._side), int(xy[1] // self._side))

    @staticmethod
    def _check_finite(item_id, xy):
        if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
            raise ValueError(
                f"coordinates must be finite, got {xy!r} for item "
                f"{item_id!r} (NaN/inf would corrupt cell hashing)"
            )

    def _bulk_load(self, points):
        """:meth:`insert` for a whole mapping, without per-call overhead
        (a mapping cannot hold duplicate ids)."""
        side = self._side
        cells = self._cells
        try:
            for item_id, xy in points.items():
                cells[(int(xy[0] // side), int(xy[1] // side))][item_id] = None
        except (ValueError, OverflowError):
            # int() of a NaN/inf quotient: name the offending point.
            for item_id, xy in points.items():
                self._check_finite(item_id, xy)
            raise
        self._points = dict(points)

    def insert(self, item_id, xy):
        """Insert one point; duplicate ids and non-finite coordinates are
        rejected."""
        if item_id in self._points:
            raise ValueError(f"duplicate item id {item_id!r}")
        self._check_finite(item_id, xy)
        self._points[item_id] = xy
        self._cells[self._cell_of(xy)][item_id] = None

    def remove(self, item_id):
        """Remove a point; unknown ids raise :class:`KeyError`.

        The point's bucket entry is deleted eagerly and the bucket itself is
        dropped when it empties, so long-lived streaming indexes never
        accumulate ghost cells.
        """
        if item_id not in self._points:
            raise KeyError(f"unknown item id {item_id!r}")
        xy = self._points.pop(item_id)
        cell = self._cell_of(xy)
        bucket = self._cells[cell]
        del bucket[item_id]
        if not bucket:
            del self._cells[cell]

    def move(self, item_id, xy):
        """Update a point's position, re-bucketing only on a cell change.

        Unknown ids raise :class:`KeyError`; non-finite coordinates raise
        :class:`ValueError` and leave the index unchanged.  Moves within a
        cell cost one dict store; cross-cell moves cost one delete plus one
        insert — both amortized O(1).
        """
        if item_id not in self._points:
            raise KeyError(f"unknown item id {item_id!r}")
        self._check_finite(item_id, xy)
        old_cell = self._cell_of(self._points[item_id])
        new_cell = self._cell_of(xy)
        self._points[item_id] = xy
        if old_cell != new_cell:
            bucket = self._cells[old_cell]
            del bucket[item_id]
            if not bucket:
                del self._cells[old_cell]
            self._cells[new_cell][item_id] = None

    def neighbors_within(self, xy, radius):
        """Return ids of all points with ``D(xy, point) <= radius``.

        The query point itself is included when it was inserted (DBSCAN's
        neighbourhood definition counts the point itself).  ``radius`` may
        be smaller or larger than the cell size; the scanned block is sized
        by :func:`block_reach` (3x3 up to ``radius == cell_size``).
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        reach = block_reach(radius, self._cell_size)
        cx, cy = self._cell_of(xy)
        radius2 = radius * radius
        result = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                bucket = self._cells.get((gx, gy))
                if not bucket:
                    continue
                for item_id in bucket:
                    px, py = self._points[item_id]
                    dx = px - xy[0]
                    dy = py - xy[1]
                    if dx * dx + dy * dy <= radius2:
                        result.append(item_id)
        return result

    def neighbors_of(self, item_id, radius):
        """Return ``NH_radius`` of a stored item (including the item itself)."""
        return self.neighbors_within(self._points[item_id], radius)

    def all_neighbors(self, radius):
        """Every stored point's ``radius``-disk in one pass.

        Each occupied cell is paired once with itself and with the
        forward half of its block, so the per-query block walk of
        :meth:`neighbors_of` is paid per cell instead of per point, and
        every pair's distance is computed once rather than twice.

        Returns:
            Dict ``{item_id: [neighbour ids]}`` covering every stored
            point, each list the same *set* :meth:`neighbors_of` returns
            (the point itself included).
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        reach = block_reach(radius, self._cell_size)
        radius2 = radius * radius
        points = self._points
        rows = {
            cell: [(q, *points[q]) for q in bucket]
            for cell, bucket in self._cells.items()
        }
        # Each unordered pair is tested once, from the earlier of its two
        # cells in (gx, gy) order, and recorded on both sides: the
        # predicate is symmetric, since a - b rounds to exactly -(b - a).
        forward = [
            (dx, dy)
            for dx in range(0, reach + 1)
            for dy in range(-reach, reach + 1)
            if dx > 0 or dy > 0
        ]
        out = {q: [] for q in points}
        for (cx, cy), members in rows.items():
            for i, (a, ax, ay) in enumerate(members):
                near = out[a]
                near.append(a)
                for b, bx, by in members[i + 1:]:
                    if (bx - ax) * (bx - ax) + (by - ay) * (by - ay) <= radius2:
                        near.append(b)
                        out[b].append(a)
            for dx, dy in forward:
                other = rows.get((cx + dx, cy + dy))
                if not other:
                    continue
                for a, ax, ay in members:
                    near = out[a]
                    for b, bx, by in other:
                        if (bx - ax) * (bx - ax) + (by - ay) * (by - ay) <= radius2:
                            near.append(b)
                            out[b].append(a)
        return out
