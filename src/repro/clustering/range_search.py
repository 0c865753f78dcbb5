"""Multi-step range search over simplified polylines (Section 5.2).

The filter step must find, for a query polyline ``o'_q``, every polyline
``o'_i`` whose *original* trajectory could have been within ``e`` of the
query's original trajectory at some shared time point.  Lemmas 1-3 turn
that into tests on the simplified data:

* **Lemma 2** (box level): if
  ``Dmin(B(l'_q), B(S)) > e + δ(l'_q) + δmax(S)`` then no segment of the
  group ``S`` can qualify — used here both against STR-packed *buckets* of
  polylines and against a single polyline's box;
* **Lemma 1** (segment level, CuTS/CuTS+): if
  ``DLL(l'_q, l'_i) > e + δ(l'_q) + δ(l'_i)`` the pair is out;
* **Lemma 3** (segment level, CuTS*): same with the tighter
  time-parameterized distance ``D*``.

A pair of polylines is an ``e``-neighbour pair exactly when its ω value

    ``ω(o'_q, o'_i) = min over time-overlapping segment pairs of
      dist(l'_q, l'_i) - δ(l'_q) - δ(l'_i)``

is at most ``e``.  The searcher answers neighbourhood queries with early
exit (the first qualifying segment pair settles the predicate) and records
pruning statistics for the Lemma 2 ablation bench.
"""

from __future__ import annotations

import math

from repro.checks import check_eps
from repro.geometry.bbox import box_min_distance

DISTANCE_MODES = ("dll", "cpa")


def _segment_pair_distance(seg_q, seg_i, mode):
    if mode == "dll":
        return seg_q.spatial_distance_to(seg_i)
    return seg_q.cpa_distance_to(seg_i)


def _overlapping_segment_pairs(poly_q, poly_i):
    """Yield ``(seg_q, tol_q, seg_i, tol_i)`` for time-overlapping segments.

    Both segment lists are time-ordered, so a two-pointer sweep enumerates
    the overlapping pairs in O(len_q + len_i + #overlaps).
    """
    segs_q = poly_q.segments
    segs_i = poly_i.segments
    tols_q = poly_q.tolerances
    tols_i = poly_i.tolerances
    iq = 0
    ii = 0
    while iq < len(segs_q) and ii < len(segs_i):
        seg_q = segs_q[iq]
        seg_i = segs_i[ii]
        if seg_q.t_end < seg_i.t_start:
            iq += 1
            continue
        if seg_i.t_end < seg_q.t_start:
            ii += 1
            continue
        # Overlap found; emit this pair and every later pair of the side
        # whose segment still overlaps.
        yield seg_q, tols_q[iq], seg_i, tols_i[ii]
        # Advance the segment that ends first; ties advance both via two steps.
        if seg_q.t_end <= seg_i.t_end:
            # seg_q may also overlap subsequent segments of poly_i that start
            # within it; enumerate them before advancing iq.
            jj = ii + 1
            while jj < len(segs_i) and segs_i[jj].t_start <= seg_q.t_end:
                if segs_i[jj].t_end >= seg_q.t_start:
                    yield seg_q, tols_q[iq], segs_i[jj], tols_i[jj]
                jj += 1
            iq += 1
        else:
            jj = iq + 1
            while jj < len(segs_q) and segs_q[jj].t_start <= seg_i.t_end:
                if segs_q[jj].t_end >= seg_i.t_start:
                    yield segs_q[jj], tols_q[jj], seg_i, tols_i[ii]
                jj += 1
            ii += 1


def polyline_omega(poly_q, poly_i, mode="dll"):
    """Return ``ω(o'_q, o'_i)`` under the chosen segment distance.

    ``inf`` when no pair of segments shares a time point — temporally
    disjoint objects can never convoy together.
    """
    if mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {mode!r}; expected {DISTANCE_MODES}")
    best = math.inf
    for seg_q, tol_q, seg_i, tol_i in _overlapping_segment_pairs(poly_q, poly_i):
        distance = _segment_pair_distance(seg_q, seg_i, mode)
        adjusted = distance - tol_q - tol_i
        if adjusted < best:
            best = adjusted
    return best


def polylines_within(poly_q, poly_i, eps, mode="dll"):
    """Return True if ``ω(o'_q, o'_i) <= eps`` (early-exit variant)."""
    if mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {mode!r}; expected {DISTANCE_MODES}")
    for seg_q, tol_q, seg_i, tol_i in _overlapping_segment_pairs(poly_q, poly_i):
        bound = eps + tol_q + tol_i
        # Per-pair Lemma 2: box distance lower-bounds the segment distance.
        if box_min_distance(seg_q.bbox, seg_i.bbox) > bound:
            continue
        if _segment_pair_distance(seg_q, seg_i, mode) <= bound:
            return True
    return False


class _Bucket:
    __slots__ = ("indices", "bbox", "max_tolerance")

    def __init__(self, indices, bbox, max_tolerance):
        self.indices = indices
        self.bbox = bbox
        self.max_tolerance = max_tolerance


class PolylineRangeSearcher:
    """ε-neighbourhood oracle over one partition's polylines.

    Polylines are packed into STR-style buckets (sort by box centre x,
    chunk, sort each chunk by centre y, chunk again) so that Lemma 2 can
    discard whole buckets with one box-distance test before any per-segment
    work — the "prune a subset S of line segments fast" step of
    Section 5.2.

    Args:
        polylines: list of :class:`repro.clustering.polyline.PartitionPolyline`.
        eps: the convoy distance threshold ``e``.
        mode: ``"dll"`` for Lemma 1 (CuTS, CuTS+) or ``"cpa"`` for Lemma 3
            (CuTS*).
        bucket_capacity: target polylines per bucket.
        use_lemma2: disable to measure the value of the box-level pruning
            (ablation bench); correctness is unaffected, only speed.
    """

    def __init__(self, polylines, eps, mode="dll", bucket_capacity=8, use_lemma2=True):
        if mode not in DISTANCE_MODES:
            raise ValueError(f"unknown distance mode {mode!r}; expected {DISTANCE_MODES}")
        check_eps(eps)
        if bucket_capacity < 1:
            raise ValueError(f"bucket_capacity must be >= 1, got {bucket_capacity}")
        self._polylines = list(polylines)
        self._eps = eps
        self._mode = mode
        self._use_lemma2 = use_lemma2
        self._buckets = self._pack_buckets(bucket_capacity)
        self.stats = {
            "bucket_tests": 0,
            "buckets_pruned": 0,
            "item_box_tests": 0,
            "items_pruned_by_box": 0,
            "exact_tests": 0,
        }

    def _pack_buckets(self, capacity):
        order = sorted(
            range(len(self._polylines)),
            key=lambda i: (
                self._polylines[i].bbox.min_x + self._polylines[i].bbox.max_x
            ),
        )
        buckets = []
        import math as _math

        n = len(order)
        if n == 0:
            return buckets
        num_slabs = max(1, int(_math.ceil(_math.sqrt(n / capacity))))
        slab_size = int(_math.ceil(n / num_slabs))
        for s in range(0, n, slab_size):
            slab = sorted(
                order[s : s + slab_size],
                key=lambda i: (
                    self._polylines[i].bbox.min_y + self._polylines[i].bbox.max_y
                ),
            )
            for b in range(0, len(slab), capacity):
                chunk = slab[b : b + capacity]
                box = self._polylines[chunk[0]].bbox
                max_tol = self._polylines[chunk[0]].max_tolerance
                for i in chunk[1:]:
                    box = box.union(self._polylines[i].bbox)
                    tol = self._polylines[i].max_tolerance
                    if tol > max_tol:
                        max_tol = tol
                buckets.append(_Bucket(chunk, box, max_tol))
        return buckets

    def __len__(self):
        return len(self._polylines)

    def polyline(self, index):
        """Return the polyline stored at ``index``."""
        return self._polylines[index]

    def neighbors_of(self, query_index):
        """Return indices of polylines with ``ω <= e`` from the query.

        The query polyline itself is always part of its own neighbourhood
        (``ω(p, p) <= 0 <= e``), matching the point-DBSCAN convention.
        """
        query = self._polylines[query_index]
        eps = self._eps
        stats = self.stats
        result = []
        query_box = query.bbox
        query_tol = query.max_tolerance
        for bucket in self._buckets:
            if self._use_lemma2:
                stats["bucket_tests"] += 1
                bound = eps + query_tol + bucket.max_tolerance
                if box_min_distance(query_box, bucket.bbox) > bound:
                    stats["buckets_pruned"] += 1
                    continue
            for index in bucket.indices:
                if index == query_index:
                    result.append(index)
                    continue
                candidate = self._polylines[index]
                if self._use_lemma2:
                    stats["item_box_tests"] += 1
                    bound = eps + query_tol + candidate.max_tolerance
                    if box_min_distance(query_box, candidate.bbox) > bound:
                        stats["items_pruned_by_box"] += 1
                        continue
                stats["exact_tests"] += 1
                if polylines_within(query, candidate, eps, self._mode):
                    result.append(index)
        return result
