"""One segment-level ε-adjacency join per CuTS filter run.

The filter step (Algorithm 2) clusters, inside every λ-window, one
polyline per object: two objects are ε-neighbours in a window when some
pair of their time-overlapping simplified segments, both meeting the
window, passes the Lemma 1 (``DLL``, CuTS/CuTS+) or Lemma 3 (``D*``,
CuTS*) test

    ``dist(l_a, l_b) <= e + δ(l_a) + δ(l_b)``.

That test reads the two segments alone, never the window, and the windows
a segment meets form a contiguous range.  So instead of re-flattening each
window's polylines and re-testing their segment pairs in every window a
segment straddles, the join settles each segment pair once per query:

1. **Records.**  Every simplified segment becomes one record
   (:func:`segment_records`), built once and shared by every window it
   meets: its endpoints, box, tolerance, the box expanded by
   ``e/2 + δ(l)`` and, for ``D*``, its velocity and t=0 position.
2. **Enumeration.**  Each window x-sweeps the expanded boxes of the
   records that meet it, with two active lists: one for records entering
   the window (it is their first) and one for records carried over from
   earlier windows.  A pair is enumerated only when at least one of its
   records enters, so every segment pair that shares a window is
   enumerated exactly once — in the first window both meet.  By Lemma 2
   a pair within the bound has overlapping expanded boxes (each axis gap
   is at most ``e + δ(l_a) + δ(l_b)``).
3. **Settling.**  An enumerated pair of different objects that overlaps
   in time gets the per-pair Lemma 2 gap test, then the exact kernel.  A
   link holds in every window the two segments share, so it is applied
   to all of them at once; a pair whose objects are already linked in
   every one of those windows is skipped unsettled.

Why the expanded boxes are a hair wider than ``e/2 + δ(l)``: the sweep
compares rounded box edges (``max_x + margin`` against ``min_x -
margin``), while the gap test rounds ``min_x - max_x`` and
``e + δ + δ``; near a tie the two can round apart and the sweep would drop
a pair the gap test keeps.  Each margin carries a slack of ``2**-40``
times the record's coordinate magnitude plus the margin, which dwarfs the
few ulps involved (the 3×3 grid of :mod:`repro.clustering.grid_index` is
widened the same way).

Why the gap test and the kernels accept a hair past ``e + δ(l_a) +
δ(l_b)``: the CuTS refinement evaluates ``e`` only over the pairs linked
here, so the join must link every pair that the snapshot predicate
``dx*dx + dy*dy <= e*e`` accepts at a tick of the window, ties included.
Rounding works against that at a tie: the snapshot positions, the
simplifier's tolerances and the kernel's own arithmetic each carry a few
ulps of the magnitudes they compute with.  The ``D*`` kernel computes
positions as ``p + v·t`` from t=0 anchors ``p = x1 - v·t1``, so its
magnitudes are those anchors and ``|v·t|``, far larger than the
coordinates once times are large; at a tie it could round above the bound
where the snapshot predicate accepts.  Each record therefore carries the
scale of what its kernel computes (the coordinates, plus the anchors and
``|v|·max|t|`` for ``D*``), and a pair's bound is widened by ``2**-40``
times the bound plus both scales.

The inlined kernels evaluate ``DLL`` from squared
:func:`~repro.geometry.distance.point_segment_distance` terms and ``D*``
from each record's velocity and t=0 position.  Their readable
references, the per-window polylines of Algorithm 2 and ω over them live
beside the tests, in ``tests/filter_reference.py``; the tests hold the
join to them window by window.
"""

from __future__ import annotations

from operator import itemgetter

#: Relative widening of the sweep margins (see the module docstring).
_SLACK = 2.0**-40

# Record layout.  Fields 0-6 are the segment as the exact kernels read
# it; the sweep and the gap test read the boxes; the D* kernel reads the
# velocity and t=0 position (zero in DLL mode).
#  0-3  x1, y1, x2, y2        7-10  min_x, max_x, min_y, max_y
#  4-5  t1, t2 (floats)      11-14  expanded box lo_x, hi_x, lo_y, hi_y
#  6    tolerance δ(l)       15-18  vx, vy, px, py
#  19   owner (object index) 20-21  first and last window
#  22   scale of the kernel's arithmetic (see the module docstring)
_LO_X = itemgetter(11)


def segment_records(simplified_list, t_lo, t_hi, lam, eps, mode="dll",
                    use_actual_tolerance=True):
    """Build one join record per simplified segment, filed by first window.

    This is the ``G`` construction of Algorithm 2 (lines 9-10) done once
    for every partition: the time domain ``[t_lo, t_hi]`` is cut into
    λ-point windows (:class:`~repro.core.partition.TimePartitioner`), and
    each segment's record serves every window its time interval meets (a
    boundary-straddling segment lands in both partitions — the ``l_3^2``
    rule of Figure 9(b)).  Segments are read straight off the trajectory's
    coordinates at consecutive kept sample indices (a lone sample pairs
    with itself as a zero-duration segment).

    Args:
        simplified_list: one
            :class:`~repro.simplification.SimplifiedTrajectory` per object;
            an object's *owner* index is its position in this list.
        t_lo, t_hi, lam: the time domain and the window length λ.
        eps: the convoy distance threshold ``e``.
        mode: ``"dll"`` (Lemma 1) or ``"cpa"`` (Lemma 3).
        use_actual_tolerance: when False, every segment carries the
            *global* δ instead of its actual tolerance (Figure 14).

    Returns:
        ``(entering, present)``: per window, the records whose first
        window it is, and the owners with a segment there, in ascending
        order.  An object's segments cover one contiguous run of windows.
    """
    num_windows = (t_hi - t_lo) // lam + 1
    entering = [[] for _ in range(num_windows)]
    present = [[] for _ in range(num_windows)]
    cpa = mode == "cpa"
    half_eps = 0.5 * eps
    for owner, simplified in enumerate(simplified_list):
        delta = simplified.delta
        times, xs, ys = simplified.trajectory.coordinates()
        kept = simplified.kept
        z_lo = None
        for i, j, tol in zip(kept, kept[1:] or kept, simplified.tolerances):
            t1 = times[i]
            t2 = times[j]
            seg_lo = t1 if t1 > t_lo else t_lo
            seg_hi = t2 if t2 < t_hi else t_hi
            if seg_lo > seg_hi:
                continue
            z_first = (seg_lo - t_lo) // lam
            z_last = (seg_hi - t_lo) // lam
            if z_lo is None:
                z_lo = z_first
            if not use_actual_tolerance:
                tol = delta
            x1 = xs[i]
            y1 = ys[i]
            x2 = xs[j]
            y2 = ys[j]
            t1 = float(t1)
            t2 = float(t2)
            min_x, max_x = (x1, x2) if x1 <= x2 else (x2, x1)
            min_y, max_y = (y1, y2) if y1 <= y2 else (y2, y1)
            half = half_eps + tol
            scale = abs(min_x) + abs(max_x) + abs(min_y) + abs(max_y)
            margin = half + (half + scale) * _SLACK
            if cpa:
                # Zero-duration segments are stationary.
                duration = t2 - t1
                if duration > 0.0:
                    vx = (x2 - x1) / duration
                    vy = (y2 - y1) / duration
                else:
                    vx = vy = 0.0
                px = x1 - vx * t1
                py = y1 - vy * t1
                scale += abs(px) + abs(py) + (abs(vx) + abs(vy)) * max(
                    abs(t1), abs(t2)
                )
            else:
                vx = vy = px = py = 0.0
            entering[z_first].append((
                x1, y1, x2, y2, t1, t2, tol,
                min_x, max_x, min_y, max_y,
                min_x - margin, max_x + margin, min_y - margin, max_y + margin,
                vx, vy, px, py,
                owner, z_first, z_last, scale,
            ))
        if z_lo is not None:
            for z in range(z_lo, z_last + 1):
                present[z].append(owner)
    return entering, present


def _point_seg_dist2(px, py, ax, ay, bx, by):
    """Squared distance from point (px,py) to segment (ax,ay)-(bx,by)."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        dx = px - ax
        dy = py - ay
        return dx * dx + dy * dy
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    dx = px - (ax + abx * t)
    dy = py - (ay + aby * t)
    return dx * dx + dy * dy


def _segments_cross(ax, ay, bx, by, cx, cy, dx, dy):
    """True if closed segments AB and CD intersect (inlined orientation test)."""
    d1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    d2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    d3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    d4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and (
        (d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0
    ):
        # Possible intersection including collinear touches; fall back to
        # the precise bounding checks for the degenerate cases.
        if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
            return (
                min(ax, bx) <= max(cx, dx)
                and min(cx, dx) <= max(ax, bx)
                and min(ay, by) <= max(cy, dy)
                and min(cy, dy) <= max(ay, by)
            )
        if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
            return True
        # One orientation is exactly zero: endpoint touching.
        if d1 == 0 and min(ax, bx) <= cx <= max(ax, bx) and min(ay, by) <= cy <= max(ay, by):
            return True
        if d2 == 0 and min(ax, bx) <= dx <= max(ax, bx) and min(ay, by) <= dy <= max(ay, by):
            return True
        if d3 == 0 and min(cx, dx) <= ax <= max(cx, dx) and min(cy, dy) <= ay <= max(cy, dy):
            return True
        if d4 == 0 and min(cx, dx) <= bx <= max(cx, dx) and min(cy, dy) <= by <= max(cy, dy):
            return True
    return False


def _dll_within(sa, sb, bound):
    """True if DLL(segment a, segment b) <= bound (inlined Lemma 1 test)."""
    ax1, ay1, ax2, ay2 = sa[0], sa[1], sa[2], sa[3]
    bx1, by1, bx2, by2 = sb[0], sb[1], sb[2], sb[3]
    bound2 = bound * bound
    if _point_seg_dist2(ax1, ay1, bx1, by1, bx2, by2) <= bound2:
        return True
    if _point_seg_dist2(ax2, ay2, bx1, by1, bx2, by2) <= bound2:
        return True
    if _point_seg_dist2(bx1, by1, ax1, ay1, ax2, ay2) <= bound2:
        return True
    if _point_seg_dist2(bx2, by2, ax1, ay1, ax2, ay2) <= bound2:
        return True
    return _segments_cross(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2)


def _cpa_within(ra, rb, bound):
    """True if D*(segment a, segment b) <= bound (inlined Lemma 3 test).

    Reads each record's velocity and t=0 position, which
    :func:`segment_records` computed once per segment.
    """
    t_lo = ra[4] if ra[4] > rb[4] else rb[4]
    t_hi = ra[5] if ra[5] < rb[5] else rb[5]
    if t_lo > t_hi:
        return False
    vax = ra[15]
    vay = ra[16]
    vbx = rb[15]
    vby = rb[16]
    dvx = vax - vbx
    dvy = vay - vby
    speed2 = dvx * dvx + dvy * dvy
    pax = ra[17]
    pay = ra[18]
    pbx = rb[17]
    pby = rb[18]
    if speed2 == 0.0:
        t = t_lo
    else:
        t = -((pax - pbx) * dvx + (pay - pby) * dvy) / speed2
        if t < t_lo:
            t = t_lo
        elif t > t_hi:
            t = t_hi
    dx = (pax + vax * t) - (pbx + vbx * t)
    dy = (pay + vay * t) - (pby + vby * t)
    return dx * dx + dy * dy <= bound * bound


def window_links(entering, eps, mode="dll", use_lemma2=True, stats=None):
    """Yield, window by window, the pairs of objects linked there.

    Args:
        entering: one list per window, in window order, of the records
            whose first window it is (from :func:`segment_records`).
        eps: the convoy distance threshold ``e``.
        mode: ``"dll"`` (Lemma 1, CuTS/CuTS+) or ``"cpa"`` (Lemma 3, CuTS*).
        use_lemma2: when False there is no box prefilter: every
            time-overlapping segment pair of different objects gets the
            exact test (the Lemma 2 ablation configuration).  The links
            are identical, only slower.
        stats: optional dict accumulating, in segment pairs,
            ``pairs_considered`` (pairs that reached the per-pair test:
            the gap test and kernel, or the kernel alone without Lemma 2)
            and ``pairs_linked`` (those the kernel found within the
            bound).  Each window adds its pairs before it is yielded.

    Yields:
        For each window, a flat list ``[a1, b1, a2, b2, ...]`` of owner
        pairs with ``ω(a, b) <= e`` in that window (up to the rounding
        slack of the module docstring), each pair once.  By Lemmas 1 and
        3 it holds every pair of objects whose positions are within
        ``e`` at some tick of the window.
    """
    kernel = _dll_within if mode == "dll" else _cpa_within
    slack = _SLACK
    pending = [[] for _ in entering]
    # For each linked owner pair, the last window it is linked in.  Every
    # link found by window z starts at or before z, so the windows from z
    # on in which a pair is linked are always z .. linked_until[pair].
    linked_until = {}
    carried = []

    def link(a, b, key, z, end):
        """Apply a link found in window z to windows z .. end."""
        done = linked_until.get(key, -1)
        if done >= end:
            return
        linked_until[key] = end
        for window in range(done + 1 if done >= z else z, end + 1):
            pending[window] += (a, b)

    for z, new in enumerate(entering):
        considered = linked = 0
        records = carried + new
        if new and use_lemma2:
            # x-sweep over the expanded boxes.  An entering record meets
            # both active lists; a carried one meets the entering records
            # only, because two carried records met in an earlier window.
            records.sort(key=_LO_X)
            active_new = []
            active_old = []
            remaining = len(new)
            for record in records:
                (_x1, _y1, _x2, _y2, t1, t2, tol,
                 min_x, max_x, min_y, max_y,
                 lo_x, _hi_x, lo_y, hi_y,
                 _vx, _vy, _px, _py,
                 a, z_first, z_last, scale) = record
                if z_first == z:
                    remaining -= 1
                    lists = (active_new, active_old)
                elif active_new:
                    lists = (active_new,)
                elif remaining:
                    active_old.append(record)
                    continue
                else:
                    break
                for active in lists:
                    keep = []
                    for other in active:
                        if other[12] < lo_x:
                            continue
                        keep.append(other)
                        if other[14] < lo_y or hi_y < other[13]:
                            continue
                        b = other[19]
                        if b == a:
                            continue
                        if (t1 if t1 > other[4] else other[4]) > (
                            t2 if t2 < other[5] else other[5]
                        ):
                            continue
                        end = z_last if z_last < other[21] else other[21]
                        key = (a, b) if a < b else (b, a)
                        if linked_until.get(key, -1) >= end:
                            continue
                        considered += 1
                        # Per-pair Lemma 2: the axis gaps between the two
                        # segment boxes bound their distance from below.
                        bound = eps + tol + other[6]
                        bound += (bound + scale + other[22]) * slack
                        gap_x = min_x - other[8]
                        gap = other[7] - max_x
                        if gap_x < gap:
                            gap_x = gap
                        if gap_x > bound:
                            continue
                        gap_y = min_y - other[10]
                        gap = other[9] - max_y
                        if gap_y < gap:
                            gap_y = gap
                        if gap_y > bound:
                            continue
                        if (
                            gap_x > 0.0
                            and gap_y > 0.0
                            and gap_x * gap_x + gap_y * gap_y > bound * bound
                        ):
                            continue
                        if kernel(record, other, bound):
                            linked += 1
                            link(a, b, key, z, end)
                    active[:] = keep
                if z_first == z:
                    active_new.append(record)
                else:
                    active_old.append(record)
        elif new:
            # No box prefilter: every entering record meets every carried
            # record and every entering record before it.
            for index, record in enumerate(new):
                a = record[19]
                t1 = record[4]
                t2 = record[5]
                z_last = record[21]
                for other in records[: len(carried) + index]:
                    b = other[19]
                    if b == a:
                        continue
                    if (t1 if t1 > other[4] else other[4]) > (
                        t2 if t2 < other[5] else other[5]
                    ):
                        continue
                    considered += 1
                    bound = eps + record[6] + other[6]
                    bound += (bound + record[22] + other[22]) * slack
                    if kernel(record, other, bound):
                        linked += 1
                        link(
                            a, b, (a, b) if a < b else (b, a), z,
                            z_last if z_last < other[21] else other[21],
                        )
        if stats is not None:
            stats["pairs_considered"] = stats.get("pairs_considered", 0) + considered
            stats["pairs_linked"] = stats.get("pairs_linked", 0) + linked
        yield pending[z]
        pending[z] = None
        carried = [record for record in records if record[21] > z]
