"""The window-by-window reference the CuTS filter's join is held to.

The filter step (Algorithm 2) clusters, inside every λ-window, one
polyline per object: the object's simplified chords whose time
intervals meet the window (lines 9-10; a chord straddling a window
boundary belongs to both windows).  Two objects are ε-neighbours in a
window when their polylines' ω (Section 5.2) is at most ``e``:

    ``ω(o'_q, o'_i) = min over time-overlapping chord pairs of
      dist(l'_q, l'_i) - δ(l'_q) - δ(l'_i)``

where ``dist`` is the purely spatial ``DLL`` (Lemma 1; CuTS and CuTS+)
or the time-parameterized ``D*`` (Lemma 3; CuTS*).
:mod:`repro.clustering.spatial_join` settles the same test once per
segment pair with inlined kernels; this module keeps the readable float
expressions those kernels mirror, and the tests compare the two window
by window.

A chord is a plain tuple ``(start, end, t_start, t_end, tolerance)``
read from a :class:`~repro.simplification.SimplifiedTrajectory`'s
``points`` and ``tolerances``; a one-sample trajectory has one
zero-duration chord.
"""

import math

from repro.geometry.distance import point_segment_distance
from repro.geometry.vec import lerp

MODES = ("dll", "cpa")


def _segments_intersect(a, b, c, d):
    """Return True if closed segments ``ab`` and ``cd`` intersect."""

    def orient(p, q, r):
        value = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if value > 0.0:
            return 1
        if value < 0.0:
            return -1
        return 0

    def on_segment(p, q, r):
        return (
            min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
        )

    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(a, b, c):
        return True
    if o2 == 0 and on_segment(a, b, d):
        return True
    if o3 == 0 and on_segment(c, d, a):
        return True
    if o4 == 0 and on_segment(c, d, b):
        return True
    return False


def segment_distance(a, b, c, d):
    """Return ``DLL(lu, lv)``: shortest distance between segments ``ab`` and ``cd``.

    If the segments intersect the distance is zero; otherwise the minimum is
    attained at an endpoint of one segment against the other segment, so we
    take the minimum of the four point-to-segment distances.
    """
    if _segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def segment_location_at(pu, pv, u, v, t):
    """Return ``l'(t)`` for the time-parameterized segment ``(pu@u, pv@v)``.

    ``t`` must lie inside ``[u, v]``.  A zero-duration segment (``u == v``)
    is a stationary sample and simply returns ``pu``.
    """
    if not (min(u, v) <= t <= max(u, v)):
        raise ValueError(f"time {t} outside segment interval [{u}, {v}]")
    if v == u:
        return pu
    return lerp(pu, pv, (t - u) / (v - u))


def cpa_time(pu, pv, u, v, qw, qx, w, x):
    """Return the CPA time of two time-parameterized segments.

    The first segment runs from ``pu`` at time ``u`` to ``pv`` at time ``v``;
    the second from ``qw`` at ``w`` to ``qx`` at ``x``.  Both are treated as
    constant-velocity motions; the relative motion is linear so the squared
    distance is a quadratic in ``t`` minimized at

        ``t_cpa = -( (p0 - q0) . (vp - vq) ) / |vp - vq|^2``

    measured from the common reference time 0.  The returned time is clamped
    to the *common* time interval ``[max(u, w), min(v, x)]``, which must be
    non-empty.  When the two objects have identical velocities every
    instant is equally close and the start of the common interval is
    returned.
    """
    t_lo = max(u, w)
    t_hi = min(v, x)
    if t_lo > t_hi:
        raise ValueError(
            f"segments have disjoint time intervals [{u},{v}] and [{w},{x}]"
        )
    # Velocities; zero-duration segments are stationary points.
    vel_p = _velocity(pu, pv, u, v)
    vel_q = _velocity(qw, qx, w, x)
    dvx = vel_p[0] - vel_q[0]
    dvy = vel_p[1] - vel_q[1]
    speed2 = dvx * dvx + dvy * dvy
    if speed2 == 0.0:
        return t_lo
    # Positions at t=0 extrapolated backwards along each velocity.
    p0x = pu[0] - vel_p[0] * u
    p0y = pu[1] - vel_p[1] * u
    q0x = qw[0] - vel_q[0] * w
    q0y = qw[1] - vel_q[1] * w
    t = -((p0x - q0x) * dvx + (p0y - q0y) * dvy) / speed2
    if t < t_lo:
        return t_lo
    if t > t_hi:
        return t_hi
    return t


def _velocity(pa, pb, ta, tb):
    if tb == ta:
        return (0.0, 0.0)
    inv = 1.0 / (tb - ta)
    return ((pb[0] - pa[0]) * inv, (pb[1] - pa[1]) * inv)


def cpa_distance(pu, pv, u, v, qw, qx, w, x):
    """Return ``D*(l'1, l'2)``: distance at the CPA time over the common interval.

    Per Section 6.2 the distance is ``inf`` when the two segments' time
    intervals do not intersect — objects that are never co-temporal cannot
    belong to the same convoy and must never be treated as close.
    """
    t_lo = max(u, w)
    t_hi = min(v, x)
    if t_lo > t_hi:
        return math.inf
    t = cpa_time(pu, pv, u, v, qw, qx, w, x)
    loc_p = segment_location_at(pu, pv, u, v, t)
    loc_q = segment_location_at(qw, qx, w, x, t)
    return math.hypot(loc_p[0] - loc_q[0], loc_p[1] - loc_q[1])


def chords(simplified, use_actual_tolerance=True):
    """The chords of a simplified trajectory, in time order.

    With ``use_actual_tolerance=False`` every chord carries the global δ
    instead of its actual tolerance (the configuration of Figure 14).
    """
    points = simplified.points
    tolerances = simplified.tolerances
    if not use_actual_tolerance:
        tolerances = (simplified.delta,) * len(tolerances)
    return [
        ((a.x, a.y), (b.x, b.y), a.t, b.t, tolerance)
        for a, b, tolerance in zip(points, points[1:] or points, tolerances)
    ]


def chords_covering(simplified, t):
    """The chords whose time interval holds ``t``."""
    return [chord for chord in chords(simplified) if chord[2] <= t <= chord[3]]


def partition_polylines(simplified_list, t_lo, t_hi, use_actual_tolerance=True):
    """``[(object_id, chords), ...]`` for the window ``[t_lo, t_hi]``.

    One entry per object with a chord meeting the window, in input order;
    it lists those chords.
    """
    polylines = []
    for simplified in simplified_list:
        window = [
            chord for chord in chords(simplified, use_actual_tolerance)
            if chord[2] <= t_hi and t_lo <= chord[3]
        ]
        if window:
            polylines.append((simplified.object_id, window))
    return polylines


def chord_distance(chord_q, chord_i, mode):
    """``DLL`` (``mode="dll"``) or ``D*`` (``mode="cpa"``) of two chords."""
    start_q, end_q, u, v, _tol_q = chord_q
    start_i, end_i, w, x, _tol_i = chord_i
    if mode == "dll":
        return segment_distance(start_q, end_q, start_i, end_i)
    return cpa_distance(start_q, end_q, u, v, start_i, end_i, w, x)


def omega(polyline_q, polyline_i, mode="dll"):
    """Return ``ω`` of two chord lists under the chosen chord distance.

    ``inf`` when no pair of chords shares a time point: temporally
    disjoint objects can never convoy together.
    """
    if mode not in MODES:
        raise ValueError(f"unknown distance mode {mode!r}; expected {MODES}")
    best = math.inf
    for chord_q in polyline_q:
        for chord_i in polyline_i:
            if max(chord_q[2], chord_i[2]) > min(chord_q[3], chord_i[3]):
                continue
            distance = chord_distance(chord_q, chord_i, mode)
            adjusted = distance - chord_q[4] - chord_i[4]
            if adjusted < best:
                best = adjusted
    return best
