"""DP* — time-aware simplification (Meratnia & de By [23]; Sections 2.2, 6.2).

Where DP measures how far a point strays from the chord *geometrically*,
DP* measures how far the object strays from where a constant-velocity
object travelling the chord *would be at the same instant*: the deviation
of ``p_i`` is ``D(p_i, l'(t_i))`` with ``l'(t)`` the time-ratio location of
Section 6.2 (also known in the literature as the synchronous Euclidean
distance).

Consequences, both exploited by CuTS*:

* actual tolerances bound ``D(o(t), l'(t))`` — exactly the premise Lemma 3
  needs for the tightened ``D*`` distance;
* the time-ratio deviation is never smaller than the spatial deviation, so
  DP* keeps more points than DP (lower reduction power, Figure 15(a)) but
  its segments admit much tighter distance bounds.
"""

from __future__ import annotations

from math import hypot

from repro.simplification.tree import TreeSimplifier


def time_ratio_deviation(xs, ys, times, lo, hi, i):
    """Deviation of point ``i`` from the chord's time-ratio location.

    ``l'(t_i) = p_lo + (t_i - t_lo) / (t_hi - t_lo) * (p_hi - p_lo)`` —
    the position, at ``p_i``'s own timestamp, of an object moving uniformly
    along the chord.
    """
    span = times[hi] - times[lo]
    if span == 0:
        return hypot(xs[i] - xs[lo], ys[i] - ys[lo])
    ratio = (times[i] - times[lo]) / span
    proj_x = xs[lo] + (xs[hi] - xs[lo]) * ratio
    proj_y = ys[lo] + (ys[hi] - ys[lo]) * ratio
    return hypot(xs[i] - proj_x, ys[i] - proj_y)


def time_ratio_chord(times, xs, ys, lo, hi):
    """First argmax and max of :func:`time_ratio_deviation` inside ``lo..hi``.

    The chord's constants are hoisted and the argmax is tracked in the
    loop.  Each deviation evaluates :func:`time_ratio_deviation`'s float
    expressions in its order — the ratio ``(t_i - t_lo) / span`` first,
    then ``x_lo + dx * ratio`` — so the result is bit-for-bit the
    per-point function's.  ``span`` is positive: a trajectory's sample
    times strictly increase.
    """
    t0 = times[lo]
    x0 = xs[lo]
    y0 = ys[lo]
    span = times[hi] - t0
    dx = xs[hi] - x0
    dy = ys[hi] - y0
    split = first = lo + 1
    max_dev = 0.0
    for i, t, x, y in zip(
        range(first, hi), times[first:hi], xs[first:hi], ys[first:hi]
    ):
        ratio = (t - t0) / span
        dev = hypot(x - (x0 + dx * ratio), y - (y0 + dy * ratio))
        if dev > max_dev:
            max_dev = dev
            split = i
    return split, max_dev


#: **DP*** — DP's max-deviation split rule over the time-ratio deviation.
douglas_peucker_star = TreeSimplifier(time_ratio_chord, "DP*")
