"""Linear interpolation of missing samples ("virtual points", Section 4).

CMC needs every object's location at every clustered time point, but real
trajectories are sampled irregularly — the paper's Taxi data reports
"every three minutes ... some once in several minutes".  The paper's fix is
linear interpolation between the neighbouring real samples; these helpers
implement it once so CMC and the dataset generators share the same
semantics.  The CuTS refinement walks each trajectory with a cursor
instead of a bisect per time point, and evaluates the same float
expressions in the same order, so its positions are bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.geometry.vec import lerp


def interpolate_position(times, xs, ys, t):
    """Interpolate the ``(x, y)`` position at time ``t``.

    Args:
        times: strictly increasing list of sampled integer time points.
        xs, ys: coordinates parallel to ``times``.
        t: query time; must satisfy ``times[0] <= t <= times[-1]``.

    Returns:
        The sampled position when ``t`` is an actual sample time, else the
        linear interpolation between the two bracketing samples (the
        paper's *virtual point*).

    Raises:
        ValueError: when ``t`` falls outside the trajectory's time interval
            — the paper never extrapolates: an object simply does not exist
            outside ``o.tau``.
    """
    if not times:
        raise ValueError("cannot interpolate an empty trajectory")
    if t < times[0] or t > times[-1]:
        raise ValueError(
            f"time {t} outside trajectory interval [{times[0]}, {times[-1]}]"
        )
    idx = bisect_left(times, t)
    if times[idx] == t:
        return (xs[idx], ys[idx])
    lo = idx - 1
    ratio = (t - times[lo]) / (times[idx] - times[lo])
    return lerp((xs[lo], ys[lo]), (xs[idx], ys[idx]), ratio)


def virtual_point(p_before, p_after, t):
    """Interpolate between two timestamped points ``(x, y, t)``.

    Convenience wrapper over :func:`interpolate_position` for callers that
    already hold the bracketing samples.
    """
    if not (p_before.t <= t <= p_after.t):
        raise ValueError(
            f"time {t} outside bracketing interval [{p_before.t}, {p_after.t}]"
        )
    if p_after.t == p_before.t:
        return (p_before.x, p_before.y)
    ratio = (t - p_before.t) / (p_after.t - p_before.t)
    return lerp((p_before.x, p_before.y), (p_after.x, p_after.y), ratio)
