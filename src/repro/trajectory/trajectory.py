"""The :class:`Trajectory` polyline of one moving object."""

from __future__ import annotations

from itertools import islice
from math import isfinite
from operator import lt

from repro.trajectory.interpolation import interpolate_position
from repro.trajectory.point import TrajectoryPoint


class Trajectory:
    """The recorded movement ``o = <p_a, ..., p_b>`` of a single object.

    A trajectory stores its samples sorted by time and supports the paper's
    model faithfully:

    * it may cover any sub-interval ``o.tau = [t_a, t_b]`` of the global
      time domain (objects appear and disappear);
    * sampling may be irregular — ``o(t)`` for a missing time point inside
      ``o.tau`` is answered with a linearly interpolated *virtual point*;
    * outside ``o.tau`` the object does not exist and lookups raise.

    Args:
        object_id: hashable identifier of the moving object.
        points: iterable of :class:`TrajectoryPoint` (or ``(x, y, t)``
            triples) in any order.  Each tick ``t`` is an int, not a
            bool; each coordinate is a finite int or float, not a bool
            or a string, and is stored as a float; duplicate time points
            are rejected.  :meth:`from_columns` applies the same rules.
    """

    __slots__ = ("object_id", "_times", "_xs", "_ys", "_trees")

    def __init__(self, object_id, points):
        points = list(points)
        self._adopt(
            object_id,
            [p[2] for p in points],
            [p[0] for p in points],
            [p[1] for p in points],
        )

    @classmethod
    def from_columns(cls, object_id, times, xs, ys):
        """Build a trajectory from parallel ``times``, ``xs``, ``ys`` lists.

        The rules and messages are the constructor's.  The lists are
        handed over: when they already hold floats sorted by time they
        become the trajectory's storage (see :meth:`coordinates`), so
        the caller must not touch them again.  The CSV loader builds
        every trajectory this way, with no per-sample object.
        """
        trajectory = cls.__new__(cls)
        trajectory._adopt(object_id, times, xs, ys)
        return trajectory

    def _adopt(self, object_id, times, xs, ys):
        """Check the columns against the sample rules, sort them by time
        and keep them.

        Every check is a pass at C speed over a whole column; only a
        column that fails one is walked in Python, to name its first bad
        sample in input order.
        """
        if not len(times) == len(xs) == len(ys):
            raise ValueError(
                f"trajectory {object_id!r} has columns of unequal length"
            )
        if not times:
            raise ValueError(f"trajectory {object_id!r} has no points")
        x_types = set(map(type, xs))
        y_types = set(map(type, ys))
        try:
            valid = (
                set(map(type, times)) <= {int}
                and x_types | y_types <= {int, float}
                and all(map(isfinite, xs))
                and all(map(isfinite, ys))
            )
        except OverflowError:  # an int past the float range
            valid = False
        if not valid:
            fault = _first_bad_sample(object_id, times, xs, ys)
            if fault is not None:
                raise ValueError(fault)
        if x_types != {float}:
            xs = list(map(float, xs))
        if y_types != {float}:
            ys = list(map(float, ys))
        if not all(map(lt, times, islice(times, 1, None))):
            order = sorted(range(len(times)), key=times.__getitem__)
            times = list(map(times.__getitem__, order))
            xs = list(map(xs.__getitem__, order))
            ys = list(map(ys.__getitem__, order))
            if not all(map(lt, times, islice(times, 1, None))):
                duplicate = next(
                    cur for prev, cur in zip(times, times[1:]) if prev == cur
                )
                raise ValueError(
                    f"trajectory {object_id!r} has duplicate samples at "
                    f"t={duplicate}"
                )
        self.object_id = object_id
        self._times = times
        self._xs = xs
        self._ys = ys
        self._trees = ()

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self):
        """Number of recorded samples ``|o|``."""
        return len(self._times)

    def __iter__(self):
        for t, x, y in zip(self._times, self._xs, self._ys):
            yield TrajectoryPoint(x, y, t)

    def __getitem__(self, index):
        return TrajectoryPoint(self._xs[index], self._ys[index], self._times[index])

    def __repr__(self):
        return (
            f"Trajectory({self.object_id!r}, {len(self)} points, "
            f"tau=[{self.start_time}, {self.end_time}])"
        )

    # ------------------------------------------------------------------
    # Temporal extent
    # ------------------------------------------------------------------
    @property
    def start_time(self):
        """``t_a``: the first sampled time point."""
        return self._times[0]

    @property
    def end_time(self):
        """``t_b``: the last sampled time point."""
        return self._times[-1]

    @property
    def tau(self):
        """The time interval ``o.tau = (t_a, t_b)``."""
        return (self._times[0], self._times[-1])

    @property
    def duration(self):
        """Length of ``o.tau`` in unit time steps (``t_b - t_a``)."""
        return self._times[-1] - self._times[0]

    # ------------------------------------------------------------------
    # Location lookup
    # ------------------------------------------------------------------
    def location_at(self, t):
        """Return ``o(t)`` as an ``(x, y)`` tuple.

        Missing time points inside ``o.tau`` are answered by linear
        interpolation (the paper's virtual points); times outside ``o.tau``
        raise :class:`ValueError`.
        """
        return interpolate_position(self._times, self._xs, self._ys, t)

    def coordinates(self):
        """Return the raw parallel arrays ``(times, xs, ys)``.

        The simplifiers consume trajectories through this accessor to avoid
        materializing per-point objects on multi-hundred-thousand-point
        inputs (the Cattle workload).  The lists are the trajectory's own
        storage, not copies, and must never be mutated: the trajectory's
        split trees (:meth:`split_tree`) cache deviations computed from
        them, and a mutation would leave every later simplification of
        this trajectory silently wrong.
        """
        return self._times, self._xs, self._ys

    def split_tree(self, chord):
        """Return this trajectory's split tree under the measure ``chord``.

        The tree (:class:`repro.simplification.tree.SplitTree`) is built on
        first use and kept with the trajectory, which has no mutator, so
        every later DP/DP* simplification of the trajectory is a cut of
        the same tree.  ``chord`` is the measure's node function, e.g.
        :func:`repro.simplification.dp.spatial_chord`.
        """
        trees = self._trees
        for tree in trees:
            if tree.chord is chord:
                return tree
        from repro.simplification.tree import SplitTree

        tree = SplitTree(self, chord)
        self._trees = trees + (tree,)
        return tree


def _first_bad_sample(object_id, times, xs, ys):
    """The error for the first sample, in input order, that breaks a rule
    of :class:`Trajectory`, or None when every sample keeps them (an int
    or float subclass such as an ``IntEnum`` tick is accepted)."""
    for x, y, t in zip(xs, ys, times):
        for value in (x, y):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return (
                    f"trajectory {object_id!r}: coordinate {value!r} is not "
                    "an int or a float"
                )
        if isinstance(t, bool):
            return (
                f"trajectory {object_id!r}: time point {t!r} is a bool, not "
                "an integer"
            )
        if not isinstance(t, int):
            return f"time point must be an integer, got {t!r}"
        for axis, value in (("x", x), ("y", y)):
            try:
                float(value)
            except OverflowError:
                return (
                    f"trajectory {object_id!r}: {axis} coordinate at t={t} "
                    "is an int too large for a float"
                )
        if not (isfinite(x) and isfinite(y)):
            return f"non-finite coordinates ({x}, {y})"
    return None
