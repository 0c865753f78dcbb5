"""The :class:`Trajectory` polyline of one moving object."""

from __future__ import annotations

from bisect import bisect_left

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
            triples); any order, but duplicate time points are rejected.
    """

    __slots__ = ("object_id", "_times", "_xs", "_ys", "_trees")

    def __init__(self, object_id, points):
        self.object_id = object_id
        cleaned = []
        for p in points:
            if not isinstance(p, TrajectoryPoint):
                p = TrajectoryPoint(float(p[0]), float(p[1]), p[2])
            cleaned.append(p.validate())
        cleaned.sort(key=lambda p: p.t)
        if not cleaned:
            raise ValueError(f"trajectory {object_id!r} has no points")
        for prev, cur in zip(cleaned, cleaned[1:]):
            if prev.t == cur.t:
                raise ValueError(
                    f"trajectory {object_id!r} has duplicate samples at t={cur.t}"
                )
        self._times = [p.t for p in cleaned]
        self._xs = [p.x for p in cleaned]
        self._ys = [p.y for p in cleaned]
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

    def is_alive_at(self, t):
        """Return True if ``t`` lies inside ``o.tau``."""
        return self._times[0] <= t <= self._times[-1]

    @property
    def sample_times(self):
        """The sorted list of actually sampled time points (read-only view)."""
        return tuple(self._times)

    def has_sample_at(self, t):
        """Return True if a *real* (non-virtual) sample exists at time ``t``."""
        idx = bisect_left(self._times, t)
        return idx < len(self._times) and self._times[idx] == t

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

    def point_at(self, t):
        """Like :func:`location_at` but returns a :class:`TrajectoryPoint`."""
        x, y = self.location_at(t)
        return TrajectoryPoint(x, y, t)

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

    def bounding_box(self):
        """Return the spatial bounding box of all samples."""
        from repro.geometry.bbox import BoundingBox

        return BoundingBox(
            min(self._xs), min(self._ys), max(self._xs), max(self._ys)
        )
