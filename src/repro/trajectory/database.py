"""The trajectory database queried for convoys."""

from __future__ import annotations

from repro.trajectory.trajectory import Trajectory


class TrajectoryDatabase:
    """An in-memory collection of :class:`Trajectory` objects.

    This is the ``O`` of Definition 3 — the set of object trajectories a
    convoy query runs against.  Besides storage it provides the snapshot
    accessors the algorithms need:

    * :meth:`objects_alive_at` / :meth:`snapshot` — the ``O_t`` set of
      CMC's per-time clustering, with virtual points for missing samples;
    * the global time domain ``[min_time, max_time]`` and the dataset
      statistics reported in Table 3.

    Args:
        trajectories: iterable of :class:`Trajectory`; object ids must be
            unique.
    """

    def __init__(self, trajectories=()):
        self._trajectories = {}
        for trajectory in trajectories:
            self.add(trajectory)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, trajectory):
        """Insert a trajectory; duplicate object ids are rejected."""
        if not isinstance(trajectory, Trajectory):
            raise TypeError(f"expected Trajectory, got {type(trajectory).__name__}")
        if trajectory.object_id in self._trajectories:
            raise ValueError(f"duplicate object id {trajectory.object_id!r}")
        self._trajectories[trajectory.object_id] = trajectory

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self):
        """Number of objects ``N``."""
        return len(self._trajectories)

    def __iter__(self):
        return iter(self._trajectories.values())

    def __contains__(self, object_id):
        return object_id in self._trajectories

    def __getitem__(self, object_id):
        return self._trajectories[object_id]

    def __repr__(self):
        if not self._trajectories:
            return "TrajectoryDatabase(empty)"
        return (
            f"TrajectoryDatabase({len(self)} objects, "
            f"T=[{self.min_time}, {self.max_time}], "
            f"{self.total_points} points)"
        )

    @property
    def object_ids(self):
        """All object identifiers, in insertion order."""
        return list(self._trajectories.keys())

    # ------------------------------------------------------------------
    # Temporal extent & statistics (Table 3 columns)
    # ------------------------------------------------------------------
    @property
    def min_time(self):
        """Earliest time point covered by any trajectory."""
        self._require_non_empty()
        return min(tr.start_time for tr in self)

    @property
    def max_time(self):
        """Latest time point covered by any trajectory."""
        self._require_non_empty()
        return max(tr.end_time for tr in self)

    @property
    def time_domain_length(self):
        """``T``: the number of time points in the global domain."""
        return self.max_time - self.min_time + 1

    @property
    def total_points(self):
        """Total number of stored samples ("data size" in Table 3)."""
        return sum(len(tr) for tr in self)

    @property
    def average_trajectory_length(self):
        """Mean number of samples per trajectory (Table 3 row)."""
        self._require_non_empty()
        return self.total_points / len(self)

    def statistics(self):
        """Return the Table 3 dataset statistics as a dict."""
        self._require_non_empty()
        return {
            "num_objects": len(self),
            "time_domain_length": self.time_domain_length,
            "average_trajectory_length": self.average_trajectory_length,
            "total_points": self.total_points,
        }

    # ------------------------------------------------------------------
    # Snapshot access (the O_t of Algorithm 1)
    # ------------------------------------------------------------------
    def objects_alive_at(self, t):
        """Return the trajectories whose time interval covers ``t``."""
        return [tr for tr in self if tr.is_alive_at(t)]

    def snapshot(self, t):
        """Return ``O_t``: ``{object_id: (x, y)}`` for every object alive at ``t``.

        Objects without a real sample at ``t`` contribute a virtual
        (interpolated) point, exactly as CMC requires (Section 4).
        """
        return {
            tr.object_id: tr.location_at(t)
            for tr in self
            if tr.is_alive_at(t)
        }

    def _require_non_empty(self):
        if not self._trajectories:
            raise ValueError("operation requires a non-empty database")
