"""Trajectory data model.

The paper's data model (Section 3): time is the ordered set
``{t1, ..., tT}`` of integer time points; the trajectory of an object ``o``
is a polyline of timestamped locations ``o = <p_a, ..., p_b>`` with time
interval ``o.tau = [t_a, t_b]``.  Trajectories may start and end anywhere in
the time domain and may be sampled irregularly (missing time points between
consecutive samples), which is precisely the situation that forces CMC to
materialize *virtual points* by linear interpolation.

This package provides:

* :class:`TrajectoryPoint` — one timestamped sample ``(x, y, t)``;
* :class:`Trajectory` — an object's polyline with ``o(t)`` lookup and
  interpolation;
* :class:`TrajectoryDatabase` — the collection queried for convoys.
"""

from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.interpolation import interpolate_position
from repro.trajectory.point import TrajectoryPoint
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "Trajectory",
    "TrajectoryDatabase",
    "TrajectoryPoint",
    "interpolate_position",
]
