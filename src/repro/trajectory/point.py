"""Timestamped trajectory samples."""

from __future__ import annotations

from typing import NamedTuple


class TrajectoryPoint(NamedTuple):
    """One sample ``p_j = (x_j, y_j, t_j)`` of an object's movement.

    ``t`` is an integer time point from the paper's discrete time domain
    ``{t1, ..., tT}``; ``x`` and ``y`` are planar coordinates in whatever
    unit the dataset uses (the paper's ``e`` thresholds are in the same
    unit).
    """

    x: float
    y: float
    t: int

    @property
    def xy(self):
        """The spatial component ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)
