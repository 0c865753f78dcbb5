"""Disc-based flock discovery — the lossy-flock baseline (Section 1, Fig. 1).

A *flock* (references [5, 13, 14]) is a group of at least ``m`` objects
that stay together inside a moving disc of radius ``r`` for at least ``k``
consecutive time points.  Finding the longest-duration flock is NP-hard
(Gudmundsson & van Kreveld), so practical systems use heuristics; this
module implements the standard object-centred heuristic — candidate discs
are centred on each object's location — which is what the lossy-flock
discussion needs: it demonstrates that *any* fixed disc size either drops
members that belong to a natural group (Figure 1's ``o4``) or merges
separate groups, whereas the density-based convoy adapts to the data.

This baseline exists for the Figure 1 demonstration and the flock ablation
bench; it is not part of the paper's evaluation tables.
"""

from __future__ import annotations

import math

from repro.clustering.grid_index import GridIndex
from repro.core.candidates import CandidateTracker
from repro.streaming.source import replay_database


def _disc_groups(snapshot, radius, min_objects):
    """Return the maximal object-centred disc groups at one time point.

    For each object, the group is every object within ``radius`` of it (the
    disc of radius ``radius`` centred on the object).  Groups smaller than
    ``min_objects`` are dropped, and groups contained in another group are
    removed so only maximal ones survive.
    """
    if len(snapshot) < min_objects:
        return []
    index = GridIndex(radius, snapshot)
    groups = []
    for object_id in snapshot:
        members = frozenset(index.neighbors_of(object_id, radius))
        if len(members) >= min_objects:
            groups.append(members)
    groups.sort(key=len, reverse=True)
    maximal = []
    for group in groups:
        if not any(group <= other for other in maximal):
            maximal.append(group)
    return maximal


def discover_flocks(database, m, k, radius, time_range=None):
    """Discover flocks with object-centred candidate discs.

    Args:
        database: a :class:`repro.trajectory.TrajectoryDatabase`.
        m: minimum flock size.
        k: minimum lifetime in consecutive time points.
        radius: the disc radius (the user-specified size whose brittleness
            the paper criticizes).
        time_range: optional ``(t_lo, t_hi)`` restriction, as
            :func:`~repro.streaming.source.replay_database` takes it.

    Returns:
        List of :class:`~repro.core.convoy.Convoy`-shaped results (the
        flock's member set and interval).  Chaining across time reuses the
        convoy candidate tracker: a flock persists while at least ``m`` of
        its members remain in a common disc group.
    """
    tracker = CandidateTracker(m, k)
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    results = []
    for t, snapshot in replay_database(database, time_range):
        groups = _disc_groups(snapshot, radius, m)
        results.extend(
            record.as_convoy() for record in tracker.advance(groups, t, t)
        )
    results.extend(record.as_convoy() for record in tracker.flush())
    return results
