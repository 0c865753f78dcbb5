"""Snapshot DBSCAN over point locations (Algorithm 1, line 7).

This is the ``DBSCAN(O_t, e, m)`` call of CMC: cluster the locations of the
objects alive at one time point, with distance threshold ``e`` and minimum
cluster density ``m``.  Every point's neighbourhood comes from one
per-cell batch pass over :class:`repro.clustering.grid_index.GridIndex`;
the clustering skeleton is
:func:`repro.clustering.generic_dbscan.density_cluster`.
"""

from __future__ import annotations

from repro.checks import check_count, check_eps
from repro.clustering.generic_dbscan import density_cluster
from repro.clustering.grid_index import GridIndex


def dbscan(points, eps, min_pts):
    """Cluster identified points by density connection.

    Args:
        points: mapping ``{object_id: (x, y)}``.
        eps: the distance threshold ``e`` of the convoy query.
        min_pts: the ``m`` of the convoy query (an integer >= 1); an
            object is a core object when at least ``m`` objects (itself
            included) lie within ``e``.

    Returns:
        List of clusters, each a ``set`` of object ids; noise objects are in
        no cluster.  Every returned cluster has at least ``min_pts``
        members, because a cluster contains at least one core object and
        that object's entire neighbourhood.
    """
    check_eps(eps)
    check_count("min_pts", min_pts)
    if not points:
        return []
    ids = list(points)
    # Keyed by dense position, the grid pass hands density_cluster its
    # neighbour lists as index lists directly — no id remap per tick.
    try:
        index = GridIndex(eps, dict(enumerate(points.values())))
    except ValueError:
        # The grid named a position; name the offending object instead.
        for object_id, xy in points.items():
            GridIndex._check_finite(object_id, xy)
        raise
    neighbors = index.all_neighbors(eps)
    clusters = density_cluster(len(ids), neighbors.__getitem__, min_pts)
    return [{ids[i] for i in members} for members in clusters]


def dbscan_brute_force(points, eps, min_pts):
    """Reference DBSCAN using O(N^2) neighbourhood scans.

    Exists purely as a test oracle for :func:`dbscan` — it shares the
    clustering skeleton but computes neighbourhoods by checking every pair,
    so any disagreement isolates a bug in the grid index.
    """
    check_eps(eps)
    if not points:
        return []
    ids = list(points.keys())
    locations = [points[object_id] for object_id in ids]
    eps2 = eps * eps

    def neighbors_fn(item):
        x, y = locations[item]
        result = []
        for other, (ox, oy) in enumerate(locations):
            dx = ox - x
            dy = oy - y
            if dx * dx + dy * dy <= eps2:
                result.append(other)
        return result

    clusters = density_cluster(len(ids), neighbors_fn, min_pts)
    return [{ids[i] for i in members} for members in clusters]
