"""Density-based clustering substrate.

The convoy definition is built on DBSCAN-style *density connection*
(Ester et al. 1996, reference [12] of the paper), so the library implements
DBSCAN from scratch:

* :mod:`repro.clustering.grid_index` — a uniform grid over points that
  answers exact ``e``-neighbourhood queries in expected O(neighbours);
* :mod:`repro.clustering.dbscan` — snapshot DBSCAN over point locations
  (the per-time-point clustering of CMC, Algorithm 1 line 7);
* :mod:`repro.clustering.incremental` — cross-tick delta maintenance of
  snapshot DBSCAN for streams: identical output to a fresh pass per tick,
  paying only for the objects that moved;
* :mod:`repro.clustering.generic_dbscan` — DBSCAN over opaque items with a
  pluggable neighbourhood oracle, used by the CuTS filter to cluster
  *polylines of simplified segments* (the TRAJ-DBSCAN of Algorithm 2);
* :mod:`repro.clustering.spatial_join` — the CuTS filter's segment-level
  join, which settles the Lemma 1 / Lemma 3 test of Section 5.2 once per
  pair of simplified segments and yields each window's linked objects.
"""

from repro.clustering.dbscan import dbscan
from repro.clustering.generic_dbscan import density_cluster
from repro.clustering.grid_index import GridIndex
from repro.clustering.incremental import IncrementalSnapshotClusterer

__all__ = [
    "GridIndex",
    "IncrementalSnapshotClusterer",
    "dbscan",
    "density_cluster",
]
