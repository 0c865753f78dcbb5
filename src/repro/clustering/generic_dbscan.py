"""DBSCAN over opaque items with a pluggable neighbourhood oracle.

Both clustering problems in the paper — points at one time instant (CMC) and
polylines of simplified segments within one time partition (the CuTS
filter's TRAJ-DBSCAN) — are instances of the same density-clustering
skeleton; only the neighbourhood predicate differs.  This module implements
that skeleton once, faithfully to Ester et al.:

* an item is a **core** item if its neighbourhood (including itself) holds
  at least ``min_pts`` items;
* a cluster is a maximal set of density-connected items: every core item's
  whole neighbourhood joins its cluster, and the cluster is grown
  breadth-first through core items;
* non-core items reachable from a core item become **border** items of that
  cluster; unreachable items are noise and appear in no cluster.

Border items are assigned to the first cluster that reaches them (the
classical, order-dependent DBSCAN rule).  The convoy algorithms only rely
on properties that are order-independent — cluster membership of core
points and the set of clusters of size ``>= m`` — so the tie-break never
affects convoy results.
"""

from __future__ import annotations

from repro.checks import check_count


def density_cluster(num_items, neighbors_fn, min_pts):
    """Cluster items ``0 .. num_items-1`` by density connection.

    Args:
        num_items: number of items; items are dense integer indices.
        neighbors_fn: callable mapping an item index to an iterable of the
            indices within distance ``e`` of it, **including the item
            itself**.  The function may be called more than once per item.
        min_pts: the ``m`` of the paper — minimum neighbourhood size for an
            item to be a core item (an integer >= 1).

    Returns:
        List of clusters, each a list of item indices.  Noise items are
        omitted.  Cluster and member order follow discovery order, which is
        deterministic given ``neighbors_fn``.
    """
    check_count("min_pts", min_pts)
    UNVISITED = -2
    NOISE = -1
    labels = [UNVISITED] * num_items
    clusters = []
    for seed in range(num_items):
        if labels[seed] != UNVISITED:
            continue
        seed_neighbors = list(neighbors_fn(seed))
        if len(seed_neighbors) < min_pts:
            labels[seed] = NOISE
            continue
        cluster_id = len(clusters)
        members = []
        clusters.append(members)
        labels[seed] = cluster_id
        members.append(seed)
        # Breadth-first expansion through core items.
        frontier = list(seed_neighbors)
        position = 0
        while position < len(frontier):
            item = frontier[position]
            position += 1
            label = labels[item]
            if label == NOISE:
                # Border item: reachable from a core item, adopt the cluster.
                labels[item] = cluster_id
                members.append(item)
                continue
            if label != UNVISITED:
                continue
            labels[item] = cluster_id
            members.append(item)
            item_neighbors = list(neighbors_fn(item))
            if len(item_neighbors) >= min_pts:
                frontier.extend(item_neighbors)
    return clusters
