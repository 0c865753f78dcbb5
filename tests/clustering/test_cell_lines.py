"""Points on and one ulp off the grid lines: the 3x3 scan stays exact.

Every grid pass scans only the 3x3 block of buckets around a query when
``radius <= cell_size``.  That is exact only because buckets are keyed
on a side a hair wider than ``cell_size``: the squared-distance
predicate ``dx*dx + dy*dy <= eps*eps`` rounds, and can accept a pair
whose true separation exceeds ``eps`` by an ulp or so — such a pair can
sit two ``eps``-wide buckets apart.  Each neighbour search and clustering
path here is held to that very predicate (the one
:func:`tests.oracle.dbscan_brute_force` evaluates), not to
``math.hypot``, which rounds differently.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.incremental as incremental
from repro.clustering.dbscan import dbscan
from repro.clustering.grid_index import GridIndex
from repro.clustering.incremental import IncrementalSnapshotClusterer
from tests.oracle import dbscan_brute_force

#: The pair the predicate accepts although the points lie two
#: ``eps``-wide buckets apart: ``10.0 - (-1e-300)`` rounds to exactly 10.
EPS = 10.0
PAIR = {"a": (-1e-300, 0.0), "b": (10.0, 0.0)}


def predicate_neighbors(points, xy, eps):
    """The ids within ``eps`` of ``xy`` under the brute-force predicate."""
    x, y = xy
    eps2 = eps * eps
    found = set()
    for item_id, (ox, oy) in points.items():
        dx = ox - x
        dy = oy - y
        if dx * dx + dy * dy <= eps2:
            found.add(item_id)
    return found


def check_every_pass(points, eps):
    """Every neighbour search equals the predicate on ``points``."""
    expected = {
        item_id: predicate_neighbors(points, xy, eps)
        for item_id, xy in points.items()
    }
    grid = GridIndex(eps, points)
    for item_id in points:
        assert set(grid.neighbors_of(item_id, eps)) == expected[item_id]
    assert {k: set(v) for k, v in grid.all_neighbors(eps).items()} == (
        expected
    )


def check_every_clustering(points, eps, min_pts):
    """dbscan and the incremental full pass equal the brute-force
    clustering."""
    expected = dbscan_brute_force(points, eps, min_pts)
    assert dbscan(points, eps, min_pts) == expected
    assert IncrementalSnapshotClusterer(eps, min_pts).cluster(points) == (
        expected
    )


class TestTheTwoBucketPair:
    def test_predicate_accepts_the_pair(self):
        assert predicate_neighbors(PAIR, PAIR["a"], EPS) == {"a", "b"}
        # Keyed on eps itself, the two points are two buckets apart.
        assert (PAIR["a"][0] // EPS, PAIR["b"][0] // EPS) == (-1.0, 1.0)

    def test_every_neighbour_pass_finds_it(self):
        check_every_pass(PAIR, EPS)

    def test_every_clustering_joins_it(self):
        check_every_clustering(PAIR, EPS, 2)
        assert dbscan(PAIR, EPS, 2) == [{"a", "b"}]

    def test_incremental_delta_path_finds_it(self, monkeypatch):
        """A move onto the far side of the pair goes through the
        single-query patching, not the full pass."""
        monkeypatch.setattr(incremental, "CHURN_THRESHOLD", 1.0)
        start = {"a": (-1e-300, 0.0), "b": (30.0, 0.0), "c": (60.0, 0.0)}
        clusterer = IncrementalSnapshotClusterer(EPS, 2)
        assert clusterer.cluster(start) == []
        moved = dict(start, b=(10.0, 0.0))
        assert clusterer.cluster(moved) == dbscan_brute_force(moved, EPS, 2)
        assert clusterer.counters["incremental_passes"] == 1


@st.composite
def cell_line_snapshots(draw, count=1, max_points=24):
    """``eps`` and ``count`` snapshots of the same ids whose coordinates
    sit on ``k * eps`` grid lines, one ulp either side of them, or a
    denormal away from zero."""
    eps = draw(st.sampled_from([0.1, 0.3, 1.0, 2.5, 7.0, 10.0, 33.3])
               | st.floats(min_value=1e-3, max_value=1e3))

    def coordinate():
        line = draw(st.integers(-4, 4)) * eps
        nudge = draw(st.sampled_from(["on", "below", "above", "tiny"]))
        if nudge == "below":
            return math.nextafter(line, -math.inf)
        if nudge == "above":
            return math.nextafter(line, math.inf)
        if nudge == "tiny":
            return line + draw(st.sampled_from([-1e-300, 1e-300, -5e-324]))
        return line

    n = draw(st.integers(1, max_points))
    snapshots = [
        {i: (coordinate(), coordinate()) for i in range(n)}
        for _ in range(count)
    ]
    return eps, snapshots


class TestCellLineProperties:
    @settings(max_examples=150, deadline=None)
    @given(cell_line_snapshots())
    def test_neighbour_passes_match_the_predicate(self, case):
        eps, (points,) = case
        check_every_pass(points, eps)

    @settings(max_examples=100, deadline=None)
    @given(cell_line_snapshots(), st.integers(1, 4))
    def test_clusterings_match_brute_force(self, case, min_pts):
        eps, (points,) = case
        check_every_clustering(points, eps, min_pts)

    @settings(max_examples=60, deadline=None)
    @given(cell_line_snapshots(count=3), st.integers(1, 4))
    def test_incremental_delta_matches_brute_force(self, case, min_pts):
        """Moves between cell-line positions go through the clusterer's
        single-query patching; every tick still equals brute force."""
        eps, snapshots = case
        clusterer = IncrementalSnapshotClusterer(eps, min_pts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incremental, "CHURN_THRESHOLD", 1.0)
            for snapshot in snapshots:
                assert clusterer.cluster(snapshot) == (
                    dbscan_brute_force(snapshot, eps, min_pts)
                )
