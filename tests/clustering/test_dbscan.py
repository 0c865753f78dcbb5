"""Tests for snapshot DBSCAN — against hand-built cases and the brute-force
reference implementation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import dbscan, dbscan_brute_force

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


def as_point_map(pts):
    return {i: p for i, p in enumerate(pts)}


class TestBasicBehaviour:
    def test_empty(self):
        assert dbscan({}, 1.0, 2) == []

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            dbscan({"a": (0, 0)}, 0.0, 2)

    def test_single_cluster(self):
        points = {"a": (0, 0), "b": (1, 0), "c": (2, 0)}
        clusters = dbscan(points, 1.5, 2)
        assert clusters == [{"a", "b", "c"}]

    def test_noise_excluded(self):
        points = {"a": (0, 0), "b": (1, 0), "far": (50, 50)}
        clusters = dbscan(points, 1.5, 2)
        assert clusters == [{"a", "b"}]

    def test_two_separate_clusters(self):
        points = {
            "a": (0, 0), "b": (1, 0),
            "c": (100, 0), "d": (101, 0),
        }
        clusters = dbscan(points, 1.5, 2)
        assert len(clusters) == 2
        assert {"a", "b"} in clusters and {"c", "d"} in clusters

    def test_chain_is_density_connected(self):
        # A chain of points each within e of the next: one cluster even
        # though the ends are far apart — the arbitrary-shape property the
        # convoy definition is built on.
        points = {i: (i * 1.0, 0.0) for i in range(10)}
        clusters = dbscan(points, 1.0, 2)
        assert clusters == [{i for i in range(10)}]

    def test_min_pts_counts_self(self):
        # |NH_e(q)| includes q itself: two mutually-close points each have
        # neighbourhood size 2, so m=2 makes both core.
        points = {"a": (0, 0), "b": (1, 0)}
        assert dbscan(points, 1.5, 2) == [{"a", "b"}]
        assert dbscan(points, 1.5, 3) == []

    def test_cluster_at_least_min_pts(self):
        rng = random.Random(7)
        points = {
            i: (rng.uniform(0, 50), rng.uniform(0, 50)) for i in range(80)
        }
        for cluster in dbscan(points, 4.0, 4):
            assert len(cluster) >= 4

    def test_border_point_joins_one_cluster(self):
        # x is within e of cores from two different clusters but is not
        # core itself (m=4): classic border point; it must appear in
        # exactly one cluster.
        points = {
            "a1": (0, 0), "a2": (0, 1), "a3": (1, 0), "a4": (1, 1),
            "x": (2.5, 0.5),
            "b1": (5, 0), "b2": (5, 1), "b3": (4, 0), "b4": (4, 1),
        }
        clusters = dbscan(points, 1.8, 4)
        membership = [c for c in clusters if "x" in c]
        assert len(membership) == 1

    def test_lossy_flock_scenario(self):
        # Figure 1: o4 is too far from the disc centre but density-chained
        # through o3 — density clustering keeps the natural group together.
        points = {
            "o1": (0.0, 0.0),
            "o2": (1.0, 0.2),
            "o3": (2.0, 0.0),
            "o4": (3.0, 0.1),
        }
        clusters = dbscan(points, 1.2, 2)
        assert clusters == [{"o1", "o2", "o3", "o4"}]


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=0, max_size=50),
        st.floats(min_value=0.5, max_value=30),
        st.integers(min_value=1, max_value=6),
    )
    def test_grid_equals_brute_force(self, pts, eps, min_pts):
        """Same clusters with and without the grid index.

        Cluster identity is compared as a set of frozensets: border-point
        assignment depends on visit order, which both implementations share
        (both use index order), so the outputs must match exactly.
        """
        points = as_point_map(pts)
        fast = dbscan(points, eps, min_pts)
        slow = dbscan_brute_force(points, eps, min_pts)
        assert [set(c) for c in fast] == [set(c) for c in slow]

    def test_dense_random_field(self):
        rng = random.Random(3)
        points = {
            i: (rng.gauss(0, 10), rng.gauss(0, 10)) for i in range(300)
        }
        fast = dbscan(points, 2.0, 3)
        slow = dbscan_brute_force(points, 2.0, 3)
        assert [set(c) for c in fast] == [set(c) for c in slow]


class TestClusterInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=0, max_size=40, unique=True),
        st.floats(min_value=0.5, max_value=20),
        st.integers(min_value=2, max_value=5),
    )
    def test_clusters_disjoint_and_dense(self, pts, eps, min_pts):
        points = as_point_map(pts)
        clusters = dbscan(points, eps, min_pts)
        seen = set()
        for cluster in clusters:
            assert len(cluster) >= min_pts
            assert not (cluster & seen), "clusters must be disjoint"
            seen |= cluster


class TestObjectIds:
    """The grid is keyed by dense position; answers and errors still
    speak in object ids."""

    @pytest.mark.parametrize("backend", ["python", "vector"])
    def test_mixed_id_types_survive(self, backend):
        points = {
            5: (0.0, 0.0), "5": (0.5, 0.0), "a": (0.0, 0.5),
            6: (20.0, 20.0),
        }
        assert dbscan(points, 1.0, 3, backend=backend) == [{5, "5", "a"}]

    @pytest.mark.parametrize("backend", ["python", "vector"])
    def test_non_finite_error_names_the_object(self, backend):
        points = {"ok": (0.0, 0.0), "lost": (math.nan, 1.0), 7: (1.0, 1.0)}
        with pytest.raises(ValueError, match="finite.*'lost'"):
            dbscan(points, 1.0, 2, backend=backend)
