"""Tests for the plane-sweep ε-adjacency join.

The inlined float kernels must agree exactly with the readable geometry
reference implementations, and the sweep must return the same adjacency as
the brute-force all-pairs test.
"""

import random

import pytest

from repro.clustering.polyline import PartitionPolyline
from repro.clustering.range_search import polyline_omega
from repro.clustering.spatial_join import (
    JoinPolyline,
    _segments_cross,
    pair_within,
    polyline_adjacency,
)
from repro.geometry.distance import _segments_intersect
from repro.trajectory.segment import TimestampedSegment


def random_polyline(rng, object_id, t0, num_segments, step=5.0, tol_max=3.0):
    """Random time-contiguous polyline in both representations."""
    x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
    t = t0
    segments = []
    tolerances = []
    for _ in range(num_segments):
        nx, ny = x + rng.uniform(-step, step), y + rng.uniform(-step, step)
        duration = rng.randint(1, 4)
        segments.append(TimestampedSegment((x, y), (nx, ny), t, t + duration))
        tolerances.append(rng.uniform(0, tol_max))
        x, y, t = nx, ny, t + duration
    partition = PartitionPolyline(object_id, tuple(segments), tuple(tolerances))
    return partition, JoinPolyline.from_partition_polyline(partition)


class TestPairWithinMatchesOmega:
    def _check(self, rng, mode):
        part_a, join_a = random_polyline(rng, "a", rng.randint(0, 3), rng.randint(1, 5))
        part_b, join_b = random_polyline(rng, "b", rng.randint(0, 3), rng.randint(1, 5))
        eps = rng.uniform(0.5, 30)
        expected = polyline_omega(part_a, part_b, mode) <= eps
        got = pair_within(join_a, join_b, eps, mode)
        assert got == expected, (
            f"mode={mode} eps={eps} omega={polyline_omega(part_a, part_b, mode)}"
        )

    def test_dll_many_random(self):
        rng = random.Random(100)
        for _ in range(300):
            self._check(rng, "dll")

    def test_cpa_many_random(self):
        rng = random.Random(200)
        for _ in range(300):
            self._check(rng, "cpa")

    def test_self_pair_is_within(self):
        rng = random.Random(1)
        _part, join = random_polyline(rng, "a", 0, 3)
        assert pair_within(join, join, 0.5, "dll")
        assert pair_within(join, join, 0.5, "cpa")

    def test_temporally_disjoint_never_within(self):
        a = JoinPolyline("a", [(0, 0, 1, 0, 0.0, 5.0, 0.0)])
        b = JoinPolyline("b", [(0, 0, 1, 0, 6.0, 9.0, 0.0)])
        assert not pair_within(a, b, 1000.0, "dll")
        assert not pair_within(a, b, 1000.0, "cpa")

    def test_tolerances_loosen_the_test(self):
        # Segments 10 apart; eps 5 fails without tolerances, passes when
        # each side carries tolerance 3 (bound = 5 + 3 + 3 = 11 >= 10).
        tight_a = JoinPolyline("a", [(0, 0, 1, 0, 0.0, 5.0, 0.0)])
        tight_b = JoinPolyline("b", [(0, 10, 1, 10, 0.0, 5.0, 0.0)])
        loose_a = JoinPolyline("a", [(0, 0, 1, 0, 0.0, 5.0, 3.0)])
        loose_b = JoinPolyline("b", [(0, 10, 1, 10, 0.0, 5.0, 3.0)])
        assert not pair_within(tight_a, tight_b, 5.0, "dll")
        assert pair_within(loose_a, loose_b, 5.0, "dll")


class TestSegmentsCrossDegenerateCases:
    """The inlined crossing test against the geometry reference on the
    inputs random floats never produce: exact collinearity, endpoints
    lying on the other segment, and zero-length segments.  (Inside
    ``pair_within`` such touches are already caught by the endpoint
    distances, so only a direct check reaches these branches.)"""

    @pytest.mark.parametrize("ab, cd, expected", [
        (((0, 0), (4, 0)), ((2, 0), (6, 0)), True),
        (((0, 0), (4, 0)), ((5, 0), (6, 0)), False),
        (((0, 0), (4, 0)), ((4, 0), (6, 0)), True),
        (((0, 0), (0, 4)), ((0, 1), (0, 2)), True),
        (((0, 0), (4, 0)), ((2, 0), (2, 3)), True),
        (((0, 0), (4, 0)), ((2, 3), (2, 0)), True),
        (((0, 0), (4, 0)), ((5, 0), (5, 3)), False),
        (((0, 0), (4, 4)), ((1, 3), (3, 1)), True),
        (((0, 0), (4, 0)), ((0, 1), (4, 1)), False),
        (((2, 0), (2, 0)), ((0, 0), (4, 0)), True),
        (((6, 0), (6, 0)), ((0, 0), (4, 0)), False),
        (((1, 1), (1, 1)), ((1, 1), (1, 1)), True),
    ], ids=[
        "collinear-overlap", "collinear-gap", "collinear-shared-endpoint",
        "collinear-vertical-containment", "c-on-ab", "d-on-ab",
        "touch-line-beyond-segment", "proper-cross", "parallel-apart",
        "point-on-segment", "point-on-line-beyond-segment",
        "coincident-points",
    ])
    def test_matches_the_reference(self, ab, cd, expected):
        (a, b), (c, d) = ab, cd
        for p, q, r, s in [(a, b, c, d), (b, a, c, d), (c, d, a, b),
                           (d, c, b, a)]:
            assert _segments_intersect(p, q, r, s) is expected
            assert _segments_cross(*p, *q, *r, *s) is expected


class TestAdjacency:
    def _random_partition(self, rng, n):
        parts = []
        joins = []
        for i in range(n):
            part, join = random_polyline(rng, f"o{i}", rng.randint(0, 2), rng.randint(1, 4))
            parts.append(part)
            joins.append(join)
        return parts, joins

    def test_sweep_equals_brute_force(self):
        rng = random.Random(5)
        for trial in range(40):
            _parts, joins = self._random_partition(rng, rng.randint(2, 15))
            eps = rng.uniform(1, 25)
            mode = rng.choice(["dll", "cpa"])
            swept = polyline_adjacency(joins, eps, mode, use_sweep=True)
            brute = polyline_adjacency(joins, eps, mode, use_sweep=False)
            assert [sorted(a) for a in swept] == [sorted(a) for a in brute]

    def test_adjacency_is_symmetric(self):
        rng = random.Random(6)
        _parts, joins = self._random_partition(rng, 12)
        adjacency = polyline_adjacency(joins, 10.0, "dll")
        for i, neighbors in enumerate(adjacency):
            for j in neighbors:
                assert i in adjacency[j]

    def test_every_item_is_own_neighbor(self):
        rng = random.Random(7)
        _parts, joins = self._random_partition(rng, 8)
        adjacency = polyline_adjacency(joins, 0.001, "cpa")
        for i, neighbors in enumerate(adjacency):
            assert i in neighbors

    def test_stats_counters(self):
        rng = random.Random(8)
        _parts, joins = self._random_partition(rng, 10)
        stats = {}
        polyline_adjacency(joins, 5.0, "dll", stats=stats)
        assert stats["pairs_considered"] >= stats["pairs_linked"]

    def test_sweep_prunes_far_pairs(self):
        # Two clusters far apart: the sweep should consider fewer pairs
        # than the brute-force n*(n-1)/2.
        joins = []
        for i in range(10):
            x = 0.0 if i < 5 else 10_000.0
            joins.append(JoinPolyline(f"o{i}", [(x + i, 0, x + i, 1, 0.0, 4.0, 0.0)]))
        stats = {}
        polyline_adjacency(joins, 5.0, "dll", stats=stats)
        assert stats["pairs_considered"] < 45


class TestJoinPolyline:
    def test_bounds_and_tol(self):
        poly = JoinPolyline(
            "a",
            [(0, 0, 4, 2, 0.0, 3.0, 1.0), (4, 2, -1, 5, 3.0, 6.0, 2.5)],
        )
        assert poly.bounds == (-1, 0, 4, 5)
        assert poly.max_tol == 2.5

    def test_from_partition_polyline(self):
        seg = TimestampedSegment((1, 2), (3, 4), 5, 8)
        part = PartitionPolyline("a", (seg,), (0.7,))
        join = JoinPolyline.from_partition_polyline(part)
        assert join.segs == [(1, 2, 3, 4, 5.0, 8.0, 0.7)]
        assert join.object_id == "a"
