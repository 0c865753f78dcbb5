"""Tests for time partitioning and the reference's partition polylines."""

import pytest

from repro.core.partition import TimePartitioner
from repro.simplification import douglas_peucker
from repro.trajectory.trajectory import Trajectory
from tests.filter_reference import partition_polylines


class TestTimePartitioner:
    def test_even_division(self):
        parts = list(TimePartitioner(0, 7, 4))
        assert parts == [(0, 3), (4, 7)]

    def test_ragged_tail(self):
        parts = list(TimePartitioner(0, 9, 4))
        assert parts == [(0, 3), (4, 7), (8, 9)]

    def test_single_partition(self):
        assert list(TimePartitioner(5, 9, 100)) == [(5, 9)]

    def test_lambda_one(self):
        assert list(TimePartitioner(0, 2, 1)) == [(0, 0), (1, 1), (2, 2)]

    def test_len(self):
        assert len(TimePartitioner(0, 9, 4)) == 3
        assert len(TimePartitioner(0, 7, 4)) == 2

    def test_partitions_cover_domain_disjointly(self):
        parts = list(TimePartitioner(3, 29, 5))
        covered = []
        for lo, hi in parts:
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(3, 30))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TimePartitioner(5, 3, 2)
        with pytest.raises(ValueError):
            TimePartitioner(0, 9, 0)


class TestPartitionPolylines:
    def _zigzag(self, oid="o", n=20):
        pts = [(float(i), float((-1) ** i * 3), i) for i in range(n)]
        return Trajectory(oid, pts)

    def test_straddling_segment_in_both_partitions(self):
        """Figure 9(b): a segment crossing the boundary must appear in both
        neighbouring partitions."""
        tr = Trajectory("o", [(0, 0, 0), (10, 0, 10)])
        simplified = douglas_peucker(tr, 0.5)  # one segment [0, 10]
        first = partition_polylines([simplified], 0, 4)
        second = partition_polylines([simplified], 5, 10)
        assert first == second == [("o", [((0, 0), (10, 0), 0, 10, 0.0)])]

    def test_object_absent_from_uncovered_partition(self):
        tr = Trajectory("o", [(0, 0, 0), (5, 0, 5)])
        simplified = douglas_peucker(tr, 0.5)
        assert partition_polylines([simplified], 6, 9) == []

    def test_global_tolerance_mode(self):
        simplified = douglas_peucker(self._zigzag(), 3.5)
        [(_, actual)] = partition_polylines([simplified], 0, 19)
        [(_, global_tol)] = partition_polylines(
            [simplified], 0, 19, use_actual_tolerance=False
        )
        assert all(chord[4] <= 3.5 for chord in actual)
        assert all(chord[4] == 3.5 for chord in global_tol)

    def test_polyline_carries_matching_tolerances(self):
        simplified = douglas_peucker(self._zigzag(), 2.0)
        [(_, chords)] = partition_polylines([simplified], 0, 19)
        assert [chord[4] for chord in chords] == list(simplified.tolerances)
