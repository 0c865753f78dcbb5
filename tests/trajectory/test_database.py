"""Tests for TrajectoryDatabase."""

import pytest

from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def db_of(*specs):
    return TrajectoryDatabase(
        Trajectory(oid, pts) for oid, pts in specs
    )


class TestConstruction:
    def test_empty(self):
        db = TrajectoryDatabase()
        assert len(db) == 0
        assert repr(db) == "TrajectoryDatabase(empty)"

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError):
            db_of(("a", [(0, 0, 0)]), ("a", [(1, 1, 1)]))

    def test_non_trajectory_rejected(self):
        db = TrajectoryDatabase()
        with pytest.raises(TypeError):
            db.add([(0, 0, 0)])

    def test_lookup(self):
        db = db_of(("a", [(0, 0, 0), (1, 1, 1)]))
        assert "a" in db
        assert "b" not in db
        assert db["a"].object_id == "a"


class TestStatistics:
    def test_table3_stats(self):
        db = db_of(
            ("a", [(0, 0, 0), (1, 1, 1), (2, 2, 2)]),
            ("b", [(0, 0, 5), (1, 1, 9)]),
        )
        stats = db.statistics()
        assert stats["num_objects"] == 2
        assert stats["time_domain_length"] == 10  # [0, 9]
        assert stats["total_points"] == 5
        assert stats["average_trajectory_length"] == 2.5

    def test_empty_statistics_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryDatabase().statistics()


class TestSnapshots:
    def test_objects_alive_at(self):
        db = db_of(
            ("a", [(0, 0, 0), (1, 1, 10)]),
            ("b", [(0, 0, 5), (1, 1, 9)]),
        )
        assert {tr.object_id for tr in db.objects_alive_at(3)} == {"a"}
        assert {tr.object_id for tr in db.objects_alive_at(7)} == {"a", "b"}

    def test_snapshot_interpolates(self):
        db = db_of(("a", [(0, 0, 0), (10, 0, 10)]))
        snap = db.snapshot(5)
        assert snap["a"] == (5.0, 0.0)

    def test_snapshot_excludes_dead(self):
        db = db_of(
            ("a", [(0, 0, 0), (1, 0, 4)]),
            ("b", [(0, 0, 6), (1, 0, 9)]),
        )
        assert set(db.snapshot(5)) == set()
        assert set(db.snapshot(4)) == {"a"}
