"""Tests for TrajectoryDatabase."""

import pytest

from repro.streaming.source import replay_database
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory
from tests.oracle import snapshot


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
    """``O_t`` of a database: the oracle's per-tick helper and the one
    sweep the miners read agree on who is alive and where."""

    @staticmethod
    def views(db, t):
        replayed = dict(replay_database(db, (t, t)))[t]
        assert replayed == snapshot(db, t)
        return replayed

    def test_objects_alive_at(self):
        db = db_of(
            ("a", [(0, 0, 0), (1, 1, 10)]),
            ("b", [(0, 0, 5), (1, 1, 9)]),
        )
        assert set(self.views(db, 3)) == {"a"}
        assert set(self.views(db, 7)) == {"a", "b"}

    def test_snapshot_interpolates(self):
        db = db_of(("a", [(0, 0, 0), (10, 0, 10)]))
        snap = self.views(db, 5)
        assert snap["a"] == (5.0, 0.0)

    def test_snapshot_excludes_dead(self):
        db = db_of(
            ("a", [(0, 0, 0), (1, 0, 4)]),
            ("b", [(0, 0, 6), (1, 0, 9)]),
        )
        assert set(self.views(db, 5)) == set()
        assert set(self.views(db, 4)) == {"a"}
