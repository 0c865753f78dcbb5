"""Tests for the disc-based flock baseline and the lossy-flock problem."""

import math

import pytest

from repro.baselines.flocks import discover_flocks
from repro.core.cmc import cmc
from repro.core.convoy import Convoy
from repro.core.verification import normalize_convoys
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def db_of(*specs):
    return TrajectoryDatabase(Trajectory(oid, pts) for oid, pts in specs)


class TestDiscoverFlocks:
    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            discover_flocks(TrajectoryDatabase(), 2, 2, 0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_non_finite_radius_by_name(self, radius):
        db = db_of(("a", [(0.0, 0.0, 0), (1.0, 0.0, 1)]))
        with pytest.raises(ValueError, match="radius must be positive"):
            discover_flocks(db, 2, 2, radius)

    def test_empty_database(self):
        assert discover_flocks(TrajectoryDatabase(), 2, 2, 1.0) == []

    @pytest.mark.parametrize("name, m, k", [
        ("m", 0, 2), ("m", 2.5, 2), ("k", 2, 0), ("k", 2, True),
    ])
    def test_bad_counts_refused_on_an_empty_database(self, name, m, k):
        """Regression: an empty database answered ``[]`` before the
        counts were looked at."""
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            discover_flocks(TrajectoryDatabase(), m, k, 1.0)

    def test_tight_group_found(self):
        db = db_of(
            ("a", [(t, 0.0, t) for t in range(8)]),
            ("b", [(t, 0.5, t) for t in range(8)]),
            ("c", [(t, 1.0, t) for t in range(8)]),
        )
        flocks = discover_flocks(db, 3, 5, 1.5)
        assert Convoy(["a", "b", "c"], 0, 7) in flocks

    def test_scattered_objects_no_flock(self):
        db = db_of(
            ("a", [(t, 0, t) for t in range(8)]),
            ("b", [(t, 100, t) for t in range(8)]),
        )
        assert discover_flocks(db, 2, 3, 1.0) == []


class TestLossyFlockProblem:
    def _linear_group_db(self):
        """Figure 1's configuration: four objects in a moving line with
        spacing 1.0; a disc of radius 1.2 centred on any member misses at
        least one end of the line, but the whole line is density-connected
        at e = 1.2."""
        return db_of(
            ("o1", [(t, 0.0, t) for t in range(10)]),
            ("o2", [(t, 1.0, t) for t in range(10)]),
            ("o3", [(t, 2.0, t) for t in range(10)]),
            ("o4", [(t, 3.0, t) for t in range(10)]),
        )

    def test_disc_loses_o4(self):
        db = self._linear_group_db()
        flocks = discover_flocks(db, 3, 5, 1.2)
        # Flocks of 3 exist, but no disc of radius 1.2 covers all four.
        assert any(f.size == 3 for f in flocks)
        assert not any(f.size == 4 for f in flocks)

    def test_convoy_keeps_the_whole_group(self):
        db = self._linear_group_db()
        convoys = normalize_convoys(cmc(db, 3, 5, 1.2))
        assert Convoy(["o1", "o2", "o3", "o4"], 0, 9) in convoys

    def test_oversized_disc_merges_groups(self):
        """The other failure mode: a disc big enough for one linear group
        swallows a second, separate group."""
        db = db_of(
            ("a1", [(t, 0.0, t) for t in range(10)]),
            ("a2", [(t, 1.0, t) for t in range(10)]),
            ("b1", [(t, 6.0, t) for t in range(10)]),
            ("b2", [(t, 7.0, t) for t in range(10)]),
        )
        flocks = discover_flocks(db, 2, 5, 7.5)
        merged = [f for f in flocks if f.size == 4]
        assert merged  # the disc cannot separate the two pairs
        # Density clustering with a sane e keeps them apart.
        convoys = normalize_convoys(cmc(db, 2, 5, 1.5))
        assert {frozenset(c.objects) for c in convoys} == {
            frozenset({"a1", "a2"}),
            frozenset({"b1", "b2"}),
        }
