"""Failure-injection tests: malformed and adversarial inputs must fail
loudly at the API boundary (or be handled), never corrupt query answers."""

import math

import pytest

from repro import (
    Trajectory,
    TrajectoryDatabase,
    cmc,
    cuts,
    normalize_convoys,
)
from repro.core.convoy import Convoy
from repro.core.verification import is_valid_convoy


def db_of(*specs):
    return TrajectoryDatabase(Trajectory(oid, pts) for oid, pts in specs)


class TestMalformedTrajectories:
    def test_nan_coordinates_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Trajectory("o", [(math.nan, 0, 0), (1, 1, 1)])

    def test_inf_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Trajectory("o", [(math.inf, 0, 0)])

    def test_fractional_time_rejected(self):
        with pytest.raises(ValueError):
            Trajectory("o", [(0, 0, 0.5)])

    def test_boolean_time_rejected(self):
        # bools are ints in Python, but a True tick is a bug, not time 1.
        with pytest.raises(ValueError, match=r"'o'.*False"):
            Trajectory("o", [(0, 0, False), (1, 1, True)])


class TestDegenerateDatabases:
    def test_all_single_point_trajectories(self):
        db = db_of(
            ("a", [(0, 0, 5)]),
            ("b", [(0.5, 0, 5)]),
            ("c", [(1.0, 0, 5)]),
        )
        # A convoy of lifetime 1 exists at t=5 with k=1.
        convoys = cmc(db, 3, 1, 2.0)
        assert convoys == [Convoy(["a", "b", "c"], 5, 5)]
        result = cuts(db, 3, 1, 2.0, delta=0.1, lam=1)
        assert result.convoys == convoys

    def test_stationary_objects(self):
        db = db_of(
            ("a", [(0, 0, t) for t in range(10)]),
            ("b", [(0.5, 0, t) for t in range(10)]),
        )
        convoys = cmc(db, 2, 5, 1.0)
        assert convoys == [Convoy(["a", "b"], 0, 9)]
        result = cuts(db, 2, 5, 1.0, variant="cuts*")
        assert result.convoys == convoys

    def test_identical_locations_all_objects(self):
        db = db_of(
            *(
                (f"o{i}", [(3.0, 4.0, t) for t in range(6)])
                for i in range(5)
            )
        )
        convoys = cmc(db, 5, 6, 0.5)
        assert len(convoys) == 1 and convoys[0].size == 5

    def test_huge_coordinates(self):
        base = 1e12
        db = db_of(
            ("a", [(base + t, base, t) for t in range(8)]),
            ("b", [(base + t, base + 1, t) for t in range(8)]),
        )
        convoys = cmc(db, 2, 4, 2.0)
        assert convoys == [Convoy(["a", "b"], 0, 7)]

    def test_negative_coordinates_and_times(self):
        db = db_of(
            ("a", [(-100 + t, -50, t) for t in range(-5, 5)]),
            ("b", [(-100 + t, -49, t) for t in range(-5, 5)]),
        )
        convoys = cmc(db, 2, 5, 2.0)
        assert convoys == [Convoy(["a", "b"], -5, 4)]
        result = cuts(db, 2, 5, 2.0, variant="cuts+")
        assert result.convoys == convoys

    def test_single_object_database(self):
        db = db_of(("a", [(t, 0, t) for t in range(10)]))
        assert cmc(db, 2, 3, 1.0) == []
        assert cuts(db, 2, 3, 1.0).convoys == []

    def test_m_one_every_object_is_a_convoy(self):
        db = db_of(
            ("a", [(0, 0, t) for t in range(5)]),
            ("b", [(100, 0, t) for t in range(5)]),
        )
        convoys = normalize_convoys(cmc(db, 1, 5, 1.0))
        assert len(convoys) == 2

    def test_k_longer_than_domain(self):
        db = db_of(
            ("a", [(0, 0, t) for t in range(5)]),
            ("b", [(0, 1, t) for t in range(5)]),
        )
        assert cmc(db, 2, 100, 2.0) == []
        assert cuts(db, 2, 100, 2.0, delta=0.1, lam=2).convoys == []


class TestAdversarialParameters:
    def test_tiny_eps(self):
        db = db_of(
            ("a", [(0, 0, t) for t in range(6)]),
            ("b", [(0, 0.5, t) for t in range(6)]),
        )
        assert cmc(db, 2, 3, 1e-9) == []

    def test_huge_eps_groups_everything(self):
        db = db_of(
            ("a", [(0, 0, t) for t in range(6)]),
            ("b", [(500, 0, t) for t in range(6)]),
        )
        convoys = cmc(db, 2, 6, 1e6)
        assert convoys == [Convoy(["a", "b"], 0, 5)]

    def test_zero_delta_cuts_still_exact(self):
        db = db_of(
            ("a", [(t, 0, t) for t in range(8)]),
            ("b", [(t, 1, t) for t in range(8)]),
        )
        exact = cmc(db, 2, 4, 2.0)
        result = cuts(db, 2, 4, 2.0, delta=0.0, lam=3)
        assert result.convoys == exact

    def test_lambda_exceeding_domain(self):
        db = db_of(
            ("a", [(t, 0, t) for t in range(8)]),
            ("b", [(t, 1, t) for t in range(8)]),
        )
        exact = cmc(db, 2, 4, 2.0)
        result = cuts(db, 2, 4, 2.0, delta=0.5, lam=10_000)
        assert result.convoys == exact

    def test_results_remain_valid_under_stress(self):
        import random

        rng = random.Random(99)
        trajs = []
        for i in range(8):
            pts = []
            x = y = 0.0
            # Extreme teleporting movement.
            for t in range(15):
                x += rng.uniform(-500, 500)
                y += rng.uniform(-500, 500)
                pts.append((x, y, t))
            trajs.append(Trajectory(f"o{i}", pts))
        db = TrajectoryDatabase(trajs)
        result = cuts(db, 2, 2, 50.0, variant="cuts*")
        for convoy in result.convoys:
            assert is_valid_convoy(db, convoy, 2, 2, 50.0)
