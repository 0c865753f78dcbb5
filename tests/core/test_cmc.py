"""Tests for the CMC algorithm (Section 4)."""

import math

import pytest

from repro.core.cmc import cmc
from repro.core.convoy import Convoy
from repro.core.verification import is_valid_convoy, normalize_convoys
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def db_of(*specs):
    return TrajectoryDatabase(Trajectory(oid, pts) for oid, pts in specs)


def straight(oid, x0, y0, dx, dy, t0, t1):
    return (oid, [(x0 + dx * (t - t0), y0 + dy * (t - t0), t) for t in range(t0, t1 + 1)])


#: Counts that are not an integer >= 1; NaN and inf used to answer zero
#: convoys and 2.5 used to act as 3.
BAD_COUNTS = pytest.mark.parametrize(
    "bad", [0, -1, math.nan, math.inf, 2.5, True, "3"],
    ids=["zero", "negative", "nan", "inf", "fraction", "bool", "str"],
)


class TestParameterValidation:
    @BAD_COUNTS
    def test_bad_m(self, bad):
        with pytest.raises(ValueError, match="m must be >= 1 and an integer"):
            cmc(db_of(straight("a", 0, 0, 1, 0, 0, 5)), bad, 1, 1.0)

    @BAD_COUNTS
    def test_bad_k(self, bad):
        with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
            cmc(db_of(straight("a", 0, 0, 1, 0, 0, 5)), 1, bad, 1.0)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            cmc(db_of(straight("a", 0, 0, 1, 0, 0, 5)), 1, 1, 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_is_rejected_by_name(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            cmc(db_of(straight("a", 0, 0, 1, 0, 0, 5)), 1, 1, eps)

    def test_reversed_time_range(self):
        with pytest.raises(ValueError):
            cmc(db_of(straight("a", 0, 0, 1, 0, 0, 5)), 1, 1, 1.0, time_range=(5, 2))

    def test_empty_database(self):
        assert cmc(TrajectoryDatabase(), 2, 2, 1.0) == []


class TestBasicDiscovery:
    def test_two_parallel_objects(self):
        db = db_of(
            straight("a", 0, 0, 1, 0, 0, 9),
            straight("b", 0, 1, 1, 0, 0, 9),
        )
        convoys = cmc(db, 2, 5, 2.0)
        assert convoys == [Convoy(["a", "b"], 0, 9)]

    def test_far_objects_no_convoy(self):
        db = db_of(
            straight("a", 0, 0, 1, 0, 0, 9),
            straight("b", 0, 100, 1, 0, 0, 9),
        )
        assert cmc(db, 2, 5, 2.0) == []

    def test_lifetime_threshold(self):
        # Together for exactly 4 time points.
        a = ("a", [(0, 0, t) for t in range(4)] + [(100 + t, 0, t) for t in range(4, 10)])
        b = ("b", [(0, 1, t) for t in range(10)])
        db = db_of(a, b)
        assert cmc(db, 2, 5, 2.0) == []
        found = cmc(db, 2, 4, 2.0)
        assert found == [Convoy(["a", "b"], 0, 3)]

    def test_m_threshold(self):
        db = db_of(
            straight("a", 0, 0, 1, 0, 0, 9),
            straight("b", 0, 1, 1, 0, 0, 9),
        )
        assert cmc(db, 3, 2, 2.0) == []

    def test_density_connected_chain_counts_as_group(self):
        # a-b-c in a line, spacing 1.5, eps 2: pairwise a-c distance is 3
        # > eps but the chain makes them one convoy (the anti-lossy-flock
        # property).
        db = db_of(
            straight("a", 0, 0, 1, 0, 0, 9),
            straight("b", 1.5, 0, 1, 0, 0, 9),
            straight("c", 3.0, 0, 1, 0, 0, 9),
        )
        convoys = cmc(db, 3, 5, 2.0)
        assert convoys == [Convoy(["a", "b", "c"], 0, 9)]

    def test_time_range_restriction(self):
        db = db_of(
            straight("a", 0, 0, 1, 0, 0, 9),
            straight("b", 0, 1, 1, 0, 0, 9),
        )
        convoys = cmc(db, 2, 3, 2.0, time_range=(4, 8))
        assert convoys == [Convoy(["a", "b"], 4, 8)]


class TestIrregularSampling:
    def test_virtual_points_bridge_missing_samples(self):
        # b is sampled only at the ends; linear interpolation keeps it next
        # to a throughout (Section 4's virtual points).
        db = db_of(
            straight("a", 0, 0, 1, 0, 0, 9),
            ("b", [(0, 1, 0), (9, 1, 9)]),
        )
        convoys = cmc(db, 2, 5, 2.0)
        assert convoys == [Convoy(["a", "b"], 0, 9)]

    def test_gap_with_too_few_objects_breaks_convoy(self):
        # b disappears during [4, 5]: the k consecutive time points cannot
        # bridge the gap (this is where Algorithm 1's literal "skip this
        # iteration" would produce a wrong answer).
        a = straight("a", 0, 0, 1, 0, 0, 9)
        b = ("b", [(t, 1, t) for t in range(0, 4)])
        b2 = ("b2", [(t, 1, t) for t in range(6, 10)])
        db = db_of(a, b, b2)
        convoys = normalize_convoys(cmc(db, 2, 3, 2.0))
        assert Convoy(["a", "b"], 0, 3) in convoys
        assert Convoy(["a", "b2"], 6, 9) in convoys
        assert all(c.lifetime <= 4 for c in convoys)

    def test_counters(self):
        db = db_of(
            straight("a", 0, 0, 1, 0, 0, 9),
            ("b", [(0, 1, 0), (9, 1, 9)]),
        )
        counters = {}
        cmc(db, 2, 5, 2.0, counters=counters)
        assert counters["clustering_calls"] == 10
        assert counters["interpolated_points"] == 8  # b at t=1..8


class TestSemantics:
    def test_group_splits_and_reforms_reported_twice(self):
        # a,b together [0,4], apart [5,7], together again [8,12].
        points_a = []
        for t in range(13):
            if 5 <= t <= 7:
                points_a.append((0, 50, t))
            else:
                points_a.append((0, 0, t))
        db = db_of(("a", points_a), ("b", [(1, 0, t) for t in range(13)]))
        convoys = normalize_convoys(cmc(db, 2, 3, 2.0))
        assert Convoy(["a", "b"], 0, 4) in convoys
        assert Convoy(["a", "b"], 8, 12) in convoys

    def test_complete_semantics_reports_grown_group(self):
        # c joins a,b from t=5; the superset convoy [5, 14] must be found.
        db = db_of(
            straight("a", 0, 0, 0, 0, 0, 14),
            straight("b", 1, 0, 0, 0, 0, 14),
            ("c", [(0, 100, t) for t in range(5)] + [(0.5, 1, t) for t in range(5, 15)]),
        )
        convoys = normalize_convoys(cmc(db, 2, 5, 2.0))
        assert Convoy(["a", "b"], 0, 14) in convoys
        assert Convoy(["a", "b", "c"], 5, 14) in convoys

    def test_paper_semantics_misses_grown_group(self):
        db = db_of(
            straight("a", 0, 0, 0, 0, 0, 14),
            straight("b", 1, 0, 0, 0, 0, 14),
            ("c", [(0, 100, t) for t in range(5)] + [(0.5, 1, t) for t in range(5, 15)]),
        )
        convoys = normalize_convoys(cmc(db, 2, 5, 2.0, paper_semantics=True))
        assert Convoy(["a", "b"], 0, 14) in convoys
        assert Convoy(["a", "b", "c"], 5, 14) not in convoys

    def test_every_reported_convoy_is_valid(self):
        import random

        rng = random.Random(12)
        trajs = []
        for i in range(10):
            a = rng.randint(0, 10)
            b = rng.randint(a + 3, 25)
            pts = []
            x, y = rng.uniform(0, 30), rng.uniform(0, 30)
            for t in range(a, b + 1):
                x += rng.uniform(-2, 2)
                y += rng.uniform(-2, 2)
                pts.append((x, y, t))
            trajs.append(Trajectory(f"o{i}", pts))
        db = TrajectoryDatabase(trajs)
        convoys = cmc(db, 2, 3, 5.0)
        for convoy in convoys:
            assert is_valid_convoy(db, convoy, 2, 3, 5.0)
