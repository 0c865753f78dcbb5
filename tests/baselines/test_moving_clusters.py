"""Tests for the MC2 moving-cluster baseline (Section 2.1, Appendix B.1)."""

import math

import pytest

from repro.baselines.moving_clusters import MovingCluster, mc2, mc2_convoy_answers
from repro.core.cmc import cmc
from repro.core.convoy import Convoy
from repro.core.verification import false_negative_rate, normalize_convoys
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def db_of(*specs):
    return TrajectoryDatabase(Trajectory(oid, pts) for oid, pts in specs)


class TestMovingClusterType:
    def test_properties(self):
        mc = MovingCluster(
            (frozenset({"a", "b", "c"}), frozenset({"b", "c", "d"})), 5
        )
        assert mc.t_end == 6
        assert mc.lifetime == 2
        assert mc.common_objects == frozenset({"b", "c"})

    def test_as_convoy(self):
        mc = MovingCluster((frozenset({"a", "b"}), frozenset({"a", "b"})), 0)
        assert mc.as_convoy() == Convoy(["a", "b"], 0, 1)

    def test_as_convoy_empty_common(self):
        mc = MovingCluster((frozenset({"a", "b"}), frozenset({"c", "d"})), 0)
        assert mc.as_convoy() is None


class TestMc2:
    def test_theta_validation(self):
        db = db_of(("a", [(0, 0, 0), (1, 0, 1)]))
        with pytest.raises(ValueError):
            mc2(db, 1.0, 2, 0.0)
        with pytest.raises(ValueError):
            mc2(db, 1.0, 2, 1.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, True, "1"])
    def test_bad_eps_refused_by_name(self, eps):
        """Regression: with fewer objects than ``min_pts`` no snapshot
        was clustered, so a NaN eps answered ``[]``."""
        db = db_of(("a", [(0, 0, 0), (1, 0, 1)]))
        with pytest.raises(ValueError, match="eps must be positive"):
            mc2(db, eps, 2, 0.5)

    @pytest.mark.parametrize("min_pts", [0, 2.5, math.nan, True, "2"])
    def test_bad_min_pts_refused_by_name(self, min_pts):
        """Regression: ``min_pts`` reached only the snapshot clustering,
        so an empty database, or ``min_pts=2.5`` with fewer objects,
        answered ``[]``."""
        for db in (TrajectoryDatabase(), db_of(("a", [(0, 0, 0)]))):
            with pytest.raises(ValueError, match="min_pts must be >= 1"):
                mc2(db, 1.0, min_pts, 0.5)

    def test_stable_group_single_chain(self):
        db = db_of(
            ("a", [(t, 0, t) for t in range(6)]),
            ("b", [(t, 1, t) for t in range(6)]),
        )
        chains = mc2(db, 2.0, 2, 1.0)
        assert len(chains) == 1
        assert chains[0].lifetime == 6
        assert chains[0].common_objects == frozenset({"a", "b"})

    def test_figure2a_convoy_missed_at_theta_one(self):
        """Figure 2(a): o2,o3,o4 convoy for 3 time points, but a fourth
        object joins the snapshot cluster at t=1 only, so with θ=1 the
        chain breaks — a false negative for the convoy query."""
        db = db_of(
            ("o1", [(0, 1, 0), (50, 50, 1), (80, 80, 2)]),   # present in c0 only
            ("o2", [(1, 0, 0), (11, 0, 1), (21, 0, 2)]),
            ("o3", [(1, 1, 0), (11, 1, 1), (21, 1, 2)]),
            ("o4", [(0, 0, 0), (10, 0, 1), (20, 0, 2)]),
        )
        chains = mc2(db, 2.0, 2, 1.0)
        exact = normalize_convoys(cmc(db, 3, 3, 2.0))
        assert Convoy(["o2", "o3", "o4"], 0, 2) in exact
        answers = [c.as_convoy() for c in chains if c.as_convoy()]
        assert false_negative_rate(answers, exact) == 100.0

    def test_low_theta_produces_false_positives(self):
        """A cluster whose membership drifts completely (a -> b -> c)
        chains under θ=0.5 even though no convoy exists."""
        db = db_of(
            ("a", [(0, 0, 0), (1, 0, 1), (100, 100, 2), (120, 120, 3)]),
            ("b", [(0, 1, 0), (1, 1, 1), (2, 1, 2), (130, 0, 3)]),
            ("c", [(40, 0, 0), (1, 2, 1), (2, 2, 2), (3, 2, 3)]),
            ("d", [(50, 0, 0), (60, 0, 1), (2, 3, 2), (3, 3, 3)]),
        )
        chains = mc2(db, 1.5, 2, 0.5)
        longest = max(chains, key=lambda c: c.lifetime)
        # The drifting chain survives multiple steps...
        assert longest.lifetime >= 3
        # ... but the exact convoy answer for k=3 is empty.
        assert cmc(db, 2, 4, 1.5) == []

    def test_no_lifetime_constraint(self):
        """MC2 has no k parameter: 2-step chains are reported."""
        db = db_of(
            ("a", [(0, 0, 0), (1, 0, 1), (100, 0, 2)]),
            ("b", [(0, 1, 0), (1, 1, 1), (200, 0, 2)]),
        )
        answers = mc2_convoy_answers(db, 2.0, 2, 1.0)
        assert Convoy(["a", "b"], 0, 1) in answers

    def test_convoy_answers_drop_empty_common(self):
        db = db_of(
            ("a", [(0, 0, 0), (1, 0, 1)]),
            ("b", [(0, 1, 0), (1, 1, 1)]),
        )
        answers = mc2_convoy_answers(db, 2.0, 2, 0.5)
        assert all(a.objects for a in answers)


class TestFig19Metrics:
    def test_rates_move_with_theta(self):
        """Higher θ fragments chains: false negatives cannot decrease."""
        import random

        rng = random.Random(42)
        trajs = []
        for i in range(12):
            pts = []
            x, y = rng.uniform(0, 40), rng.uniform(0, 40)
            for t in range(30):
                x += rng.uniform(-2, 2)
                y += rng.uniform(-2, 2)
                pts.append((x, y, t))
            trajs.append(Trajectory(f"o{i}", pts))
        # Plus one guaranteed convoy.
        trajs.append(Trajectory("c1", [(t, 100, t) for t in range(30)]))
        trajs.append(Trajectory("c2", [(t, 101, t) for t in range(30)]))
        db = TrajectoryDatabase(trajs)
        m, k, eps = 2, 8, 4.0
        exact = normalize_convoys(cmc(db, m, k, eps))
        assert exact  # the planted convoy is found
        rates = []
        for theta in (0.4, 1.0):
            answers = mc2_convoy_answers(db, eps, m, theta)
            rates.append(false_negative_rate(answers, exact))
        assert rates[0] <= rates[1]
