"""Tests for convoy planting and ground-truth records."""

import random

import pytest

from repro.core.cmc import cmc
from repro.core.convoy import Convoy
from repro.core.verification import normalize_convoys
from repro.datasets.planting import PlantedConvoy, plant_convoy_group
from repro.trajectory.database import TrajectoryDatabase
from tests.oracle import snapshot


class TestPlantedConvoy:
    def test_lifetime(self):
        planted = PlantedConvoy(frozenset({"a"}), 5, 14)
        assert planted.lifetime == 10

    def test_is_covered_by(self):
        planted = PlantedConvoy(frozenset({"a", "b"}), 5, 10)
        assert planted.is_covered_by([Convoy(["a", "b", "c"], 4, 11)])
        assert not planted.is_covered_by([Convoy(["a", "b"], 6, 11)])
        assert not planted.is_covered_by([Convoy(["a", "c"], 0, 20)])

    def test_is_detected_by_tolerates_clipping(self):
        planted = PlantedConvoy(frozenset({"a", "b", "c"}), 10, 19)
        clipped = Convoy(["a", "b", "c"], 12, 19)  # 8/10 overlap
        assert planted.is_detected_by([clipped], min_members=3)
        assert not planted.is_detected_by(
            [Convoy(["a", "b", "c"], 17, 19)], min_members=3
        )


class TestPlantConvoyGroup:
    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            plant_convoy_group(
                random.Random(0), ["a"], 10, 5, eps=4.0, area=100.0, speed=2.0
            )

    def test_ground_truth_record(self):
        rng = random.Random(1)
        trajectories, planted = plant_convoy_group(
            rng, ["a", "b", "c"], 10, 25, eps=4.0, area=200.0, speed=2.0
        )
        assert planted.objects == frozenset({"a", "b", "c"})
        assert planted.t_start == 10 and planted.t_end == 25
        assert len(trajectories) == 3

    def test_members_tight_in_core_interval(self):
        rng = random.Random(2)
        eps = 4.0
        trajectories, planted = plant_convoy_group(
            rng, ["a", "b", "c"], 10, 25, eps=eps, area=200.0, speed=2.0
        )
        db = TrajectoryDatabase(trajectories)
        for t in range(planted.t_start, planted.t_end + 1):
            snap = snapshot(db, t)
            xs = [p[0] for p in snap.values()]
            ys = [p[1] for p in snap.values()]
            assert max(xs) - min(xs) <= eps
            assert max(ys) - min(ys) <= eps

    def test_members_disperse_outside(self):
        rng = random.Random(3)
        eps = 4.0
        trajectories, planted = plant_convoy_group(
            rng, ["a", "b", "c"], 30, 45, eps=eps, area=300.0, speed=2.0,
            ramp=10,
        )
        db = TrajectoryDatabase(trajectories)
        snap = snapshot(db, db.min_time)
        xs = [p[0] for p in snap.values()]
        ys = [p[1] for p in snap.values()]
        # Fully dispersed at the trajectory start (one full ramp away).
        assert max(max(xs) - min(xs), max(ys) - min(ys)) > 2 * eps

    @pytest.mark.parametrize("seed", range(5))
    def test_cmc_discovers_planted_convoy(self, seed):
        """Noise-free planting: the exact algorithm must cover the planted
        convoy strictly."""
        rng = random.Random(seed)
        eps = 5.0
        trajectories, planted = plant_convoy_group(
            rng, ["a", "b", "c", "d"], 20, 39, eps=eps, area=400.0, speed=3.0
        )
        db = TrajectoryDatabase(trajectories)
        convoys = normalize_convoys(cmc(db, 3, 10, eps))
        assert planted.is_covered_by(convoys), convoys
