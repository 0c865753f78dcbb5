"""Tests for the δ / λ selection guidelines (Section 7.4)."""

import random

import pytest

from repro.core.params import compute_delta, compute_lambda
from repro.simplification import douglas_peucker
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def random_db(seed, n=10, length=60):
    rng = random.Random(seed)
    trajs = []
    for i in range(n):
        pts = []
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        for t in range(length):
            x += rng.uniform(-3, 3)
            y += rng.uniform(-3, 3)
            pts.append((x, y, t))
        trajs.append(Trajectory(f"o{i}", pts))
    return TrajectoryDatabase(trajs)


class TestComputeDelta:
    def test_positive_and_below_cap(self):
        db = random_db(0)
        eps = 8.0
        delta = compute_delta(db, eps)
        assert 0 < delta < eps * 0.5

    def test_published_cap(self):
        db = random_db(0)
        delta = compute_delta(db, 8.0, cap_fraction=1.0)
        assert 0 < delta < 8.0

    def test_deterministic_given_seed(self):
        db = random_db(1)
        assert compute_delta(db, 5.0, seed=3) == compute_delta(db, 5.0, seed=3)

    def test_straight_line_fallback(self):
        db = TrajectoryDatabase(
            [Trajectory("o", [(float(t), 0.0, t) for t in range(20)])]
        )
        # No division tolerance exists; fall back to a fraction of e.
        assert compute_delta(db, 8.0) == pytest.approx(2.0)

    def test_rejects_bad_inputs(self):
        db = random_db(2)
        with pytest.raises(ValueError):
            compute_delta(db, 0.0)
        with pytest.raises(ValueError):
            compute_delta(db, 5.0, cap_fraction=0.0)
        with pytest.raises(ValueError):
            compute_delta(TrajectoryDatabase(), 5.0)

    def test_delta_scales_with_wiggle(self):
        """A wigglier dataset needs (and gets) a larger δ."""
        smooth = TrajectoryDatabase(
            [
                Trajectory(
                    "o",
                    [(float(t), 0.1 * (t % 2), t) for t in range(50)],
                )
            ]
        )
        rough = TrajectoryDatabase(
            [
                Trajectory(
                    "o",
                    [(float(t), 3.0 * (t % 2), t) for t in range(50)],
                )
            ]
        )
        assert compute_delta(rough, 20.0) > compute_delta(smooth, 20.0)


class TestComputeLambda:
    def test_at_least_minimum(self):
        db = random_db(3)
        simplified = [douglas_peucker(tr, 2.0) for tr in db]
        assert compute_lambda(db, simplified) >= 2

    def test_lambda_follows_kept_point_ratio(self):
        """The Section 7.4 formula, as printed, scales λ with |o'|/|o|:
        a *less* reduced dataset yields a larger λ (this is what
        reproduces Table 3's λ=36 for Cattle, where |o'| ≈ 35)."""
        rng = random.Random(4)
        trajs = []
        for i in range(6):
            pts = []
            x = 0.0
            for t in range(80):
                x += rng.uniform(0.5, 1.5)
                pts.append((x, rng.uniform(-4, 4), t))
            trajs.append(Trajectory(f"o{i}", pts))
        # Objects alive for only part of a longer domain, so the formula's
        # (1 - o.tau/T) discount does not vanish.
        trajs.append(Trajectory("pad", [(0, 0, 0), (0, 0, 300)]))
        db = TrajectoryDatabase(trajs)
        rough = [douglas_peucker(tr, 0.2) for tr in db]    # keeps more points
        smooth = [douglas_peucker(tr, 8.0) for tr in db]   # keeps fewer
        assert compute_lambda(db, rough) >= compute_lambda(db, smooth)

    def test_rejects_empty(self):
        db = random_db(5)
        with pytest.raises(ValueError):
            compute_lambda(db, [])

    def test_rejects_mismatched_ids(self):
        db = random_db(6)
        other = random_db(7)
        simplified = [
            douglas_peucker(Trajectory(f"ghost-{tr.object_id}", list(tr)), 2.0)
            for tr in other
        ]
        with pytest.raises(ValueError):
            compute_lambda(db, simplified)

    def test_integer_result(self):
        db = random_db(8)
        simplified = [douglas_peucker(tr, 2.0) for tr in db]
        assert isinstance(compute_lambda(db, simplified), int)
