"""Tests shared across DP, DP+, and DP* — the soundness invariants every
simplifier must satisfy for the Lemma 1-3 bounds to hold."""

import math
import random

import pytest

from repro.geometry.distance import point_segment_distance
from repro.simplification import (
    SIMPLIFIERS,
    douglas_peucker,
    douglas_peucker_plus,
    douglas_peucker_star,
)
from repro.trajectory.trajectory import Trajectory
from tests.filter_reference import chords, chords_covering, segment_location_at

ALL = [douglas_peucker, douglas_peucker_plus, douglas_peucker_star]
IDS = ["dp", "dp+", "dp*"]


def random_trajectory(rng, n, step=4.0):
    x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
    points = []
    t = 0
    for _ in range(n):
        points.append((x, y, t))
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        t += rng.randint(1, 3)  # irregular sampling
    return Trajectory("o", points)


def deviation_of(simplifier, original_point, chord):
    """The deviation measure the simplifier promises to bound."""
    start, end, t_start, t_end, _tolerance = chord
    if simplifier is douglas_peucker_star:
        proj = segment_location_at(start, end, t_start, t_end, original_point.t)
        return math.hypot(
            original_point.x - proj[0], original_point.y - proj[1]
        )
    return point_segment_distance(original_point.xy, start, end)


@pytest.mark.parametrize("simplifier", ALL, ids=IDS)
class TestSoundness:
    def test_keeps_endpoints(self, simplifier):
        tr = random_trajectory(random.Random(0), 30)
        simplified = simplifier(tr, 5.0)
        assert simplified.points[0] == tr[0]
        assert simplified.points[-1] == tr[-1]

    def test_kept_points_are_original_samples(self, simplifier):
        tr = random_trajectory(random.Random(1), 40)
        simplified = simplifier(tr, 3.0)
        original = set(tr)
        for p in simplified.points:
            assert p in original

    def test_actual_tolerance_never_exceeds_delta(self, simplifier):
        rng = random.Random(2)
        for _ in range(20):
            tr = random_trajectory(rng, rng.randint(2, 60))
            delta = rng.uniform(0.1, 10)
            simplified = simplifier(tr, delta)
            for tolerance in simplified.tolerances:
                assert tolerance <= delta + 1e-9

    def test_every_sample_within_actual_tolerance(self, simplifier):
        """Definition 4: δ(l') bounds the deviation of every original
        sample the chord replaced — the invariant Lemmas 1-3 rest on."""
        rng = random.Random(3)
        for _ in range(20):
            tr = random_trajectory(rng, rng.randint(2, 50))
            delta = rng.uniform(0.5, 8)
            simplified = simplifier(tr, delta)
            for point in tr:
                covering = chords_covering(simplified, point.t)
                assert covering, f"no chord covers t={point.t}"
                assert any(
                    deviation_of(simplifier, point, chord) <= chord[4] + 1e-9
                    for chord in covering
                )

    def test_zero_delta_keeps_shape(self, simplifier):
        """δ = 0 may only drop points that are exactly on a chord."""
        rng = random.Random(4)
        tr = random_trajectory(rng, 25)
        simplified = simplifier(tr, 0.0)
        for point in tr:
            assert any(
                deviation_of(simplifier, point, chord) <= 1e-9
                for chord in chords_covering(simplified, point.t)
            )

    def test_single_point_trajectory(self, simplifier):
        tr = Trajectory("o", [(3.0, 4.0, 7)])
        simplified = simplifier(tr, 1.0)
        assert len(simplified) == 1
        assert chords(simplified) == [((3.0, 4.0), (3.0, 4.0), 7, 7, 0.0)]
        assert simplified.tolerances == (0.0,)

    def test_two_point_trajectory(self, simplifier):
        tr = Trajectory("o", [(0, 0, 0), (5, 5, 3)])
        simplified = simplifier(tr, 1.0)
        assert len(simplified) == 2
        assert simplified.tolerances == (0.0,)

    def test_collinear_collapses_to_one_segment(self, simplifier):
        tr = Trajectory("o", [(float(i), 0.0, i) for i in range(10)])
        simplified = simplifier(tr, 0.5)
        assert len(chords(simplified)) == 1
        assert (len(simplified), simplified.original_size) == (2, 10)

    def test_segments_are_time_contiguous(self, simplifier):
        tr = random_trajectory(random.Random(5), 40)
        kept = chords(simplifier(tr, 4.0))
        for prev, cur in zip(kept, kept[1:]):
            assert prev[3] == cur[2]

    def test_negative_delta_rejected(self, simplifier):
        tr = Trajectory("o", [(0, 0, 0), (1, 1, 1)])
        with pytest.raises(ValueError):
            simplifier(tr, -0.1)

    def test_huge_delta_keeps_only_endpoints(self, simplifier):
        tr = random_trajectory(random.Random(6), 30)
        simplified = simplifier(tr, 1e9)
        assert len(simplified) == 2


class TestRelativeBehaviour:
    """The comparative properties of Section 6.1/6.2 and Figure 15."""

    def _reductions(self, seed, delta):
        rng = random.Random(seed)
        tr = random_trajectory(rng, 200)
        return {
            name: simplifier(tr, delta)
            for name, simplifier in SIMPLIFIERS.items()
        }

    def test_dp_reduces_at_least_as_much_as_dp_star(self):
        """DP* measures a deviation that is >= DP's for the same chord, so
        DP* keeps at least as many points (Figure 15(a))."""
        for seed in range(8):
            results = self._reductions(seed, delta=5.0)
            assert len(results["dp*"]) >= len(results["dp"])

    def test_dp_plus_tends_to_keep_more_points_than_dp(self):
        """DP+'s balanced splits sacrifice reduction power (Section 6.1);
        aggregated over trials it keeps at least as many points."""
        kept_dp = kept_plus = 0
        for seed in range(8):
            results = self._reductions(seed, delta=5.0)
            kept_dp += len(results["dp"])
            kept_plus += len(results["dp+"])
        assert kept_plus >= kept_dp

    def test_larger_delta_never_keeps_more_points(self):
        rng = random.Random(30)
        tr = random_trajectory(rng, 150)
        for simplifier in ALL:
            small = simplifier(tr, 1.0)
            large = simplifier(tr, 6.0)
            assert len(large) <= len(small)

    def test_dp_star_time_ratio_example(self):
        """Figure 3: a point spatially on the chord but temporally displaced
        is kept by DP* and dropped by DP."""
        # Object sits near the start for a long time, then jumps: the
        # middle sample lies exactly on the chord's line (DP drops it) but
        # far from the chord's time-ratio location (DP* keeps it).
        tr = Trajectory("o", [(0, 0, 0), (1, 0, 9), (10, 0, 10)])
        dp_result = douglas_peucker(tr, 0.5)
        star_result = douglas_peucker_star(tr, 0.5)
        assert len(dp_result) == 2
        assert len(star_result) == 3
