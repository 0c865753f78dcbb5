"""Property tests for Lemmas 1 and 3 — the filter's no-false-dismissal core.

Each lemma is tested in its contrapositive operational form: whenever the
lemma's premise ``dist(l'_q, l'_i) > e + δ(l'_q) + δ(l'_i)`` holds for a
pair of simplified chords, the *original* objects must be farther than
``e`` apart at every shared time point.  The chord distances are the
readable references of :mod:`tests.filter_reference`, which the filter's
join is held to.
"""

import math
import random

from repro.simplification import douglas_peucker, douglas_peucker_star
from repro.trajectory.trajectory import Trajectory
from tests.filter_reference import chord_distance, chords, chords_covering, omega


def random_trajectory(rng, n, step=4.0):
    x, y = rng.uniform(-40, 40), rng.uniform(-40, 40)
    points = []
    t = 0
    for _ in range(n):
        points.append((x, y, t))
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        t += rng.randint(1, 2)
    return Trajectory("o", points)


def shared_times(tr_a, tr_b):
    lo = max(tr_a.start_time, tr_b.start_time)
    hi = min(tr_a.end_time, tr_b.end_time)
    return range(lo, hi + 1)


def chord_covering(simplified, t):
    covering = chords_covering(simplified, t)
    assert covering, f"no chord covers t={t}"
    return covering[0]


def prunes(chord_q, chord_i, eps, mode):
    """The premise of Lemma 1 (``mode="dll"``) or Lemma 3 (``"cpa"``)."""
    return chord_distance(chord_q, chord_i, mode) > eps + chord_q[4] + chord_i[4]


class TestLemma1:
    def test_premise_implies_separation(self):
        rng = random.Random(21)
        checked = 0
        for trial in range(150):
            tr_a = random_trajectory(rng, rng.randint(2, 25))
            tr_b = random_trajectory(rng, rng.randint(2, 25))
            delta = rng.uniform(0.2, 6)
            eps = rng.uniform(0.5, 8)
            sa = douglas_peucker(tr_a, delta)
            sb = douglas_peucker(tr_b, delta)
            for t in shared_times(tr_a, tr_b):
                if prunes(chord_covering(sa, t), chord_covering(sb, t), eps,
                          "dll"):
                    checked += 1
                    assert math.dist(
                        tr_a.location_at(t), tr_b.location_at(t)
                    ) > eps
        assert checked > 50  # the premise must actually fire sometimes

    def test_close_pair_never_pruned(self):
        # Two identical trajectories: distance 0 at every time; the lemma
        # premise must never hold.
        tr = random_trajectory(random.Random(5), 20)
        simplified = douglas_peucker(tr, 2.0)
        for chord in chords(simplified):
            assert not prunes(chord, chord, 1.0, "dll")


class TestLemma3:
    def test_premise_implies_separation(self):
        rng = random.Random(22)
        checked = 0
        for trial in range(150):
            tr_a = random_trajectory(rng, rng.randint(2, 25))
            tr_b = random_trajectory(rng, rng.randint(2, 25))
            delta = rng.uniform(0.2, 6)
            eps = rng.uniform(0.5, 8)
            sa = douglas_peucker_star(tr_a, delta)
            sb = douglas_peucker_star(tr_b, delta)
            for t in shared_times(tr_a, tr_b):
                if prunes(chord_covering(sa, t), chord_covering(sb, t), eps,
                          "cpa"):
                    checked += 1
                    assert math.dist(
                        tr_a.location_at(t), tr_b.location_at(t)
                    ) > eps
        assert checked > 50

    def test_lemma3_at_least_as_sharp_as_lemma1(self):
        """D* >= DLL, so whenever Lemma 1 prunes a DP*-simplified pair,
        Lemma 3 prunes it too."""
        rng = random.Random(23)
        for trial in range(100):
            tr_a = random_trajectory(rng, rng.randint(2, 20))
            tr_b = random_trajectory(rng, rng.randint(2, 20))
            sa = douglas_peucker_star(tr_a, 2.0)
            sb = douglas_peucker_star(tr_b, 2.0)
            eps = rng.uniform(0.5, 8)
            for t in shared_times(tr_a, tr_b):
                chord_a = chord_covering(sa, t)
                chord_b = chord_covering(sb, t)
                if prunes(chord_a, chord_b, eps, "dll"):
                    assert prunes(chord_a, chord_b, eps, "cpa")


class TestOmega:
    def test_omega_lower_bounds_true_distance(self):
        """ω(o'q, o'i) <= min over shared t of D(oq(t), oi(t)) — the
        pruning value never overestimates the true closest approach."""
        rng = random.Random(25)
        for trial in range(60):
            tr_a = random_trajectory(rng, rng.randint(3, 20))
            tr_b = random_trajectory(rng, rng.randint(3, 20))
            times = shared_times(tr_a, tr_b)
            if not times:
                continue
            for simplify, mode in (
                (douglas_peucker, "dll"),
                (douglas_peucker_star, "cpa"),
            ):
                sa = simplify(tr_a, 2.0)
                sb = simplify(tr_b, 2.0)
                w = omega(chords(sa), chords(sb), mode)
                true_min = min(
                    math.dist(tr_a.location_at(t), tr_b.location_at(t))
                    for t in times
                )
                assert w <= true_min + 1e-9

    def test_omega_infinite_for_disjoint_times(self):
        a = Trajectory("a", [(0, 0, 0), (1, 0, 3)])
        b = Trajectory("b", [(0, 0, 10), (1, 0, 13)])
        sa = douglas_peucker(a, 0.5)
        sb = douglas_peucker(b, 0.5)
        assert omega(chords(sa), chords(sb)) == math.inf
