"""Split-tree cuts against the generic engine, bit for bit.

DP and DP* cut a split tree built once per trajectory
(:mod:`repro.simplification.tree`).  The references here run the generic
:class:`Simplifier` engine with a max-deviation split rule, and replay
zero-tolerance DP for δ selection, exactly as the two did before the tree
existed.  δ picks, which the tree caches per prefix of its sorted split
deviations, are held to :func:`largest_gap_choice` over the raw
deviations.
"""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cuts import cuts
from repro.core.params import compute_delta
from repro.geometry.distance import point_segment_distance
from repro.simplification import douglas_peucker, douglas_peucker_star
from repro.simplification.base import Simplifier
from repro.simplification.dp import spatial_chord, spatial_deviation
from repro.simplification.dp_star import time_ratio_chord, time_ratio_deviation
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory
from tests.filter_reference import chords


def max_deviation_split(deviations, lo, hi, delta):
    """Classical DP's split rule: the first farthest offender, if any."""
    best_index = None
    best_dev = delta
    for index, dev in deviations:
        if dev > best_dev:
            best_dev = dev
            best_index = index
    return best_index


def largest_gap_choice(tolerances, cap):
    """Section 7.4's pick, computed from scratch: among the tolerances
    below ``cap``, sorted, the lower end of the first largest gap."""
    eligible = sorted(t for t in tolerances if t < cap)
    if not eligible:
        return None
    if len(eligible) == 1:
        return eligible[0]
    best_gap = -1.0
    best_value = eligible[0]
    for lower, upper in zip(eligible, eligible[1:]):
        gap = upper - lower
        if gap > best_gap:
            best_gap = gap
            best_value = lower
    return best_value


def division_tolerances(trajectory):
    """Zero-tolerance DP replay recording each division's split deviation."""
    times, xs, ys = trajectory.coordinates()
    tolerances = []
    stack = [(0, len(times) - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        best_dev = 0.0
        best_index = None
        a = (xs[lo], ys[lo])
        b = (xs[hi], ys[hi])
        for i in range(lo + 1, hi):
            dev = point_segment_distance((xs[i], ys[i]), a, b)
            if dev > best_dev:
                best_dev = dev
                best_index = i
        if best_index is None or best_dev == 0.0:
            continue
        tolerances.append(best_dev)
        stack.append((lo, best_index))
        stack.append((best_index, hi))
    return tolerances


#: (tree simplifier, its chord function, the engine reference)
PAIRS = {
    "dp": (
        douglas_peucker,
        spatial_chord,
        Simplifier(spatial_deviation, max_deviation_split, "DP reference"),
    ),
    "dp*": (
        douglas_peucker_star,
        time_ratio_chord,
        Simplifier(time_ratio_deviation, max_deviation_split, "DP* ref"),
    ),
}


def bits(simplified):
    """Everything a simplification reports, with floats as exact hex."""
    return (
        simplified.object_id,
        [(p.x.hex(), p.y.hex(), p.t) for p in simplified.points],
        [tol.hex() for tol in simplified.tolerances],
        [
            (start[0].hex(), start[1].hex(), end[0].hex(), end[1].hex(),
             t_start, t_end)
            for start, end, t_start, t_end, _tol in chords(simplified)
        ],
        simplified.delta,
        simplified.original_size,
    )


# Small integer grids make ties, repeated positions and collinear runs
# common; the float branch keeps general positions in the mix.
coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)
samples = st.lists(
    st.tuples(coordinate, coordinate, st.integers(1, 4)),
    min_size=1,
    max_size=30,
)


def trajectory_of(rows, object_id="o"):
    t = 0
    points = []
    for x, y, gap in rows:
        t += gap
        points.append((x, y, t))
    return Trajectory(object_id, points)


def candidate_deltas(rows):
    """δ values equal to the tree's node deviations: the stop test's edge.

    Read off a separate trajectory object so that the cuts under test
    still start from an unexpanded tree.
    """
    probe = trajectory_of(rows)
    found = [0.0]
    for chord in (spatial_chord, time_ratio_chord):
        found.extend(probe.split_tree(chord).split_deviations())
    return found


class TestCutsEqualTheEngine:
    @settings(max_examples=200, deadline=None)
    @given(rows=samples, data=st.data())
    def test_any_delta_sequence_matches_the_reference(self, rows, data):
        """One trajectory object, cut at rising, falling and repeated δ
        (0 and exact node deviations included), equals a fresh engine run
        at every step, for DP and DP* alike."""
        trajectory = trajectory_of(rows)
        exact = candidate_deltas(rows)
        deltas = data.draw(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.sampled_from(exact),
                    st.floats(0, 60, allow_nan=False),
                ),
                min_size=1,
                max_size=8,
            )
        )
        for name in data.draw(st.permutations(sorted(PAIRS))):
            tree_simplifier, _chord, reference = PAIRS[name]
            for delta in deltas:
                got = tree_simplifier(trajectory, delta)
                want = reference(trajectory, delta)
                assert bits(got) == bits(want), (name, delta)

    def test_one_and_two_point_trajectories(self):
        for points in ([(3.0, 4.0, 7)], [(0.0, 0.0, 0), (5.0, 5.0, 3)]):
            trajectory = Trajectory("o", points)
            for name, (tree_simplifier, _chord, reference) in PAIRS.items():
                for delta in (0.0, 1.0, 0.0):
                    got = tree_simplifier(trajectory, delta)
                    assert bits(got) == bits(reference(trajectory, delta))

    def test_truck_like_walks_at_many_deltas(self):
        rng = random.Random(11)
        for _ in range(5):
            x = y = 0.0
            points = []
            for t in range(300):
                x += rng.uniform(-4, 4)
                y += rng.uniform(-4, 4)
                points.append((x, y, t))
            trajectory = Trajectory("o", points)
            for name, (tree_simplifier, _chord, reference) in PAIRS.items():
                for delta in (6.0, 0.5, 12.0, 0.0, 3.0, 3.0):
                    got = tree_simplifier(trajectory, delta)
                    assert bits(got) == bits(reference(trajectory, delta))


    def test_trajectory_longer_than_two_byte_keys(self):
        """Past 65,536 samples the child keys switch to four bytes; split
        indices above 65,535 must survive the round trip."""
        rng = random.Random(4)
        x = y = 0.0
        points = []
        for t in range(70_000):
            x += rng.uniform(-1, 1)
            y += rng.uniform(-1, 1)
            points.append((x, y, t))
        trajectory = Trajectory("o", points)
        tree_simplifier, _chord, reference = PAIRS["dp*"]
        for delta in (60.0, 30.0):
            got = tree_simplifier(trajectory, delta)
            assert max(p.t for p in got.points[:-1]) > 65_535
            assert bits(got) == bits(reference(trajectory, delta))


class TestOnDemandExpansion:
    def counting(self, chord, calls):
        def counted(times, xs, ys, lo, hi):
            calls.append((lo, hi))
            return chord(times, xs, ys, lo, hi)

        return counted

    def test_larger_delta_after_smaller_is_a_pure_walk(self):
        rng = random.Random(5)
        x = y = 0.0
        points = []
        for t in range(200):
            x += rng.uniform(-1, 1)
            y += rng.uniform(-1, 1)
            points.append((x, y, t))
        trajectory = Trajectory("o", points)
        calls = []
        tree = trajectory.split_tree(self.counting(spatial_chord, calls))
        assert len(calls) == 1  # the root, at first use
        tree.cut(1e9)
        assert len(calls) == 1
        tree.cut(2.0)
        expanded = len(calls)
        assert expanded > 1
        for delta in (2.0, 5.0, 1e9, 3.0):
            tree.cut(delta)
        assert len(calls) == expanded
        tree.cut(0.1)
        assert len(calls) > expanded
        # Every chord is computed at most once.
        assert len(set(calls)) == len(calls)

    def test_tree_is_kept_per_measure(self):
        trajectory = Trajectory("o", [(0, 0, 0), (1, 3, 1), (2, 0, 2)])
        dp_tree = trajectory.split_tree(spatial_chord)
        assert trajectory.split_tree(spatial_chord) is dp_tree
        assert trajectory.split_tree(time_ratio_chord) is not dp_tree

    def test_concurrent_cuts_agree_with_the_reference(self):
        """Threads racing to expand one tree never read a child before its
        deviation is written: every cut equals the engine's answer."""
        rng = random.Random(8)
        trajectory = Trajectory(
            "o",
            [(rng.uniform(0, 30), rng.uniform(0, 30), t) for t in range(400)],
        )
        deltas = [0.0, 0.3, 1.0, 2.5, 6.0, 15.0]
        want = {
            (name, delta): bits(PAIRS[name][2](trajectory, delta))
            for name in PAIRS
            for delta in deltas
        }
        failures = []

        def worker(seed):
            order = random.Random(seed)
            for _ in range(20):
                name = order.choice(sorted(PAIRS))
                delta = order.choice(deltas)
                got = bits(PAIRS[name][0](trajectory, delta))
                if got != want[(name, delta)]:
                    failures.append((name, delta))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestDeltaSelection:
    @settings(max_examples=150, deadline=None)
    @given(rows=samples)
    def test_split_deviations_replay_zero_tolerance_dp(self, rows):
        trajectory = trajectory_of(rows)
        deviations = trajectory.split_tree(spatial_chord).split_deviations()
        assert [d.hex() for d in deviations] == [
            d.hex() for d in division_tolerances(trajectory)
        ]

    @staticmethod
    def reference_delta(database, eps, seed=0, cap_fraction=0.5):
        trajectories = list(database)
        rng = random.Random(seed)
        size = min(max(5, int(len(trajectories) * 0.1)), len(trajectories))
        cap = eps * cap_fraction
        picks = []
        for trajectory in rng.sample(trajectories, size):
            choice = largest_gap_choice(division_tolerances(trajectory), cap)
            if choice is not None:
                picks.append(choice)
        return sum(picks) / len(picks) if picks else cap / 2.0

    def test_compute_delta_equals_the_replay(self):
        rng = random.Random(3)
        trajectories = []
        for i in range(60):
            x = y = 0.0
            points = []
            for t in range(rng.randint(1, 80)):
                x += rng.uniform(-3, 3)
                y += rng.choice((0.0, rng.uniform(-3, 3)))
                points.append((x, y, t))
            trajectories.append(Trajectory(f"o{i}", points))
        database = TrajectoryDatabase(trajectories)
        for eps in (0.5, 2.0, 6.0, 2.0):
            for seed in (0, 1):
                got = compute_delta(database, eps, seed=seed)
                want = self.reference_delta(database, eps, seed=seed)
                assert got.hex() == want.hex()


def hex_or_none(value):
    return None if value is None else value.hex()


def cap_edges(deviations):
    """Caps at, one ulp below and one ulp above every deviation, below
    the smallest and above the largest."""
    caps = [0.0]
    for d in deviations:
        caps += [d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)]
    if deviations:
        caps += [min(deviations) / 2, max(deviations) * 2]
    return caps


def zigzag(object_id="z", teeth=6):
    """Equal teeth on a line: DP splits at deviations that repeat."""
    return Trajectory(
        object_id, [(float(t), float(t % 2), t) for t in range(2 * teeth + 1)]
    )


class TestDeltaPicks:
    """The tree's cached pick equals the from-scratch pick at every cap."""

    @settings(max_examples=100, deadline=None)
    @given(rows=samples)
    def test_pick_at_every_cap_edge(self, rows):
        trajectory = trajectory_of(rows)
        tree = trajectory.split_tree(spatial_chord)
        deviations = tree.split_deviations()
        for cap in cap_edges(deviations):
            assert hex_or_none(tree.largest_gap_below(cap)) == hex_or_none(
                largest_gap_choice(deviations, cap)
            ), cap

    def test_duplicate_deviations_pick_the_first_largest_gap(self):
        tree = zigzag().split_tree(spatial_chord)
        deviations = tree.split_deviations()
        assert len(set(deviations)) < len(deviations)
        for cap in cap_edges(deviations):
            assert hex_or_none(tree.largest_gap_below(cap)) == hex_or_none(
                largest_gap_choice(deviations, cap)
            )

    def test_short_and_straight_trajectories_have_no_pick(self):
        for points in ([(3.0, 4.0, 7)], [(0.0, 0.0, 0), (5.0, 5.0, 3)],
                       [(float(t), 0.0, t) for t in range(5)]):
            tree = Trajectory("o", points).split_tree(spatial_chord)
            assert tree.split_deviations() == []
            assert tree.largest_gap_below(10.0) is None

    @staticmethod
    def reference_delta(database, eps, cap_fraction):
        """compute_delta's sample and average over from-scratch picks of
        the raw split deviations."""
        trajectories = list(database)
        rng = random.Random(0)
        size = min(max(5, int(len(trajectories) * 0.1)), len(trajectories))
        cap = eps * cap_fraction
        picks = []
        for trajectory in rng.sample(trajectories, size):
            deviations = trajectory.split_tree(spatial_chord).split_deviations()
            choice = largest_gap_choice(deviations, cap)
            if choice is not None:
                picks.append(choice)
        return sum(picks) / len(picks) if picks else cap / 2.0

    def database(self):
        rng = random.Random(17)
        trajectories = [zigzag("z0"), zigzag("z1", teeth=3)]
        for i in range(10):
            x = y = 0.0
            points = []
            for t in range(rng.randint(1, 50)):
                x += rng.uniform(-3, 3)
                y += rng.choice((0.0, rng.uniform(-3, 3)))
                points.append((x, y, t))
            trajectories.append(Trajectory(f"o{i}", points))
        return TrajectoryDatabase(trajectories)

    @pytest.mark.parametrize("cap_fraction", [0.5, 1.0])
    def test_compute_delta_at_every_cap_edge(self, cap_fraction):
        """Caps at, just below and just above every sampled deviation:
        ``eps = cap / cap_fraction`` makes ``eps * cap_fraction`` the cap
        exactly.  The first call builds the cached picks, the rest reuse
        them."""
        database = self.database()
        deviations = sorted({
            d
            for trajectory in database
            for d in trajectory.split_tree(spatial_chord).split_deviations()
        })
        assert deviations
        for cap in cap_edges(deviations)[1:]:
            eps = cap / cap_fraction
            got = compute_delta(database, eps, cap_fraction=cap_fraction)
            want = self.reference_delta(database, eps, cap_fraction)
            assert got.hex() == want.hex(), cap

    def test_straight_lines_fall_back(self):
        database = TrajectoryDatabase(
            Trajectory(f"o{i}", [(float(t), float(i), t) for t in range(5)])
            for i in range(6)
        )
        for eps in (1.0, 3.0):
            assert compute_delta(database, eps) == eps * 0.5 / 2.0
            assert compute_delta(database, eps) == self.reference_delta(
                database, eps, 0.5
            )


def fields(result):
    """Every CutsResult field except the wall-clock durations."""
    return (
        result.convoys,
        result.candidates,
        result.refinement_unit,
        result.delta,
        result.lam,
        result.simplification,
        result.filter_stats,
    )


class TestRepeatedQueries:
    def database(self):
        rng = random.Random(21)
        trajectories = []
        for i in range(14):
            x, y = rng.uniform(0, 20), rng.uniform(0, 20)
            points = []
            for t in range(40):
                x += rng.uniform(-1.5, 1.5)
                y += rng.uniform(-1.5, 1.5)
                if rng.random() < 0.85 or t in (0, 39):
                    points.append((x, y, t))
            trajectories.append(Trajectory(f"o{i}", points))
        return TrajectoryDatabase(trajectories)

    def test_warm_trees_answer_as_a_fresh_database(self):
        """A second query on one database (trees already cut) and a query
        on a freshly loaded copy report the same fields, filter_stats
        included, for every variant."""
        warm = self.database()
        for variant in ("cuts", "cuts+", "cuts*"):
            for eps in (3.0, 5.0, 3.0):
                first = cuts(warm, 2, 4, eps, variant=variant)
                second = cuts(warm, 2, 4, eps, variant=variant)
                fresh = cuts(self.database(), 2, 4, eps, variant=variant)
                assert fields(first) == fields(second) == fields(fresh)
