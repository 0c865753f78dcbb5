"""Tests for the segment-level ε-adjacency join of the CuTS filter.

The inlined kernels must agree with the readable reference ω
(:func:`tests.filter_reference.omega`), and in every window the join must
link exactly the object pairs the window-by-window reference links:
``omega <= e`` over the partition polylines of
:func:`tests.filter_reference.partition_polylines`.
"""

import itertools
import random

import pytest

from repro.clustering.spatial_join import (
    _cpa_within,
    _dll_within,
    _segments_cross,
    segment_records,
    window_links,
)
from repro.core.cuts import VARIANTS
from repro.core.partition import TimePartitioner
from repro.simplification import SIMPLIFIERS, SimplifiedTrajectory
from repro.trajectory.trajectory import Trajectory
from tests.filter_reference import (
    _segments_intersect,
    chords,
    omega,
    partition_polylines,
)
from tests.oracle import tie_eps

MODES = ("dll", "cpa")
KERNELS = {"dll": _dll_within, "cpa": _cpa_within}


def simplified(object_id, samples, tolerances=None, delta=0.0):
    """A simplified trajectory keeping all of ``samples`` (``(x, y, t)``
    triples in time order)."""
    if tolerances is None:
        tolerances = (0.0,) * max(len(samples) - 1, 1)
    return SimplifiedTrajectory(
        Trajectory(object_id, samples), list(range(len(samples))),
        tolerances, delta,
    )


def random_simplified(rng, object_id, t_start, t_hi, max_duration,
                      step=8.0, tol_max=2.0, lone_share=0.0):
    """A random walk kept every 1..max_duration ticks, or a lone point."""
    x, y = rng.uniform(0, 40), rng.uniform(0, 40)
    samples = [(x, y, t_start)]
    t = t_start
    if rng.random() >= lone_share:
        while True:
            t += rng.randint(1, max_duration)
            if t > t_hi:
                break
            x += rng.uniform(-step, step)
            y += rng.uniform(-step, step)
            samples.append((x, y, t))
    tolerances = [rng.uniform(0, tol_max)
                  for _ in range(max(len(samples) - 1, 1))]
    return simplified(object_id, samples, tolerances, delta=tol_max)


def joined(simplified_list, t_lo, t_hi, lam, eps, mode, use_lemma2=True,
           use_actual_tolerance=True, stats=None):
    """Per window: the linked object-id pairs and the objects present."""
    entering, present = segment_records(
        simplified_list, t_lo, t_hi, lam, eps, mode=mode,
        use_actual_tolerance=use_actual_tolerance,
    )
    ids = [s.object_id for s in simplified_list]
    windows = []
    for pairs, members in zip(
        window_links(entering, eps, mode, use_lemma2, stats), present
    ):
        links = [frozenset((ids[a], ids[b]))
                 for a, b in zip(pairs[::2], pairs[1::2])]
        assert len(links) == len(set(links)), "a pair linked twice in a window"
        windows.append((set(links), [ids[owner] for owner in members]))
    return windows


def reference(simplified_list, t_lo, t_hi, lam, eps, mode,
              use_actual_tolerance=True):
    """The same per-window answer from partition polylines and ``omega``."""
    windows = []
    for lo, hi in TimePartitioner(t_lo, t_hi, lam):
        polylines = partition_polylines(
            simplified_list, lo, hi, use_actual_tolerance
        )
        links = {
            frozenset((p, q))
            for (p, chords_p), (q, chords_q)
            in itertools.combinations(polylines, 2)
            if omega(chords_p, chords_q, mode) <= eps
        }
        windows.append((links, [object_id for object_id, _ in polylines]))
    return windows


def linked(a, b, eps, mode, **kwargs):
    """True if the join links objects ``a`` and ``b`` in a single window."""
    t_lo = min(a.t_start, b.t_start)
    t_hi = max(a.t_end, b.t_end)
    [(links, _members)] = joined(
        [a, b], t_lo, t_hi, t_hi - t_lo + 1, eps, mode, **kwargs
    )
    return bool(links)


class TestKernelsMatchOmega:
    @pytest.mark.parametrize("mode", MODES)
    def test_kernel_on_random_segment_pairs(self, mode):
        """The kernel at bound ``e + δa + δb`` against ``ω <= e`` on single
        time-overlapping segments."""
        rng = random.Random(100 if mode == "dll" else 200)
        kernel = KERNELS[mode]
        for _ in range(400):
            pair = []
            for name in "ab":
                t1 = rng.randint(0, 4)
                t2 = t1 + rng.randint(1, 5)
                pair.append(simplified(
                    name,
                    [(rng.uniform(-20, 20), rng.uniform(-20, 20), t1),
                     (rng.uniform(-20, 20), rng.uniform(-20, 20), t2)],
                    [rng.uniform(0, 3)],
                ))
            eps = rng.uniform(0.5, 30)
            [[ra, rb]] = segment_records(pair, 0, 9, 10, eps, mode)[0]
            if max(ra[4], rb[4]) > min(ra[5], rb[5]):
                continue
            [(_, chords_a), (_, chords_b)] = partition_polylines(pair, 0, 9)
            want = omega(chords_a, chords_b, mode)
            got = kernel(ra, rb, eps + ra[6] + rb[6])
            assert got == (want <= eps), (mode, eps, want)

    @pytest.mark.parametrize("mode", MODES)
    def test_join_on_random_polylines(self, mode):
        rng = random.Random(300 if mode == "dll" else 400)
        for _ in range(300):
            a = random_simplified(rng, "a", rng.randint(0, 3), 14, 4, step=5.0)
            b = random_simplified(rng, "b", rng.randint(0, 3), 14, 4, step=5.0)
            eps = rng.uniform(0.5, 30)
            [(_, chords_a), (_, chords_b)] = partition_polylines([a, b], 0, 14)
            expected = omega(chords_a, chords_b, mode) <= eps
            assert linked(a, b, eps, mode) == expected
            assert linked(a, b, eps, mode, use_lemma2=False) == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_temporally_disjoint_never_linked(self, mode):
        a = simplified("a", [(0, 0, 0), (1, 0, 5)])
        b = simplified("b", [(0, 0, 6), (1, 0, 9)])
        assert not linked(a, b, 1000.0, mode)
        assert not linked(a, b, 1000.0, mode, use_lemma2=False)

    @pytest.mark.parametrize("mode", MODES)
    def test_tolerances_loosen_the_test(self, mode):
        # Segments 10 apart; eps 5 fails without tolerances, passes when
        # each side carries tolerance 3 (bound = 5 + 3 + 3 = 11 >= 10).
        tight_a = simplified("a", [(0, 0, 0), (1, 0, 5)])
        tight_b = simplified("b", [(0, 10, 0), (1, 10, 5)])
        loose_a = simplified("a", [(0, 0, 0), (1, 0, 5)], [3.0])
        loose_b = simplified("b", [(0, 10, 0), (1, 10, 5)], [3.0])
        assert not linked(tight_a, tight_b, 5.0, mode)
        assert linked(loose_a, loose_b, 5.0, mode)
        assert not linked(loose_a, loose_b, 5.0, mode,
                          use_actual_tolerance=False)


class TestSegmentsCrossDegenerateCases:
    """The inlined crossing test against the geometry reference on the
    inputs random floats never produce: exact collinearity, endpoints
    lying on the other segment, and zero-length segments.  (Inside the
    DLL kernel such touches are already caught by the endpoint
    distances, so only a direct check reaches these branches.)"""

    @pytest.mark.parametrize("ab, cd, expected", [
        (((0, 0), (4, 0)), ((2, 0), (6, 0)), True),
        (((0, 0), (4, 0)), ((5, 0), (6, 0)), False),
        (((0, 0), (4, 0)), ((4, 0), (6, 0)), True),
        (((0, 0), (0, 4)), ((0, 1), (0, 2)), True),
        (((0, 0), (4, 0)), ((2, 0), (2, 3)), True),
        (((0, 0), (4, 0)), ((2, 3), (2, 0)), True),
        (((0, 0), (4, 0)), ((5, 0), (5, 3)), False),
        (((0, 0), (4, 4)), ((1, 3), (3, 1)), True),
        (((0, 0), (4, 0)), ((0, 1), (4, 1)), False),
        (((2, 0), (2, 0)), ((0, 0), (4, 0)), True),
        (((6, 0), (6, 0)), ((0, 0), (4, 0)), False),
        (((1, 1), (1, 1)), ((1, 1), (1, 1)), True),
    ], ids=[
        "collinear-overlap", "collinear-gap", "collinear-shared-endpoint",
        "collinear-vertical-containment", "c-on-ab", "d-on-ab",
        "touch-line-beyond-segment", "proper-cross", "parallel-apart",
        "point-on-segment", "point-on-line-beyond-segment",
        "coincident-points",
    ])
    def test_matches_the_reference(self, ab, cd, expected):
        (a, b), (c, d) = ab, cd
        for p, q, r, s in [(a, b, c, d), (b, a, c, d), (c, d, a, b),
                           (d, c, b, a)]:
            assert _segments_intersect(p, q, r, s) is expected
            assert _segments_cross(*p, *q, *r, *s) is expected


class TestJoinMatchesReference:
    """Window by window, on databases whose segments mostly outlast λ, so
    most records straddle windows and most pairs are settled in one
    window and applied to later ones."""

    @pytest.mark.parametrize("use_actual_tolerance", [True, False],
                             ids=["actual-tol", "global-tol"])
    @pytest.mark.parametrize("use_lemma2", [True, False],
                             ids=["sweep", "all-pairs"])
    @pytest.mark.parametrize("mode", MODES)
    def test_random_databases(self, mode, use_lemma2, use_actual_tolerance):
        rng = random.Random(f"{mode}/{use_lemma2}/{use_actual_tolerance}")
        for trial in range(40):
            t_hi = rng.randint(10, 30)
            database = [
                random_simplified(
                    rng, f"o{i}", rng.randint(0, t_hi // 2), t_hi,
                    max_duration=9, lone_share=0.2,
                )
                for i in range(rng.randint(2, 12))
            ]
            t_lo = rng.choice([0, 0, rng.randint(1, 4)])
            lam = rng.randint(1, 3)
            eps = rng.uniform(1.0, 6.0)
            got = joined(database, t_lo, t_hi, lam, eps, mode,
                         use_lemma2=use_lemma2,
                         use_actual_tolerance=use_actual_tolerance)
            want = reference(database, t_lo, t_hi, lam, eps, mode,
                             use_actual_tolerance=use_actual_tolerance)
            assert got == want, f"trial {trial}"

    @pytest.mark.parametrize("mode", MODES)
    def test_long_segment_links_every_window_it_shares(self, mode):
        """Two parallel segments over t=0..9 with λ=2: one settled pair
        links all five windows; a third object that joins at t=6 is
        linked only where it is present."""
        a = simplified("a", [(0, 0, 0), (9, 0, 9)])
        b = simplified("b", [(0, 1, 0), (9, 1, 9)])
        c = simplified("c", [(6, 1, 6), (9, 1, 9)])
        stats = {}
        got = joined([a, b, c], 0, 9, 2, 1.5, mode, stats=stats)
        ab, bc, ac = (frozenset(p) for p in ("ab", "bc", "ac"))
        assert [links for links, _ in got] == [
            {ab}, {ab}, {ab}, {ab, bc, ac}, {ab, bc, ac}
        ]
        assert [members for _, members in got] == [
            ["a", "b"], ["a", "b"], ["a", "b"], ["a", "b", "c"],
            ["a", "b", "c"],
        ]
        assert got == reference([a, b, c], 0, 9, 2, 1.5, mode)
        assert stats == {"pairs_considered": 3, "pairs_linked": 3}

    @pytest.mark.parametrize("mode", MODES)
    def test_ties_exactly_at_the_bound(self, mode):
        """Exactly representable distances equal to ``e + δa + δb`` link;
        a hair less ``e`` does not."""
        cases = [
            # Parallel segments 6 apart with tolerance 1 each.
            (simplified("a", [(0, 0, 0), (10, 0, 4)], [1.0]),
             simplified("b", [(0, 6, 0), (10, 6, 4)], [1.0]), 4.0),
            # Lone points (zero-duration segments) 5 apart.
            (simplified("a", [(0, 0, 2)]), simplified("b", [(3, 4, 2)]), 5.0),
            # A lone point on top of a moving segment's path at t=2.
            (simplified("a", [(0, 3, 2)], [0.5]),
             simplified("b", [(-4, 0, 0), (4, 0, 4)], [0.5]), 2.0),
        ]
        for a, b, eps in cases:
            assert linked(a, b, eps, mode)
            assert linked(a, b, eps, mode, use_lemma2=False)
            assert not linked(a, b, eps - 1e-9, mode)
            [(_, chords_a), (_, chords_b)] = partition_polylines([a, b], 0, 4)
            assert omega(chords_a, chords_b, mode) == eps

    @pytest.mark.parametrize("mode", MODES)
    def test_sweep_keeps_a_pair_its_rounded_edges_would_part(self, mode):
        """Two lone points whose gap equals ``e + δa + δb`` after rounding.
        The kernel links them, but the unwidened expanded edges round
        apart (``-6.28… + 1.74… < -1.24… - 3.29…``): only the margin
        slack keeps the sweep from dropping the pair."""
        xa = float.fromhex("-0x1.920a3c1b4db49p+2")
        xb = float.fromhex("-0x1.3fbacacf7a4e4p+0")
        ta = float.fromhex("0x1.ef2a4f7c7db80p-3")
        tb = float.fromhex("0x1.ca88dbae2cccep+0")
        eps = 3.0
        assert xa + (0.5 * eps + ta) < xb - (0.5 * eps + tb)
        a = simplified("a", [(xa, 0.0, 0)], [ta])
        b = simplified("b", [(xb, 0.0, 0)], [tb])
        [[ra], [rb]] = [segment_records([s], 0, 0, 1, eps, mode)[0][0]
                        for s in (a, b)]
        assert KERNELS[mode](rb, ra, eps + tb + ta)
        assert linked(a, b, eps, mode)
        assert linked(a, b, eps, mode, use_lemma2=False)


class TestFilterStats:
    def test_linked_never_exceeds_considered(self):
        rng = random.Random(8)
        for use_lemma2 in (True, False):
            database = [random_simplified(rng, f"o{i}", 0, 20, 5)
                        for i in range(10)]
            stats = {}
            joined(database, 0, 20, 2, 5.0, "dll", use_lemma2=use_lemma2,
                   stats=stats)
            assert 0 < stats["pairs_linked"] <= stats["pairs_considered"]

    def test_sweep_prunes_far_pairs(self):
        # Two groups 10,000 apart: the sweep considers only pairs inside
        # a group; the all-pairs configuration considers all 45.
        database = [
            simplified(f"o{i}", [((0.0 if i < 5 else 1e4) + i, 0, 0),
                                 ((0.0 if i < 5 else 1e4) + i, 1, 4)])
            for i in range(10)
        ]
        swept, brute = {}, {}
        joined(database, 0, 4, 2, 5.0, "dll", stats=swept)
        joined(database, 0, 4, 2, 5.0, "dll", use_lemma2=False, stats=brute)
        assert brute["pairs_considered"] == 45
        assert swept["pairs_considered"] == 20

    @pytest.mark.parametrize("mode", MODES)
    def test_unlinked_pair_spanning_windows_is_settled_once(self, mode):
        """Parallel diagonals 4.2 apart over five windows: the boxes
        overlap, the kernel says no, and the pair is tested once, in the
        window both segments enter.  When ``c`` enters window 2 (far off
        in y) the sweep runs again, and ``a`` and ``b`` meet there only
        as carried records, which are not paired again."""
        a = simplified("a", [(0, 0, 0), (9, 9, 9)])
        b = simplified("b", [(6, 0, 0), (15, 9, 9)])
        c = simplified("c", [(-5, 100, 4), (20, 100, 5)])
        stats = {}
        got = joined([a, b, c], 0, 9, 2, 1.0, mode, stats=stats)
        assert got == [
            (set(), ["a", "b"]), (set(), ["a", "b"]),
            (set(), ["a", "b", "c"]), (set(), ["a", "b"]),
            (set(), ["a", "b"]),
        ]
        assert stats == {"pairs_considered": 1, "pairs_linked": 0}

    @pytest.mark.parametrize("mode", MODES)
    def test_all_pairs_settles_each_segment_pair_once(self, mode):
        """Without the box prefilter every time-overlapping segment pair
        of two objects is tested exactly once per query, however many
        windows the two segments share; the sweep tests fewer."""
        rng = random.Random(9)
        database = [random_simplified(rng, f"o{i}", rng.randint(0, 5), 25, 9,
                                      lone_share=0.2)
                    for i in range(8)]
        segments = [
            (owner, chord)
            for owner, s in enumerate(database)
            for chord in chords(s)
        ]
        overlapping = sum(
            1
            for (oa, ca), (ob, cb) in itertools.combinations(segments, 2)
            if oa != ob and max(ca[2], cb[2]) <= min(ca[3], cb[3])
        )
        stats = {}
        joined(database, 0, 25, 2, 3.0, mode, use_lemma2=False, stats=stats)
        assert stats["pairs_considered"] == overlapping
        swept = {}
        joined(database, 0, 25, 2, 3.0, mode, stats=swept)
        assert swept["pairs_considered"] < overlapping


def walk_database(rng, offset):
    """2-6 random walks with missing samples, times shifted by ``offset``."""
    trajectories = []
    for i in range(rng.randint(2, 6)):
        start = rng.randint(0, 6)
        end = start + rng.randint(1, 12)
        x, y = rng.uniform(-60, 60), rng.uniform(-60, 60)
        samples = []
        for t in range(start, end + 1):
            x += rng.uniform(-6, 6)
            y += rng.uniform(-6, 6)
            if t in (start, end) or rng.random() < 0.6:
                samples.append((x, y, t + offset))
        trajectories.append(Trajectory(f"o{i}", samples))
    return trajectories


def tied_walks(rng, offset):
    """Random walks and an eps tied to one pair at one tick they share."""
    while True:
        trajectories = walk_database(rng, offset)
        a, b = rng.sample(trajectories, 2)
        lo = max(a.start_time, b.start_time)
        hi = min(a.end_time, b.end_time)
        if lo <= hi:
            t = rng.randint(lo, hi)
            pa, pb = a.location_at(t), b.location_at(t)
            if pa != pb:
                return trajectories, tie_eps(pa, pb)


def tied_segments(rng, offset):
    """Two 2-sample objects over one interval, eps tied at the closer end.

    The closer end is where the two time-parameterized segments come
    closest whenever their CPA falls outside the interval, so ``D*``
    meets the snapshot distance exactly there.
    """
    t1 = rng.randint(0, 3) + offset
    t2 = t1 + rng.randint(1, 10)
    a, b = (
        Trajectory(name, [
            (rng.uniform(-100, 100), rng.uniform(-100, 100), t1),
            (rng.uniform(-100, 100), rng.uniform(-100, 100), t2),
        ])
        for name in "ab"
    )
    eps = min(tie_eps(a.location_at(t), b.location_at(t)) for t in (t1, t2))
    return [a, b], eps


def unlinked_snapshot_pairs(trajectories, eps, variant, delta, lam,
                            use_lemma2, use_actual_tolerance):
    """Pairs the snapshot predicate accepts at a tick of a window where
    the join did not link them."""
    config = VARIANTS[variant]
    simplify = SIMPLIFIERS[config["simplifier"]]
    simplified = [simplify(trajectory, delta) for trajectory in trajectories]
    t_lo = min(trajectory.start_time for trajectory in trajectories)
    t_hi = max(trajectory.end_time for trajectory in trajectories)
    entering, _present = segment_records(
        simplified, t_lo, t_hi, lam, eps, mode=config["distance_mode"],
        use_actual_tolerance=use_actual_tolerance,
    )
    links = window_links(entering, eps, config["distance_mode"], use_lemma2)
    missed = []
    for (lo, hi), pairs in zip(TimePartitioner(t_lo, t_hi, lam), links):
        linked = {frozenset(pair) for pair in zip(pairs[::2], pairs[1::2])}
        for t in range(lo, hi + 1):
            alive = [
                (owner, trajectory.location_at(t))
                for owner, trajectory in enumerate(trajectories)
                if trajectory.start_time <= t <= trajectory.end_time
            ]
            for (a, pa), (b, pb) in itertools.combinations(alive, 2):
                dx = pb[0] - pa[0]
                dy = pb[1] - pa[1]
                if (dx * dx + dy * dy <= eps * eps
                        and frozenset((a, b)) not in linked):
                    missed.append((t, a, b))
    return missed


class TestLinksHoldEverySnapshotPair:
    """The CuTS refinement evaluates ``e`` on the pairs the join linked in
    a window, and on no others.  So in every window the join must link
    every pair the snapshot predicate ``dx*dx + dy*dy <= e*e`` accepts at
    one of its ticks, ties included, however large the times are."""

    @pytest.mark.parametrize("offset", [0, 10**6], ids=["t0", "t1e6"])
    @pytest.mark.parametrize("use_actual_tolerance", [True, False],
                             ids=["actual-tol", "global-tol"])
    @pytest.mark.parametrize("use_lemma2", [True, False],
                             ids=["sweep", "all-pairs"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_random_databases_and_ties(self, variant, use_lemma2,
                                       use_actual_tolerance, offset):
        rng = random.Random(
            f"{variant}/{use_lemma2}/{use_actual_tolerance}/{offset}"
        )
        for trial in range(150):
            draw = trial % 3
            if draw == 0:
                trajectories = walk_database(rng, offset)
                eps = rng.uniform(2.0, 30.0)
            elif draw == 1:
                trajectories, eps = tied_walks(rng, offset)
            else:
                trajectories, eps = tied_segments(rng, offset)
            delta = rng.choice([0.0, rng.uniform(0.0, eps)])
            lam = rng.randint(1, 4)
            missed = unlinked_snapshot_pairs(
                trajectories, eps, variant, delta, lam, use_lemma2,
                use_actual_tolerance,
            )
            assert not missed, (trial, eps, delta, lam, missed)
