"""The candidate-match join equals its pairwise reference.

:func:`repro.core.candidates.match_candidates` answers each job either
by probing an owner table (``n - m + 1`` lookups name every cluster that
can share ``m`` objects) or by intersecting pairwise, and falls back to
the pairwise loop on overlapping cluster families.
:func:`~repro.core.candidates.match_candidates_pairwise` is the
reference: every property here holds the join's output — matches,
intersections and their scan order — equal to it.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.candidates as candidates
from repro.core.candidates import (
    CandidateTracker,
    match_candidates,
    match_candidates_pairwise,
)
from repro.streaming import StreamingConvoyMiner, churn_stream


@st.composite
def scans(draw, n_clusters):
    """``None`` (scan everything) or distinct cluster indexes in any order."""
    if n_clusters == 0 or draw(st.booleans()):
        return None
    order = draw(st.permutations(range(n_clusters)))
    return tuple(order[:draw(st.integers(0, n_clusters))])


@st.composite
def match_cases(draw):
    """Members, jobs and m over a small object universe.

    Families are disjoint (the DBSCAN shape, where the join probes) or
    overlapping (where it must fall back); candidate sets range from
    empty and below ``m`` up to the whole universe, and cluster counts
    up to 30 put jobs on both sides of the probe/scan choice.  Object
    ids are ints, strs or both side by side, since the owner table is
    keyed by id.
    """
    ids = draw(st.sampled_from(["int", "str", "mixed"]))
    universe = [
        f"obj{i}" if ids == "str" or (ids == "mixed" and i % 2) else i
        for i in range(draw(st.integers(1, 90)))
    ]
    n_clusters = draw(st.integers(0, 30))
    if draw(st.booleans()):
        members = [
            frozenset(draw(st.sets(st.sampled_from(universe), min_size=1,
                                   max_size=10)))
            for _ in range(n_clusters)
        ]
    else:
        pool = draw(st.permutations(universe))
        members, cursor = [], 0
        for size in draw(st.lists(st.integers(1, 8), max_size=n_clusters)):
            chunk = pool[cursor:cursor + size]
            cursor += size
            if chunk:
                members.append(frozenset(chunk))
    candidate_sets = st.one_of(
        st.sets(st.sampled_from(universe), max_size=16), st.just(set(universe))
    )
    jobs = [
        (pos, frozenset(draw(candidate_sets)), draw(scans(len(members))))
        for pos in range(draw(st.integers(0, 10)))
    ]
    return members, jobs, draw(st.integers(1, 5))


class TestJoinEqualsPairwise:
    @settings(max_examples=400, deadline=None)
    @given(match_cases())
    def test_random_families(self, case):
        members, jobs, m = case
        assert match_candidates(members, jobs, m) == (
            match_candidates_pairwise(members, jobs, m)
        )

    def test_full_population_candidate(self):
        """A candidate holding every object matches each cluster of at
        least m objects with that whole cluster, in scan order."""
        members = [frozenset(range(40)), frozenset(range(40, 45)),
                   frozenset({45})]
        universe = frozenset(range(46))
        jobs = [(0, universe, None), (1, universe, (2, 1, 0))]
        assert match_candidates(members, jobs, 1) == [
            (0, [(0, members[0]), (1, members[1]), (2, members[2])]),
            (1, [(2, members[2]), (1, members[1]), (0, members[0])]),
        ]
        assert match_candidates(members, jobs, 5) == [
            (0, [(0, members[0]), (1, members[1])]),
            (1, [(1, members[1]), (0, members[0])]),
        ]
        # Thirty singletons against m = 10: 21 probes + margin < 30, so
        # the job probes, and no cluster can match.
        singletons = [frozenset({i}) for i in range(30)]
        jobs = [(0, frozenset(range(30)), None)]
        assert 30 - 10 + 1 + candidates._PROBE_MARGIN < len(singletons)
        assert match_candidates(singletons, jobs, 10) == [(0, [])]

    def _probe_counter(self, monkeypatch):
        """Count owner-table builds: one per call that probed."""
        builds = []
        original = candidates._owner_table

        def counting(members):
            builds.append(len(members))
            return original(members)

        monkeypatch.setattr(candidates, "_owner_table", counting)
        return builds

    def test_both_sides_of_the_probe_choice(self, monkeypatch):
        """A job probes exactly when n - m + 1 + margin < fan."""
        builds = self._probe_counter(monkeypatch)
        m = 3
        objects = frozenset({0, 1, 2, 3})  # n - m + 1 = 2 probes
        fan = 2 + candidates._PROBE_MARGIN
        members = [frozenset({10 * i, 10 * i + 1, 10 * i + 2, 10 * i + 3})
                   for i in range(fan + 1)]
        for size, probed in ((fan, 0), (fan + 1, 1)):
            jobs = [(0, objects, tuple(range(size)))]
            assert match_candidates(members, jobs, m) == (
                match_candidates_pairwise(members, jobs, m)
            ) == [(0, [(0, objects)])]
            assert len(builds) == probed
            builds.clear()

    def test_matches_come_back_in_scan_order(self):
        members = [frozenset(range(10 * i, 10 * i + 5)) for i in range(24)]
        objects = frozenset({0, 1, 2, 70, 71, 72, 30, 31, 32})
        # A long scan takes the probe side, a short one the pairwise
        # side; both keep the scan's order.
        long_scan = (7, 5, 13, 3, *range(14, 24), 9, 0, 11, 1, 2, 4, 6, 8)
        assert 7 + candidates._PROBE_MARGIN < len(long_scan)
        jobs = [(4, objects, long_scan), (5, objects, (3, 7, 0)),
                (6, objects, None)]
        out = match_candidates(members, jobs, 3)
        assert out == match_candidates_pairwise(members, jobs, 3)
        assert [[index for index, _common in matches]
                for _pos, matches in out] == [[7, 3, 0], [3, 7, 0], [0, 3, 7]]

    def test_overlapping_family_falls_back(self, monkeypatch):
        builds = self._probe_counter(monkeypatch)
        members = [frozenset(range(i, i + 4)) for i in range(20)]
        jobs = [(0, frozenset({5, 6, 7}), None),
                (1, frozenset({1, 2, 3, 4}), None)]
        assert match_candidates(members, jobs, 3) == (
            match_candidates_pairwise(members, jobs, 3)
        )
        assert builds == [20]  # tried once, found the overlap, stopped

    def test_empty_and_below_m_candidates(self):
        members = [frozenset({i}) | {100 + i, 200 + i} for i in range(20)]
        jobs = [(0, frozenset(), None), (1, frozenset({0, 100}), None),
                (2, frozenset(), ()), (3, frozenset({0}), (0,))]
        assert match_candidates(members, jobs, 3) == [
            (0, []), (1, []), (2, []), (3, []),
        ]
        unscanned = [(pos, objects, None) for pos, objects, _scan in jobs]
        assert match_candidates([], unscanned, 1) == [
            (0, []), (1, []), (2, []), (3, []),
        ]
        assert match_candidates(members, [], 3) == []

    def test_picklable_by_reference(self):
        assert pickle.loads(pickle.dumps(match_candidates)) is (
            match_candidates
        )


class PairwiseTracker(CandidateTracker):
    def _match_live(self, members, jobs):
        return match_candidates_pairwise(members, jobs, self._m)


@pytest.mark.parametrize("clusterer", [None, "incremental"])
def test_tracker_emits_what_the_pairwise_tracker_emits(clusterer):
    """Tick for tick through the miner, on both tracker paths: the
    classic full join and the delta path's dirty-cluster scans."""
    ticks = list(churn_stream(120, 40, seed=5, eps=8.0, churn=0.2,
                              turnover=0.03, area=96.0))
    join = StreamingConvoyMiner(3, 4, 8.0, clusterer=clusterer)
    reference = StreamingConvoyMiner(3, 4, 8.0, clusterer=clusterer)
    tracker = reference.pipeline.track.tracker
    reference.pipeline.track.tracker = PairwiseTracker(
        3, 4, counters=tracker.counters
    )
    emitted = 0
    for t, snapshot in ticks:
        got = join.feed(t, snapshot)
        assert got == reference.feed(t, snapshot), f"tick {t}"
        emitted += len(got)
    tail = join.flush()
    assert tail == reference.flush()
    assert emitted + len(tail) > 0
    assert join.counters == reference.counters
