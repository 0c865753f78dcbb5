"""The candidate-match join equals its pairwise reference.

:func:`repro.core.candidates.match_candidates` answers each candidate either
by probing an owner table (``n - m + 1`` lookups name every cluster that
can share ``m`` objects) or by intersecting pairwise, and falls back to
the pairwise loop on overlapping cluster families.
:func:`~repro.core.candidates.match_candidates_pairwise` is the
reference: every property here holds the join's output — matches,
intersections and their cluster-index order — equal to it.
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
def match_cases(draw):
    """Members, candidate sets and m over a small object universe.

    Families are disjoint (the DBSCAN shape, where the join probes) or
    overlapping (where it must fall back); candidate sets range from
    empty and below ``m`` up to the whole universe, and cluster counts
    up to 30 put candidates on both sides of the probe/scan choice.  Object
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
    candidates = [
        frozenset(draw(candidate_sets))
        for _ in range(draw(st.integers(0, 10)))
    ]
    return members, candidates, draw(st.integers(1, 5))


class TestJoinEqualsPairwise:
    @settings(max_examples=400, deadline=None)
    @given(match_cases())
    def test_random_families(self, case):
        members, object_sets, m = case
        assert match_candidates(members, object_sets, m) == (
            match_candidates_pairwise(members, object_sets, m)
        )

    def test_full_population_candidate(self):
        """A candidate holding every object matches each cluster of at
        least m objects with that whole cluster, in cluster order."""
        members = [frozenset(range(40)), frozenset(range(40, 45)),
                   frozenset({45})]
        universe = frozenset(range(46))
        assert match_candidates(members, [universe], 1) == [
            [(0, members[0]), (1, members[1]), (2, members[2])],
        ]
        assert match_candidates(members, [universe], 5) == [
            [(0, members[0]), (1, members[1])],
        ]
        # Thirty singletons against m = 10: 21 probes + margin < 30, so
        # the candidate probes, and no cluster can match.
        singletons = [frozenset({i}) for i in range(30)]
        assert 30 - 10 + 1 + candidates._PROBE_MARGIN < len(singletons)
        assert match_candidates(singletons, [frozenset(range(30))], 10) == [
            []
        ]

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
        """A candidate probes exactly when n - m + 1 + margin is below
        the number of clusters."""
        builds = self._probe_counter(monkeypatch)
        m = 3
        objects = frozenset({0, 1, 2, 3})  # n - m + 1 = 2 probes
        bound = 2 + candidates._PROBE_MARGIN
        for size, probed in ((bound, 0), (bound + 1, 1)):
            members = [
                frozenset({10 * i, 10 * i + 1, 10 * i + 2, 10 * i + 3})
                for i in range(size)
            ]
            assert match_candidates(members, [objects], m) == (
                match_candidates_pairwise(members, [objects], m)
            ) == [[(0, objects)]]
            assert len(builds) == probed
            builds.clear()

    def test_overlapping_family_falls_back(self, monkeypatch):
        builds = self._probe_counter(monkeypatch)
        members = [frozenset(range(i, i + 4)) for i in range(20)]
        object_sets = [frozenset({5, 6, 7}), frozenset({1, 2, 3, 4})]
        assert match_candidates(members, object_sets, 3) == (
            match_candidates_pairwise(members, object_sets, 3)
        )
        assert builds == [20]  # tried once, found the overlap, stopped

    def test_empty_and_below_m_candidates(self):
        members = [frozenset({i}) | {100 + i, 200 + i} for i in range(20)]
        object_sets = [frozenset(), frozenset({0, 100}), frozenset({0})]
        assert match_candidates(members, object_sets, 3) == [[], [], []]
        assert match_candidates([], object_sets, 1) == [[], [], []]
        assert match_candidates(members, [], 3) == []

    def test_picklable_by_reference(self):
        assert pickle.loads(pickle.dumps(match_candidates)) is (
            match_candidates
        )


class PairwiseTracker(CandidateTracker):
    def _match_live(self, members, object_sets):
        return match_candidates_pairwise(members, object_sets, self._m)


@pytest.mark.parametrize("clusterer", [None, "incremental"])
def test_tracker_emits_what_the_pairwise_tracker_emits(clusterer):
    """Tick for tick through the miner, behind either clusterer."""
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
