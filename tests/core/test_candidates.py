"""Tests for the candidate tracker — the heart of CMC and the CuTS filter."""

import pytest

from repro.core.candidates import CandidateTracker, ClosedCandidate
from repro.core.convoy import Convoy


def convoys_of(records):
    return [r.as_convoy() for r in records]


class TestBasicLifecycle:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CandidateTracker(0, 1)
        with pytest.raises(ValueError):
            CandidateTracker(1, 0)

    def test_single_persistent_cluster(self):
        tracker = CandidateTracker(2, 3)
        for t in range(5):
            assert tracker.advance([{"a", "b"}], t, t) == []
        closed = convoys_of(tracker.flush())
        assert closed == [Convoy(["a", "b"], 0, 4)]
        assert tracker.flush() == []

    def test_step_counters(self):
        """Every step counts; only steps with clusters re-intersect, and
        no step splices (the key stays, always 0, for its readers)."""
        tracker = CandidateTracker(2, 3)
        tracker.advance([{"a", "b"}, {"c", "d"}], 0, 0)  # nothing live yet
        tracker.advance([{"a", "b"}, {"c", "d"}], 1, 1)  # 2 re-intersected
        tracker.advance([], 2, 2)                        # gap: none
        assert tracker.counters == {
            "advance_steps": 3,
            "spliced_candidates": 0,
            "reintersected_candidates": 2,
        }

    def test_prune_then_same_cluster_reseeds(self):
        """A window prune closes the only chain of a cluster that comes
        back unchanged next step; the cluster seeds a fresh chain."""
        for paper_semantics in (False, True):
            tracker = CandidateTracker(
                2, 2, paper_semantics=paper_semantics
            )
            cluster = {"a", "b"}
            tracker.advance([cluster], 0, 0)
            tracker.advance([cluster], 1, 1)
            pruned = tracker.prune_longer_than(2)
            assert convoys_of(pruned) == [Convoy(["a", "b"], 0, 1)]
            assert tracker.live_candidates == []
            tracker.advance([cluster], 2, 2)
            assert tracker.live_candidates == [Convoy(["a", "b"], 2, 2)]
            tracker.advance([cluster], 3, 3)
            assert convoys_of(tracker.flush()) == [Convoy(["a", "b"], 2, 3)]

    def test_short_lived_cluster_not_reported(self):
        tracker = CandidateTracker(2, 3)
        tracker.advance([{"a", "b"}], 0, 0)
        tracker.advance([{"a", "b"}], 1, 1)
        closed = tracker.advance([], 2, 2)  # dies at lifetime 2 < k=3
        assert closed == []
        assert tracker.flush() == []

    def test_death_reports_qualifying_run(self):
        tracker = CandidateTracker(2, 2)
        tracker.advance([{"a", "b"}], 0, 0)
        tracker.advance([{"a", "b"}], 1, 1)
        closed = convoys_of(tracker.advance([], 2, 2))
        assert closed == [Convoy(["a", "b"], 0, 1)]

    def test_empty_step_kills_all_candidates(self):
        """The gap-handling deviation: no clusters ends every chain."""
        tracker = CandidateTracker(2, 2)
        tracker.advance([{"a", "b"}], 0, 0)
        tracker.advance([{"a", "b"}], 1, 1)
        tracker.advance([], 2, 2)
        tracker.advance([{"a", "b"}], 3, 3)
        tracker.advance([{"a", "b"}], 4, 4)
        closed = convoys_of(tracker.flush())
        # Two separate runs, not one bridged [0, 4] run.
        assert closed == [Convoy(["a", "b"], 3, 4)]

    def test_clusters_below_m_ignored(self):
        tracker = CandidateTracker(3, 1)
        tracker.advance([{"a", "b"}], 0, 0)
        assert tracker.live_candidates == []

    def test_steps_must_advance(self):
        tracker = CandidateTracker(2, 2)
        tracker.advance([{"a", "b"}], 0, 3)
        with pytest.raises(ValueError, match=r"\[3, 5\].*end 3"):
            tracker.advance([{"a", "b"}], 3, 5)  # overlaps previous window

    def test_reversed_window_rejected(self):
        tracker = CandidateTracker(2, 2)
        with pytest.raises(ValueError):
            tracker.advance([], 5, 3)


class TestIntersectionSemantics:
    def test_candidate_narrows_to_intersection(self):
        tracker = CandidateTracker(2, 10)
        tracker.advance([{"a", "b", "c"}], 0, 0)
        tracker.advance([{"a", "b", "d"}], 1, 1)
        live = tracker.live_candidates
        assert Convoy(["a", "b"], 0, 1) in live

    def test_paper_example_table2(self):
        """The running example of Table 2 / Figure 5 (m=2, k=3): the
        convoy ⟨o2, o3, [t1, t3]⟩ is reported via v1 = c11 ∩ c12 ∩ c23."""
        tracker = CandidateTracker(2, 3)
        closed = []
        closed += tracker.advance([{"o1", "o2", "o3"}], 1, 1)        # c11
        closed += tracker.advance([{"o1", "o2", "o3", "o4"}], 2, 2)  # c12
        closed += tracker.advance([{"o2", "o3"}, {"o1", "o4"}], 3, 3)
        closed += tracker.flush()
        result = convoys_of(closed)
        assert Convoy(["o2", "o3"], 1, 3) in result
        # The narrowing run {o1,o2,o3} over [1,2] is below k and stays out.
        assert Convoy(["o1", "o2", "o3"], 1, 2) not in result

    def test_split_group_tracks_both_branches(self):
        tracker = CandidateTracker(2, 2)
        tracker.advance([{"a", "b", "c", "d"}], 0, 0)
        tracker.advance([{"a", "b"}, {"c", "d"}], 1, 1)
        live = tracker.live_candidates
        assert Convoy(["a", "b"], 0, 1) in live
        assert Convoy(["c", "d"], 0, 1) in live


class TestCompleteSemantics:
    def test_growing_cluster_seeds_new_candidate(self):
        """The completeness fix: when {a,b} grows to {a,b,c}, a fresh
        candidate for the full set starts (the published rule would not
        track {a,b,c} and would miss its convoy)."""
        tracker = CandidateTracker(2, 2)
        tracker.advance([{"a", "b"}], 0, 0)
        tracker.advance([{"a", "b", "c"}], 1, 1)
        tracker.advance([{"a", "b", "c"}], 2, 2)
        closed = convoys_of(tracker.flush())
        assert Convoy(["a", "b", "c"], 1, 2) in closed
        assert Convoy(["a", "b"], 0, 2) in closed

    def test_paper_semantics_misses_grown_convoy(self):
        tracker = CandidateTracker(2, 2, paper_semantics=True)
        tracker.advance([{"a", "b"}], 0, 0)
        tracker.advance([{"a", "b", "c"}], 1, 1)
        tracker.advance([{"a", "b", "c"}], 2, 2)
        closed = convoys_of(tracker.flush())
        assert Convoy(["a", "b", "c"], 1, 2) not in closed
        assert Convoy(["a", "b"], 0, 2) in closed

    def test_stable_cluster_does_not_multiply(self):
        """Equal-set seed suppression: a stable group yields exactly one
        live candidate, not one per step."""
        tracker = CandidateTracker(2, 3)
        for t in range(50):
            tracker.advance([{"a", "b"}], t, t)
        assert len(tracker.live_candidates) == 1

    def test_report_on_narrowing(self):
        """When the member set shrinks, the pre-narrowing run is reported."""
        tracker = CandidateTracker(2, 2)
        tracker.advance([{"a", "b", "c"}], 0, 0)
        tracker.advance([{"a", "b", "c"}], 1, 1)
        closed = convoys_of(tracker.advance([{"a", "b"}], 2, 2))
        assert closed == [Convoy(["a", "b", "c"], 0, 1)]
        # The narrowed chain keeps the original start.
        assert Convoy(["a", "b"], 0, 2) in tracker.live_candidates

    def test_paper_semantics_swallows_narrowing_run(self):
        tracker = CandidateTracker(2, 2, paper_semantics=True)
        tracker.advance([{"a", "b", "c"}], 0, 0)
        tracker.advance([{"a", "b", "c"}], 1, 1)
        closed = tracker.advance([{"a", "b"}], 2, 2)
        assert closed == []


class TestWindowHistories:
    def test_windows_record_chain_clusters(self):
        tracker = CandidateTracker(2, 2)
        tracker.advance([{"a", "b", "c"}], 0, 4)
        tracker.advance([{"a", "b", "d"}], 5, 9)
        closed = tracker.advance([], 10, 14)
        [record] = [c for c in closed if c.objects == frozenset({"a", "b"})]
        assert record.windows == (
            (0, 4, frozenset({"a", "b", "c"})),
            (5, 9, frozenset({"a", "b", "d"})),
        )
        assert record.union == frozenset({"a", "b", "c", "d"})

    def test_closed_candidate_convoy_views(self):
        record = ClosedCandidate(
            frozenset({"a"}), 0, 9,
            ((0, 9, frozenset({"a", "b"})),),
        )
        assert record.as_convoy() == Convoy(["a"], 0, 9)
        assert record.as_candidate_convoy() == Convoy(["a", "b"], 0, 9)
        assert record.lifetime == 10

    def test_partition_sized_windows_lifetime(self):
        """CuTS filter usage: windows longer than one tick accumulate
        lifetime in time units, matching Algorithm 2's `+= λ`."""
        tracker = CandidateTracker(2, 8)
        tracker.advance([{"a", "b"}], 0, 3)
        tracker.advance([{"a", "b"}], 4, 7)
        closed = convoys_of(tracker.flush())
        assert closed == [Convoy(["a", "b"], 0, 7)]  # lifetime 8 >= k
