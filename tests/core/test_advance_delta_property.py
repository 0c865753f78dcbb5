"""Hypothesis property suite: ``advance_delta`` == ``advance``, always.

The delta splice rests on one invariant chain: snapshot clusters are
disjoint, every live candidate's object set is contained in its support
cluster, therefore a candidate whose support is *unchanged* can only be
extended by that cluster, with its full member set preserved.  The
hand-written tests exercise that chain on curated examples; this suite
lets Hypothesis hunt for a counterexample.

The generator builds random tick sequences of **disjoint** clusters with
a random but *contract-consistent* churn classification per tick: every
previous cluster independently survives unchanged (same stable id, same
member set), changes (same id, freshly drawn members), or vanishes;
leftover objects form appeared clusters under fresh ids; ids are never
reused; and some ticks withhold the delta entirely (falling back to the
classic path, which resets every support).  Two trackers consume every
sequence in lockstep —

* the classic :meth:`~repro.core.candidates.CandidateTracker.advance`, and
* :meth:`~repro.core.candidates.CandidateTracker.advance_delta`

— and must agree on every closed record (objects, intervals, *and*
window histories), every live candidate set, and the final flush, under
both semantics modes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.incremental import (
    APPEARED,
    CHANGED,
    UNCHANGED,
    ClusterDelta,
)
from repro.core.candidates import CandidateTracker


@st.composite
def delta_tick_sequences(draw):
    """A random sequence of ``(clusters, delta_or_None)`` ticks.

    Clusters are disjoint frozensets over a small object universe; the
    delta (when present) is consistent with the
    :class:`~repro.clustering.incremental.ClusterDelta` contract against
    the previous tick that carried one: stable ids, exact ``unchanged``
    classification, no id reuse.
    """
    n_objects = draw(st.integers(min_value=6, max_value=18))
    universe = [f"o{i}" for i in range(n_objects)]
    n_ticks = draw(st.integers(min_value=1, max_value=7))
    ticks = []
    prev = []  # [(cid, frozenset)] as of the previous tick
    next_id = 0
    for _ in range(n_ticks):
        withhold_delta = draw(st.integers(0, 9)) == 0  # ~1 in 10 classic
        clusters = []
        ids = []
        status = []
        vanished = []
        used = set()
        for cid, members in prev:
            fate = draw(st.sampled_from(["unchanged", "changed",
                                         "vanished", "vanished"]))
            if fate == "unchanged":
                clusters.append(members)
                ids.append(cid)
                status.append(UNCHANGED)
                used |= members
            elif fate == "changed":
                # Members drawn later, from the leftover pool; remember
                # the slot so disjointness holds by construction.
                clusters.append(None)
                ids.append(cid)
                status.append(CHANGED)
            else:
                vanished.append(cid)
        leftovers = [o for o in universe if o not in used]
        leftovers = draw(st.permutations(leftovers))
        cursor = 0
        # Fill the changed slots with fresh disjoint member sets.
        for index, members in enumerate(clusters):
            if members is not None:
                continue
            take = draw(st.integers(min_value=1, max_value=4))
            piece = frozenset(leftovers[cursor:cursor + take])
            cursor += take
            if piece:
                clusters[index] = piece
            else:
                # Pool exhausted: the id dissolves instead.
                clusters[index] = None
                vanished.append(ids[index])
        keep = [i for i, members in enumerate(clusters)
                if members is not None]
        clusters = [clusters[i] for i in keep]
        ids = [ids[i] for i in keep]
        status = [status[i] for i in keep]
        # Appeared clusters from whatever objects remain.
        while cursor < len(leftovers) and draw(st.booleans()):
            take = draw(st.integers(min_value=1, max_value=5))
            piece = frozenset(leftovers[cursor:cursor + take])
            cursor += take
            if not piece:
                break
            clusters.append(piece)
            ids.append(next_id)
            status.append(APPEARED)
            next_id += 1
        if withhold_delta:
            delta = None
            prev = []  # classic path resets supports; ids restart fresh
            # Ids in *future* deltas must still never collide with past
            # ones, so the counter keeps climbing.
            next_id += len(ids)
        else:
            delta = ClusterDelta(
                ids=tuple(ids),
                status=tuple(status),
                vanished=tuple(sorted(vanished)),
            )
            prev = list(zip(ids, clusters))
        ticks.append((clusters, delta))
    return ticks


@given(
    ticks=delta_tick_sequences(),
    m=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=3),
    paper_semantics=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_delta_path_equals_classic_path(ticks, m, k, paper_semantics):
    classic = CandidateTracker(m, k, paper_semantics=paper_semantics)
    delta_tracker = CandidateTracker(m, k, paper_semantics=paper_semantics)
    for t, (clusters, delta) in enumerate(ticks):
        expected = classic.advance(clusters, t, t)
        got_delta = delta_tracker.advance_delta(clusters, delta, t, t)
        assert got_delta == expected, f"tick {t}: delta path diverged"
        assert delta_tracker.live_candidates == classic.live_candidates
    assert delta_tracker.flush() == classic.flush()


@given(ticks=delta_tick_sequences())
@settings(max_examples=30, deadline=None)
def test_generated_sequences_respect_the_contract(ticks):
    """Guard the generator itself: disjoint clusters, truthful
    ``unchanged`` classification, no id reuse within a delta chain."""
    prev = {}
    seen_ids = set()
    for clusters, delta in ticks:
        union = set()
        for members in clusters:
            assert not (union & members), "clusters must be disjoint"
            union |= members
        if delta is None:
            prev = {}
            continue
        assert len(delta.ids) == len(clusters)
        for members, cid, status in zip(clusters, delta.ids, delta.status):
            if status == UNCHANGED:
                assert prev.get(cid) == members, (
                    "unchanged must mean identical member sets"
                )
            if status == APPEARED:
                assert cid not in seen_ids, "appeared ids must be fresh"
            seen_ids.add(cid)
        prev = dict(zip(delta.ids, clusters))
