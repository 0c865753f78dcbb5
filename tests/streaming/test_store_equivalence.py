"""Differential suite: mining with a write-through store changes nothing,
and the store's read-back is bit-for-bit the in-memory answer.

Two properties, held jointly across both clusterer pipelines, both
candidate semantics, gap-severed streams, and bounded windows:

* **transparency** — a miner with ``store=`` emits, tick for tick,
  exactly what the plain miner emits (the sink observes the stream but
  never touches it);
* **fidelity** — after the run, the store answers with the mined list
  itself: ``all_convoys()`` is the canonical sort of the emissions
  (object-id types included), every ``alive_in`` window equals the
  brute-force filter *and* its own forced full scan, and ``top_k``
  streams the exact :func:`~repro.store.base.rank_key` order.

The workloads deliberately include whole-tick gaps (chain severing) so
replayed identity collisions and bbox position-log pruning both engage.
"""

import pytest

from repro.store import SQLiteConvoyStore, convoy_identity, rank_key
from repro.streaming import churn_stream

SEMANTICS = (False, True)
PIPELINES = ("incremental", "full")


def gap_workload(n_objects=50, n_snapshots=36, seed=29):
    """A churning stream with whole-tick gaps (severs candidate chains)."""
    ticks = list(churn_stream(n_objects, n_snapshots, seed=seed, eps=8.0,
                              churn=0.12, turnover=0.05, area=96.0))
    return [tick for i, tick in enumerate(ticks) if i % 9 != 7]


def run_lockstep_with_store(ticks, plain, stored):
    """Feed both miners every tick; emissions must never diverge."""
    emitted = []
    for t, snapshot in ticks:
        expected = plain.feed(t, dict(snapshot))
        got = stored.feed(t, dict(snapshot))
        assert got == expected, f"tick {t}: stored-run miner diverged"
        emitted.extend(expected)
    flushed = plain.flush()
    assert stored.flush() == flushed
    emitted.extend(flushed)
    return emitted


def assert_store_readback(store, emitted):
    """The fidelity half: every query answers from the mined list."""
    identities = {convoy_identity(c) for c in emitted}
    assert store.count() == len(identities)
    expected_all = sorted(
        {convoy_identity(c): c for c in emitted}.values(),
        key=lambda c: (c.t_start, c.t_end, convoy_identity(c)),
    )
    read_back = store.all_convoys()
    assert read_back == expected_all
    # Bit for bit includes the member-id types.
    assert [sorted(map(repr, c.objects)) for c in read_back] == \
        [sorted(map(repr, c.objects)) for c in expected_all]
    if emitted:
        lo = min(c.t_start for c in emitted)
        hi = max(c.t_end for c in emitted)
        windows = [(lo, hi), (lo, lo), (hi, hi),
                   ((lo + hi) // 2, (lo + hi) // 2 + 3), (hi + 1, hi + 5)]
    else:
        windows = [(0, 10)]
    for t1, t2 in windows:
        expected = [c for c in expected_all
                    if c.t_start <= t2 and c.t_end >= t1]
        assert store.alive_in(t1, t2) == expected
        assert store.alive_in(t1, t2, force_scan=True) == expected
        for by in ("size", "duration"):
            ranked = sorted(expected, key=lambda c: rank_key(c, by))
            assert list(store.top_k(by=by, alive=(t1, t2))) == ranked
            k = max(1, len(ranked) // 2)
            assert list(store.top_k(by=by, k=k, alive=(t1, t2))) == \
                ranked[:k]
    for by in ("size", "duration"):
        assert list(store.top_k(by=by)) == sorted(
            expected_all, key=lambda c: rank_key(c, by)
        )
    # Every stored convoy carries a bounding box (the sink observed the
    # whole stream), or the suite is not testing the bbox path at all.
    assert all(store.bbox_of(c) is not None for c in expected_all)


def run_differential(make_miner, tmp_path, pipeline, ticks, **kwargs):
    plain = make_miner(pipeline, 3, 4, 8.0, **kwargs)
    store = SQLiteConvoyStore(tmp_path / "convoys.db")
    stored = make_miner(pipeline, 3, 4, 8.0, store=store, **kwargs)
    with store, plain, stored:
        emitted = run_lockstep_with_store(ticks, plain, stored)
        assert emitted, "vacuous workload: nothing was mined"
        assert_store_readback(store, emitted)
    return emitted


class TestAllPipelinesBothSemantics:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_gap_workload(self, make_miner, tmp_path, pipeline,
                          paper_semantics):
        run_differential(make_miner, tmp_path, pipeline, gap_workload(),
                         paper_semantics=paper_semantics)


class TestBoundedWindow:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_windowed_miner(self, make_miner, tmp_path, paper_semantics):
        run_differential(make_miner, tmp_path, "full", gap_workload(),
                         window=12, paper_semantics=paper_semantics)


class TestRestartResumesWithoutDuplicates:
    def test_rerun_replays_idempotently(self, make_miner, tmp_path):
        ticks = gap_workload()
        store = SQLiteConvoyStore(tmp_path / "convoys.db")
        with store:
            first = make_miner("full", 3, 4, 8.0, store=store)
            with first:
                for t, snapshot in ticks:
                    first.feed(t, dict(snapshot))
                first.flush()
            rows = store.all_convoys()
            assert rows
            assert first.counters["stored_convoys"] == len(rows)
            second = make_miner("full", 3, 4, 8.0, store=store)
            with second:
                for t, snapshot in ticks:
                    second.feed(t, dict(snapshot))
                second.flush()
            assert second.counters["stored_convoys"] == 0
            assert second.counters["replayed_convoys"] == len(rows)
            assert store.all_convoys() == rows
