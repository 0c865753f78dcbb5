"""Unit suite for :class:`~repro.store.sink.StoreSink`.

Pins the sink's three jobs in isolation from the engine: tick-batched
commits with honest stored/replayed counters, bounding boxes computed
from exactly the positions the convoy's members reported during its
interval, and a position log pruned to the tracker's live horizon so
the sink never changes the pipeline's memory class — plus the
lifecycle-safety contract: ``close`` is idempotent and a commit that
fails mid-tick neither drops its batch nor leaves the store's WAL
transaction dangling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convoy import Convoy
from repro.geometry.bbox import BoundingBox
from repro.store import SQLiteConvoyStore, StoreSink
from repro.streaming import StreamingConvoyMiner


@pytest.fixture
def store():
    with SQLiteConvoyStore(":memory:") as s:
        yield s


class TestCommit:
    def test_write_buffers_until_commit(self, store):
        sink = StoreSink(store)
        sink.write([Convoy({"a", "b"}, 0, 2)])
        assert store.count() == 0
        sink.commit()
        assert store.count() == 1

    def test_counters_split_stored_and_replayed(self, store):
        counters = {}
        sink = StoreSink(store, counters=counters)
        convoy = Convoy({"a", "b"}, 0, 2)
        sink.write([convoy])
        sink.commit()
        sink.write([convoy, Convoy({"c", "d"}, 1, 4)])
        sink.commit()
        assert counters["stored_convoys"] == 2
        assert counters["replayed_convoys"] == 1

    def test_empty_commit_is_free(self, store):
        counters = {}
        StoreSink(store, counters=counters).commit()
        assert counters == {"stored_convoys": 0, "replayed_convoys": 0}


_MEMBERS = ["a", "b", "c", 1, 2]
_COORDS = st.floats(-1e6, 1e6, allow_nan=False)
#: Sparse logs: ticks may be missing, and so may members within a tick.
_LOGS = st.dictionaries(
    st.integers(0, 12),
    st.dictionaries(st.sampled_from(_MEMBERS), st.tuples(_COORDS, _COORDS),
                    max_size=len(_MEMBERS)),
    max_size=10,
)
_CONVOY_BATCHES = st.lists(
    st.builds(lambda members, t_start, length: Convoy(
                  members, t_start, t_start + length),
              st.frozensets(st.sampled_from(_MEMBERS), min_size=1),
              st.integers(0, 14), st.integers(0, 6)),
    max_size=12,
)


def _reference_box(log, convoy):
    points = [log[t][member]
              for t in range(convoy.t_start, convoy.t_end + 1) if t in log
              for member in convoy.objects if member in log[t]]
    if not points:
        return None
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return BoundingBox(min(xs), min(ys), max(xs), max(ys))


class TestBoundingBoxes:
    def test_box_covers_members_over_the_interval_only(self, store):
        sink = StoreSink(store)
        # Tick 0-2 belong to the convoy; tick 3 (far away) does not, and
        # object "z" is never a member.
        sink.observe(0, {"a": (0.0, 0.0), "b": (1.0, 2.0), "z": (99.0, 99.0)})
        sink.observe(1, {"a": (2.0, 1.0), "b": (1.0, 0.5)})
        sink.observe(2, {"a": (1.5, 3.0), "b": (0.5, 1.0)})
        sink.observe(3, {"a": (50.0, 50.0), "b": (50.0, 50.0)})
        convoy = Convoy({"a", "b"}, 0, 2)
        sink.write([convoy])
        sink.commit()
        assert store.bbox_of(convoy) == BoundingBox(0.0, 0.0, 2.0, 3.0)

    def test_member_absent_from_a_tick_is_skipped(self, store):
        sink = StoreSink(store)
        sink.observe(0, {"a": (0.0, 0.0), "b": (1.0, 1.0)})
        sink.observe(1, {"a": (2.0, 2.0)})  # b unreported this tick
        convoy = Convoy({"a", "b"}, 0, 1)
        sink.write([convoy])
        sink.commit()
        assert store.bbox_of(convoy) == BoundingBox(0.0, 0.0, 2.0, 2.0)

    def test_no_observations_means_no_box(self, store):
        sink = StoreSink(store)
        convoy = Convoy({"a", "b"}, 0, 2)
        sink.write([convoy])
        sink.commit()
        assert store.bbox_of(convoy) is None

    @settings(max_examples=200, deadline=None)
    @given(log=_LOGS, convoys=_CONVOY_BATCHES)
    def test_one_commit_boxes_every_convoy_like_the_reference(
            self, log, convoys):
        # Convoys closing together share one backwards sweep per
        # (member, interval end); each box must still equal the plain
        # per-convoy min/max over what its members reported.
        with SQLiteConvoyStore(":memory:") as store:
            sink = StoreSink(store)
            for t in sorted(log):
                sink.observe(t, log[t])
            sink.write(convoys)
            sink.commit()
            for convoy in convoys:
                assert store.bbox_of(convoy) == _reference_box(log, convoy)


class TestPositionLogPruning:
    def test_prunes_below_the_live_horizon(self, store):
        sink = StoreSink(store)
        for t in range(6):
            sink.observe(t, {"a": (float(t), 0.0)})
        sink.commit(oldest_live_start=4)
        assert sorted(sink._positions) == [4, 5]

    def test_no_live_chain_clears_the_log(self, store):
        sink = StoreSink(store)
        sink.observe(0, {"a": (0.0, 0.0)})
        sink.commit(oldest_live_start=None)
        assert sink._positions == {}


class TestClose:
    def test_close_commits_pending(self, store):
        sink = StoreSink(store)
        sink.write([Convoy({"a", "b"}, 0, 2)])
        sink.close()
        assert store.count() == 1
        assert not store._closed  # sink does not own this store

    def test_owned_store_is_closed(self, tmp_path):
        store = SQLiteConvoyStore(tmp_path / "c.db")
        sink = StoreSink(store, owns_store=True)
        sink.write([Convoy({"a", "b"}, 0, 2)])
        sink.close()
        assert store._closed
        with SQLiteConvoyStore(tmp_path / "c.db") as reopened:
            assert reopened.count() == 1


class _FlakyStore(SQLiteConvoyStore):
    """Store whose ``add_batch`` dies mid-transaction ``failures``
    times — modelling a backend that does *not* clean up after itself
    (the SQLite one does; a remote one might not)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures = 0

    def add_batch(self, convoys, bboxes=None):
        if self.failures:
            self.failures -= 1
            self._con.execute("BEGIN IMMEDIATE")
            raise RuntimeError("simulated mid-batch failure")
        return super().add_batch(convoys, bboxes)


class TestLifecycleSafety:
    def test_close_is_idempotent(self, store):
        counters = {}
        sink = StoreSink(store, counters=counters)
        sink.write([Convoy({"a", "b"}, 0, 2)])
        sink.close()
        sink.close()
        assert store.count() == 1
        assert counters["stored_convoys"] == 1

    def test_failed_commit_retains_the_batch(self):
        with _FlakyStore(":memory:") as store:
            sink = StoreSink(store)
            sink.write([Convoy({"a", "b"}, 0, 2)])
            store.failures = 1
            with pytest.raises(RuntimeError, match="mid-batch"):
                sink.commit()
            store.rollback()
            # Nothing was dropped: the retry persists the same batch.
            assert sink._pending
            sink.commit()
            assert store.count() == 1
            assert sink._pending == []

    def test_close_after_failed_commit_rolls_back(self):
        with _FlakyStore(":memory:") as store:
            sink = StoreSink(store)
            sink.write([Convoy({"a", "b"}, 0, 2)])
            store.failures = 1
            with pytest.raises(RuntimeError, match="mid-batch"):
                sink.close()
            # First close re-raised but rolled the store's transaction
            # back; a second close is a silent no-op.
            assert not store._con.in_transaction
            sink.close()
            store.add(Convoy({"c", "d"}, 1, 3))  # store still usable
            assert store.count() == 1

    def test_store_rollback_abandons_an_open_batch(self, store):
        batch = store.batch()
        batch.__enter__()
        store.add(Convoy({"a", "b"}, 0, 2))
        store.rollback()
        assert not store._con.in_transaction
        assert store.count() == 0
        # Non-batch writes work again after the abandoned batch.
        assert store.add(Convoy({"a", "b"}, 0, 2))
        assert store.count() == 1

    def test_store_rollback_is_idempotent_and_safe_when_closed(self):
        store = SQLiteConvoyStore(":memory:")
        store.rollback()
        store.rollback()
        store.close()
        store.rollback()  # closed store: silent no-op

    def test_store_close_rolls_back_an_abandoned_batch(self, tmp_path):
        store = SQLiteConvoyStore(tmp_path / "c.db")
        batch = store.batch()
        batch.__enter__()
        store.add(Convoy({"a", "b"}, 0, 2))
        store.close()  # never COMMITted: must not persist, must not hang
        with SQLiteConvoyStore(tmp_path / "c.db") as reopened:
            assert reopened.count() == 0

    def test_miner_double_exit_is_safe(self, tmp_path):
        miner = StreamingConvoyMiner(2, 2, 1.0, store=tmp_path / "c.db")
        with miner:
            for t in range(3):
                miner.feed(t, {"a": (0.0, 0.0), "b": (0.5, 0.0)})
            miner.flush()
        miner.__exit__(None, None, None)  # second exit: no-op, no raise
        miner.close()
        with SQLiteConvoyStore(tmp_path / "c.db") as reopened:
            assert reopened.all_convoys() == [Convoy({"a", "b"}, 0, 2)]


class TestCounterIsolation:
    def test_two_default_sinks_never_share_counters(self, store):
        with SQLiteConvoyStore(":memory:") as other:
            first = StoreSink(store)
            second = StoreSink(other)
            assert first.counters is not second.counters
            first.write([Convoy({"a", "b"}, 0, 2)])
            first.commit()
            assert first.counters["stored_convoys"] == 1
            assert second.counters["stored_convoys"] == 0

    def test_two_default_miners_never_share_counters(self):
        with StreamingConvoyMiner(2, 2, 1.0) as one, \
                StreamingConvoyMiner(2, 2, 1.0) as two:
            assert one.counters is not two.counters
            one.feed(0, {"a": (0.0, 0.0), "b": (0.5, 0.0)})
            assert one.counters["snapshots"] == 1
            assert two.counters["snapshots"] == 0
