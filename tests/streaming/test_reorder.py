"""Unit tests for the watermarked reorder buffer and its engine wiring."""

import pytest

from repro.core.convoy import Convoy
from repro.streaming import (
    ReorderBuffer,
    StreamingConvoyMiner,
    jitter_ticks,
    mine_stream,
    reorder_ticks,
    synthetic_stream,
)


def pair_snapshot(t, apart=1.0):
    """Two objects travelling east together."""
    return {"a": (float(t), 0.0), "b": (float(t), apart)}


class TestValidation:
    def test_needs_a_release_trigger(self):
        with pytest.raises(ValueError, match="release trigger"):
            ReorderBuffer()

    def test_rejects_negative_lateness(self):
        with pytest.raises(ValueError, match="allowed_lateness"):
            ReorderBuffer(allowed_lateness=-1)

    def test_rejects_nonpositive_max_pending(self):
        with pytest.raises(ValueError, match="max_pending"):
            ReorderBuffer(max_pending=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="late_policy"):
            ReorderBuffer(allowed_lateness=1, late_policy="ignore")

    def test_rejects_amend_without_lateness_horizon(self):
        """A capacity-only buffer has no amend horizon; accepting the
        combination would silently degrade every amend to a drop."""
        with pytest.raises(ValueError, match="amend.*allowed_lateness"):
            ReorderBuffer(max_pending=10, late_policy="amend")
        ReorderBuffer(allowed_lateness=0, late_policy="amend")  # legal

    def test_miner_rejects_bad_reorder_argument(self):
        with pytest.raises(ValueError, match="reorder"):
            StreamingConvoyMiner(2, 3, 1.0, reorder="yes please")


class TestWatermarkRelease:
    def test_zero_lateness_passes_in_order_feed_through(self):
        buffer = ReorderBuffer(allowed_lateness=0)
        for t in range(5):
            assert buffer.push(t, {"a": (t, 0)}) == [(t, {"a": (t, 0)})]
        assert len(buffer) == 0

    def test_holds_until_watermark_passes(self):
        buffer = ReorderBuffer(allowed_lateness=3)
        assert buffer.push(0, {"a": (0, 0)}) == []
        assert buffer.push(1, {"a": (1, 0)}) == []
        assert buffer.push(2, {"a": (2, 0)}) == []
        # max_seen=3 -> watermark 0: exactly t=0 is released.
        assert buffer.push(3, {"a": (3, 0)}) == [(0, {"a": (0, 0)})]
        assert buffer.last_released == 0
        assert len(buffer) == 3

    def test_out_of_order_arrivals_release_in_time_order(self):
        buffer = ReorderBuffer(allowed_lateness=2)
        released = []
        for t in (2, 0, 1, 4):
            released.extend(buffer.push(t, {"a": (t, 0)}))
        assert [t for t, _ in released] == [0, 1, 2]
        released.extend(buffer.drain())
        assert [t for t, _ in released] == [0, 1, 2, 4]

    def test_below_watermark_but_placeable_arrival_is_not_late(self):
        """An arrival between the last release and the watermark can still
        be slotted in order: it is released immediately, not rejected."""
        buffer = ReorderBuffer(allowed_lateness=2)
        buffer.push(0, {"a": (0, 0)})
        buffer.push(6, {"a": (6, 0)})  # releases t=0; watermark now 4
        assert buffer.last_released == 0
        assert buffer.push(2, {"b": (2, 0)}) == [(2, {"b": (2, 0)})]

    def test_watermark_property(self):
        buffer = ReorderBuffer(allowed_lateness=5)
        assert buffer.watermark == float("-inf")
        buffer.push(7, {})
        assert buffer.watermark == 2
        capacity_only = ReorderBuffer(max_pending=4)
        capacity_only.push(7, {})
        assert capacity_only.watermark == float("-inf")


class TestMaxPending:
    def test_capacity_evicts_oldest_first(self):
        buffer = ReorderBuffer(max_pending=2)
        assert buffer.push(5, {}) == []
        assert buffer.push(3, {}) == []
        assert buffer.push(9, {}) == [(3, {})]
        assert len(buffer) == 2

    def test_capacity_combines_with_watermark(self):
        buffer = ReorderBuffer(allowed_lateness=100, max_pending=3)
        for t in (4, 2, 8, 6):
            released = buffer.push(t, {})
        assert [t for t, _ in released] == [2]


class TestDuplicateMerge:
    def test_split_report_reassembles(self):
        buffer = ReorderBuffer(allowed_lateness=2)
        buffer.push(0, {"a": (0.0, 0.0)})
        buffer.push(0, {"b": (1.0, 1.0)})
        [(t, snapshot)] = buffer.push(3, {"a": (3.0, 0.0)})
        assert t == 0
        assert snapshot == {"a": (0.0, 0.0), "b": (1.0, 1.0)}
        assert buffer.counters["merged_snapshots"] == 1

    def test_later_fix_wins_per_object(self):
        buffer = ReorderBuffer(allowed_lateness=2)
        buffer.push(0, {"a": (0.0, 0.0), "b": (9.0, 9.0)})
        buffer.push(0, {"a": (5.0, 5.0)})
        [(_t, snapshot)] = buffer.drain()
        assert snapshot["a"] == (5.0, 5.0)
        assert snapshot["b"] == (9.0, 9.0)


class TestLatePolicies:
    def make_released(self, policy, lateness=2):
        """A buffer whose t=0..1 slots are already released."""
        buffer = ReorderBuffer(allowed_lateness=lateness, late_policy=policy)
        buffer.push(0, {"a": (0, 0)})
        buffer.push(1, {"a": (1, 0)})
        buffer.push(1 + lateness, {"a": (3, 0)})  # releases 0 and 1
        assert buffer.last_released == 1
        return buffer

    def test_raise_names_timestamps_and_watermark(self):
        buffer = self.make_released("raise")
        with pytest.raises(ValueError, match=r"t=0.*t=1.*watermark"):
            buffer.push(0, {"z": (0, 0)})

    def test_drop_counts_and_discards(self):
        buffer = self.make_released("drop")
        assert buffer.push(0, {"z": (0, 0)}) == []
        assert buffer.counters["late_dropped"] == 1
        # The dropped object never surfaces.
        drained = buffer.drain()
        assert all("z" not in snapshot for _t, snapshot in drained)

    def test_amend_folds_into_earliest_pending(self):
        buffer = self.make_released("amend", lateness=3)
        # last_released=1; t=1 is 0 < lateness behind -> amendable.
        assert buffer.push(1, {"z": (7.0, 7.0)}) == []
        assert buffer.counters["late_amended"] == 1
        (t, snapshot), *_rest = buffer.drain()
        assert "z" in snapshot and snapshot["z"] == (7.0, 7.0)

    def test_amend_never_overrides_fresher_fix(self):
        buffer = self.make_released("amend", lateness=3)
        # "a" already has a reading in the pending snapshot; the stale
        # late fix must not replace it.
        buffer.push(1, {"a": (99.0, 99.0)})
        drained = buffer.drain()
        assert all(
            snapshot.get("a") != (99.0, 99.0) for _t, snapshot in drained
        )
        assert buffer.counters["late_amended"] == 1

    def test_amend_beyond_horizon_drops(self):
        buffer = ReorderBuffer(allowed_lateness=2, late_policy="amend")
        buffer.push(0, {"a": (0, 0)})
        buffer.push(10, {"a": (10, 0)})  # releases t=0; last_released=0
        # t=-5 is 5 >= lateness behind the last release: dropped.
        assert buffer.push(-5, {"z": (0, 0)}) == []
        assert buffer.counters["late_dropped"] == 1
        assert buffer.counters["late_amended"] == 0

    def test_amend_with_nothing_pending_drops(self):
        buffer = ReorderBuffer(allowed_lateness=0, late_policy="amend")
        buffer.push(5, {"a": (5, 0)})  # released immediately
        assert len(buffer) == 0
        assert buffer.push(5, {"z": (0, 0)}) == []
        assert buffer.counters["late_dropped"] == 1


class TestCounters:
    def test_reordered_and_peak_pending(self):
        counters = {}
        buffer = ReorderBuffer(allowed_lateness=10, counters=counters)
        buffer.push(3, {})
        buffer.push(1, {})   # behind max_seen: reordered
        buffer.push(2, {})   # behind max_seen: reordered
        buffer.push(4, {})   # new maximum: not reordered
        assert counters["reordered_snapshots"] == 2
        assert counters["peak_pending"] == 4
        buffer.drain()
        assert counters["peak_pending"] == 4  # peak, not current

    def test_fresh_counter_dict_when_omitted(self):
        buffer = ReorderBuffer(allowed_lateness=1)
        assert set(buffer.counters) >= {
            "reordered_snapshots", "merged_snapshots", "late_dropped",
            "late_amended", "peak_pending",
        }


class TestReorderTicks:
    def test_restores_exactly_the_sorted_stream(self):
        base = list(synthetic_stream(20, 40, seed=9, eps=8.0))
        jittered = list(jitter_ticks(base, 5, seed=17))
        assert jittered != base
        assert list(reorder_ticks(jittered, allowed_lateness=5)) == base

    def test_drains_the_tail(self):
        ticks = [(0, {"a": (0, 0)}), (1, {"a": (1, 0)})]
        assert list(reorder_ticks(ticks, allowed_lateness=50)) == ticks


class TestMinerIntegration:
    def test_accepts_buffer_instance_and_kwargs_dict(self):
        instance = ReorderBuffer(allowed_lateness=2)
        miner = StreamingConvoyMiner(2, 3, 2.0, reorder=instance)
        assert miner.reorder is instance
        miner = StreamingConvoyMiner(2, 3, 2.0,
                                     reorder=dict(allowed_lateness=2))
        assert isinstance(miner.reorder, ReorderBuffer)
        # The dict form shares the miner's counters dict.
        assert "reordered_snapshots" in miner.counters

    def test_shuffled_feed_equals_in_order_answer(self):
        plain = StreamingConvoyMiner(2, 3, 2.0)
        buffered = StreamingConvoyMiner(2, 3, 2.0,
                                        reorder=dict(allowed_lateness=4))
        order = [2, 0, 1, 4, 3, 6, 5, 7]
        emitted = []
        for t in range(8):
            plain.feed(t, pair_snapshot(t))
        for t in order:
            emitted.extend(buffered.feed(t, pair_snapshot(t)))
        assert emitted + buffered.flush() == plain.flush()

    def test_flush_drains_pending_reorder_buffer(self):
        """Regression (end-of-stream drain ordering): snapshots still
        sitting in the buffer at flush() must be ingested, in time order,
        before chains close — identical to feeding them in order first."""
        plain = StreamingConvoyMiner(2, 4, 2.0)
        for t in range(6):
            plain.feed(t, pair_snapshot(t))
        expected = plain.flush()
        assert expected == [Convoy({"a", "b"}, 0, 5)]

        buffered = StreamingConvoyMiner(2, 4, 2.0,
                                        reorder=dict(allowed_lateness=50))
        emitted = []
        for t in (3, 0, 5, 1, 4, 2):  # nothing ever passes the watermark
            emitted.extend(buffered.feed(t, pair_snapshot(t)))
        assert emitted == []
        assert len(buffered.reorder) == 6
        assert buffered.flush() == expected
        assert len(buffered.reorder) == 0
        assert buffered.counters["snapshots"] == 6

    def test_flush_drain_closes_gap_separated_chains(self):
        """Draining must preserve gap semantics: a hole in the buffered
        timestamps still severs chains during the drain."""
        buffered = StreamingConvoyMiner(2, 2, 2.0,
                                        reorder=dict(allowed_lateness=50))
        for t in (5, 1, 0, 6):  # gap between 1 and 5
            buffered.feed(t, pair_snapshot(t))
        assert buffered.flush() == [
            Convoy({"a", "b"}, 0, 1), Convoy({"a", "b"}, 5, 6),
        ]

    def test_feed_after_flush_still_raises(self):
        miner = StreamingConvoyMiner(2, 3, 2.0,
                                     reorder=dict(allowed_lateness=2))
        miner.feed(0, pair_snapshot(0))
        miner.flush()
        with pytest.raises(RuntimeError):
            miner.feed(1, pair_snapshot(1))

    def test_flush_is_idempotent_with_reorder(self):
        miner = StreamingConvoyMiner(2, 3, 2.0,
                                     reorder=dict(allowed_lateness=50))
        for t in range(5):
            miner.feed(t, pair_snapshot(t))
        assert miner.flush() == [Convoy({"a", "b"}, 0, 4)]
        assert miner.flush() == []

    def test_late_raise_propagates_from_feed(self):
        miner = StreamingConvoyMiner(2, 3, 2.0,
                                     reorder=dict(allowed_lateness=0))
        miner.feed(5, pair_snapshot(5))
        with pytest.raises(ValueError, match="late snapshot"):
            miner.feed(4, pair_snapshot(4))

    def test_mine_stream_forwards_reorder(self):
        base = list(synthetic_stream(30, 40, seed=4, eps=8.0))
        jittered = list(jitter_ticks(base, 4, seed=23))
        expected = mine_stream(iter(base), 3, 5, 8.0)
        got = mine_stream(iter(jittered), 3, 5, 8.0,
                          reorder=dict(allowed_lateness=4))
        assert got == expected


class TestReleaseAll:
    """The idle-drain seam: a capacity-only buffer on a quiescent feed
    stalls its tail forever (only arrivals force releases), so
    ``release_all`` must push it through without ending the stream."""

    def test_capacity_only_buffer_stalls_without_arrivals(self):
        """The bug scenario pinned: fewer than max_pending snapshots sit
        buffered indefinitely — no watermark will ever release them."""
        buffer = ReorderBuffer(max_pending=10)
        for t in range(4):
            assert buffer.push(t, pair_snapshot(t)) == []
        assert len(buffer) == 4  # stalled: nothing will ever release these

    def test_release_all_frees_the_stalled_tail_in_order(self):
        buffer = ReorderBuffer(max_pending=10)
        for t in (2, 0, 3, 1):
            buffer.push(t, pair_snapshot(t))
        released = buffer.release_all()
        assert [t for t, _ in released] == [0, 1, 2, 3]
        assert len(buffer) == 0

    def test_buffer_stays_usable_after_release_all(self):
        buffer = ReorderBuffer(max_pending=3)
        buffer.push(0, pair_snapshot(0))
        buffer.release_all()
        assert buffer.push(5, pair_snapshot(5)) == []
        assert len(buffer) == 1
        assert [t for t, _ in buffer.release_all()] == [5]

    def test_released_timestamps_are_closed(self):
        """Arrivals at or below a released timestamp fall to the late
        policy, exactly as after a watermark release."""
        buffer = ReorderBuffer(max_pending=5, late_policy="drop")
        buffer.push(3, pair_snapshot(3))
        buffer.release_all()
        assert buffer.push(2, pair_snapshot(2)) == []
        assert buffer.counters["late_dropped"] == 1

    def test_empty_release_all_is_a_noop(self):
        buffer = ReorderBuffer(max_pending=2)
        assert buffer.release_all() == []

    def test_drain_and_release_all_agree(self):
        a = ReorderBuffer(max_pending=10)
        b = ReorderBuffer(max_pending=10)
        for t in (4, 1, 3):
            a.push(t, pair_snapshot(t))
            b.push(t, pair_snapshot(t))
        assert a.drain() == b.release_all()

    def test_miner_release_pending_mines_the_stalled_tail(self):
        """The miner-level seam: release_pending ingests the buffered
        tail mid-stream — same emissions as an in-order feed — and the
        miner stays live for further feeds."""
        plain = StreamingConvoyMiner(2, 3, 2.0)
        emitted_plain = []
        for t in range(6):
            emitted_plain.extend(plain.feed(t, pair_snapshot(t)))

        buffered = StreamingConvoyMiner(2, 3, 2.0,
                                        reorder=dict(max_pending=50))
        emitted = []
        for t in range(6):
            emitted.extend(buffered.feed(t, pair_snapshot(t)))
        assert emitted == []  # capacity never reached: everything stalled
        assert buffered.last_time is None
        emitted.extend(buffered.release_pending())
        assert buffered.last_time == 5
        assert emitted == emitted_plain
        # Still live: the released timestamps are closed, later times feed.
        emitted_plain.extend(plain.feed(6, pair_snapshot(6)))
        emitted.extend(buffered.feed(6, pair_snapshot(6)))
        assert emitted == emitted_plain
        assert buffered.flush() == plain.flush() == [Convoy({"a", "b"}, 0, 6)]

    def test_miner_release_pending_without_buffer_is_noop(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        miner.feed(0, pair_snapshot(0))
        assert miner.release_pending() == []
        assert miner.last_time == 0

    def test_miner_release_pending_after_flush_raises(self):
        miner = StreamingConvoyMiner(2, 3, 2.0,
                                     reorder=dict(max_pending=5))
        miner.flush()
        with pytest.raises(RuntimeError, match="already flushed"):
            miner.release_pending()


class TestJitterTicks:
    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            list(jitter_ticks([], -1))

    def test_zero_jitter_is_identity(self):
        base = list(synthetic_stream(10, 20, seed=1, eps=8.0))
        assert list(jitter_ticks(iter(base), 0, seed=99)) == base

    @pytest.mark.parametrize("jitter", [2, 3, 7])
    def test_permutation_within_lateness_bound(self, jitter):
        base = list(synthetic_stream(15, 60, seed=6, eps=8.0))
        shuffled = list(jitter_ticks(base, jitter, seed=8))
        assert sorted(shuffled, key=lambda tick: tick[0]) == base
        max_seen = None
        for t, _snapshot in shuffled:
            if max_seen is not None:
                assert max_seen - t < jitter
            max_seen = t if max_seen is None else max(max_seen, t)

    def test_deterministic_per_seed(self):
        base = list(synthetic_stream(12, 30, seed=2, eps=8.0))
        assert (list(jitter_ticks(base, 4, seed=5))
                == list(jitter_ticks(base, 4, seed=5)))
        assert (list(jitter_ticks(base, 4, seed=5))
                != list(jitter_ticks(base, 4, seed=6)))
