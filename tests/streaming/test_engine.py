"""Unit tests for the streaming convoy-discovery engine."""

import math

import pytest

from repro.core.convoy import Convoy
from repro.service import ProtocolError, build_miner
from repro.streaming import (
    ReorderBuffer,
    StreamingConvoyMiner,
    mine_stream,
    reorder_ticks,
)


def pair_snapshot(t, apart=1.0):
    """Two objects travelling east together (plus optional separation)."""
    return {"a": (float(t), 0.0), "b": (float(t), apart)}


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamingConvoyMiner(0, 3, 1.0)
        with pytest.raises(ValueError):
            StreamingConvoyMiner(2, 0, 1.0)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps"):
                StreamingConvoyMiner(2, 3, eps)

    def test_rejects_window_below_k(self):
        with pytest.raises(ValueError):
            StreamingConvoyMiner(2, 5, 1.0, window=4)
        StreamingConvoyMiner(2, 5, 1.0, window=5)  # boundary is legal

    #: Counts the miner used to accept: NaN and infinity answered zero
    #: convoys, a fraction acted as its ceiling (or was truncated by
    #: ``int()``), and a bool or numeric string passed as a number.
    BAD_COUNTS = [math.nan, math.inf, 2.5, True, "3"]
    BAD_COUNT_IDS = ["nan", "inf", "fraction", "bool", "str"]

    @staticmethod
    def config(name, value):
        """A query that is valid except for ``name`` (k=1, so that a
        window of ``True`` is not already below k)."""
        config = {"m": 2, "k": 1, "eps": 1.0, name: value}
        if name in ("allowed_lateness", "max_pending"):
            config["reorder"] = {name: config.pop(name)}
        return config

    @staticmethod
    def build(surface, config):
        if surface == "miner":
            StreamingConvoyMiner(**config)
        elif surface == "mine_stream":
            mine_stream([(0, pair_snapshot(0))], **config)
        elif surface == "buffer":
            ReorderBuffer(**config["reorder"])
        else:
            build_miner(config)

    @pytest.mark.parametrize("value", BAD_COUNTS, ids=BAD_COUNT_IDS)
    @pytest.mark.parametrize("name, surface", [
        (name, surface)
        for name in ("m", "k", "window", "allowed_lateness", "max_pending")
        for surface in ("miner", "mine_stream", "hello")
        + (("buffer",) if name in ("allowed_lateness", "max_pending") else ())
    ])
    def test_rejects_non_integer_counts(self, name, surface, value):
        """Every count is an integer (bools refused) or it is refused,
        with a message naming the parameter, on every surface."""
        match = f"{name} must be >= [0-9]+ and an integer, got"
        if surface == "hello":
            with pytest.raises(ProtocolError,
                               match=f"bad miner config: {match}"):
                self.build(surface, self.config(name, value))
        else:
            with pytest.raises(ValueError, match=match):
                self.build(surface, self.config(name, value))

    #: Tick times the miner used to pass through ``int()``: 2.7 was mined
    #: as tick 2, 3.0 as tick 3, NaN and inf raised from ``int()`` itself.
    BAD_TIMES = [2.7, math.nan, math.inf, True, "3", 3.0]
    BAD_TIME_IDS = ["fraction", "nan", "inf", "bool", "str", "integral-float"]

    @staticmethod
    def feed_at(surface, t):
        ticks = [(0, pair_snapshot(0)), (t, pair_snapshot(1))]
        if surface == "miner":
            miner = StreamingConvoyMiner(2, 1, 2.0)
            for tick_t, snapshot in ticks:
                miner.feed(tick_t, snapshot)
            return miner.flush()
        if surface == "mine_stream":
            return mine_stream(ticks, 2, 1, 2.0)
        if surface == "reorder_ticks":
            return list(reorder_ticks(ticks, allowed_lateness=1))
        buffer = ReorderBuffer(allowed_lateness=1)
        return [buffer.push(tick_t, snapshot) for tick_t, snapshot in ticks]

    @pytest.mark.parametrize("t", BAD_TIMES, ids=BAD_TIME_IDS)
    @pytest.mark.parametrize(
        "surface", ["miner", "mine_stream", "reorder_ticks", "buffer"]
    )
    def test_rejects_non_integer_tick_times(self, surface, t):
        """A tick time is an int (bools refused) or it is refused with a
        message naming ``t``, never truncated to a tick it did not name."""
        with pytest.raises(ValueError, match=r"tick time t must be an int"):
            self.feed_at(surface, t)

    def test_rejects_time_going_backwards(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        miner.feed(5, pair_snapshot(5))
        with pytest.raises(ValueError):
            miner.feed(5, pair_snapshot(5))
        with pytest.raises(ValueError):
            miner.feed(4, pair_snapshot(4))

    def test_out_of_order_error_names_both_timestamps(self):
        """Regression: the non-increasing-time contract must fail loudly,
        naming the offending and the last-ingested timestamps."""
        miner = StreamingConvoyMiner(2, 3, 2.0)
        miner.feed(7, pair_snapshot(7))
        with pytest.raises(ValueError, match=r"t=4.*t=7"):
            miner.feed(4, pair_snapshot(4))
        with pytest.raises(ValueError, match=r"t=7.*t=7"):
            miner.feed(7, pair_snapshot(7))
        # The rejected feed must not have corrupted the stream: the next
        # legal snapshot is still accepted.
        miner.feed(8, pair_snapshot(8))
        assert miner.last_time == 8

    def test_feed_after_flush_raises(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        miner.feed(0, pair_snapshot(0))
        miner.flush()
        with pytest.raises(RuntimeError):
            miner.feed(1, pair_snapshot(1))

    def test_flush_is_idempotent(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        for t in range(5):
            miner.feed(t, pair_snapshot(t))
        assert miner.flush() == [Convoy({"a", "b"}, 0, 4)]
        assert miner.flush() == []


class TestEndOfStreamFlush:
    def test_convoy_running_to_last_snapshot_is_emitted(self):
        """Regression: Algorithm 1 reproductions classically drop chains
        that are still open at the final timestamp because the pseudocode
        only reports on failed extension; ``flush`` must emit them."""
        miner = StreamingConvoyMiner(2, 4, 2.0)
        emitted = []
        for t in range(10):
            emitted.extend(miner.feed(t, pair_snapshot(t)))
        assert emitted == []  # never closed mid-stream...
        assert miner.flush() == [Convoy({"a", "b"}, 0, 9)]  # ...emitted here

    def test_flush_respects_minimum_lifetime(self):
        miner = StreamingConvoyMiner(2, 5, 2.0)
        for t in range(4):  # lifetime 4 < k=5
            miner.feed(t, pair_snapshot(t))
        assert miner.flush() == []

    def test_mine_stream_includes_the_flush(self):
        source = ((t, pair_snapshot(t)) for t in range(8))
        assert mine_stream(source, 2, 4, 2.0) == [Convoy({"a", "b"}, 0, 7)]


class TestIncrementalEmission:
    def test_convoy_emitted_as_soon_as_extension_fails(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        emitted = {}
        for t in range(10):
            apart = 1.0 if t < 5 else 50.0  # the pair separates at t=5
            emitted[t] = miner.feed(t, pair_snapshot(t, apart))
        assert emitted[5] == [Convoy({"a", "b"}, 0, 4)]
        assert all(not v for t, v in emitted.items() if t != 5)
        assert miner.flush() == []

    def test_empty_snapshot_closes_chains(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        for t in range(4):
            miner.feed(t, pair_snapshot(t))
        assert miner.feed(4, {}) == [Convoy({"a", "b"}, 0, 3)]

    def test_below_m_snapshot_closes_chains(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        for t in range(4):
            miner.feed(t, pair_snapshot(t))
        assert miner.feed(4, {"a": (4.0, 0.0)}) == [Convoy({"a", "b"}, 0, 3)]


class TestGapHandling:
    def test_time_gap_breaks_chains(self):
        """Definition 3 wants k *consecutive* points: a tick nobody
        reported at cannot be bridged by any chain."""
        miner = StreamingConvoyMiner(2, 3, 2.0)
        for t in range(5):
            miner.feed(t, pair_snapshot(t))
        emitted = miner.feed(9, pair_snapshot(9))  # t=5..8 skipped
        assert emitted == [Convoy({"a", "b"}, 0, 4)]
        # The chain restarts at t=9, not across the gap.
        for t in range(10, 12):
            miner.feed(t, pair_snapshot(t))
        assert miner.flush() == [Convoy({"a", "b"}, 9, 11)]

    def test_gap_shorter_than_k_drops_the_run(self):
        miner = StreamingConvoyMiner(2, 5, 2.0)
        for t in range(3):  # lifetime 3 < k when the gap hits
            miner.feed(t, pair_snapshot(t))
        assert miner.feed(7, pair_snapshot(7)) == []


class TestBoundedWindow:
    def test_long_convoy_fragments_at_window(self):
        miner = StreamingConvoyMiner(2, 3, 2.0, window=5)
        emitted = []
        for t in range(12):
            emitted.extend(miner.feed(t, pair_snapshot(t)))
        emitted.extend(miner.flush())
        # Chains are cut every 5 ticks: [0,4], [5,9], then the tail [10,11]
        # dies at flush below k.
        assert emitted == [Convoy({"a", "b"}, 0, 4), Convoy({"a", "b"}, 5, 9)]

    def test_window_caps_candidate_age(self):
        miner = StreamingConvoyMiner(2, 3, 2.0, window=5)
        for t in range(50):
            miner.feed(t, pair_snapshot(t))
            for candidate in miner.live_candidates:
                assert candidate.lifetime < 5

    def test_unwindowed_reports_one_convoy(self):
        source = [(t, pair_snapshot(t)) for t in range(12)]
        assert mine_stream(iter(source), 2, 3, 2.0) == [
            Convoy({"a", "b"}, 0, 11)
        ]


class TestCounters:
    def test_one_clustering_call_per_snapshot(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        for t in range(20):
            miner.feed(t, pair_snapshot(t))
        assert miner.counters["snapshots"] == 20
        assert miner.counters["clustering_calls"] == 20
        assert miner.counters["clustered_points"] == 40

    def test_below_m_snapshots_are_not_clustered(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        miner.feed(0, {"a": (0.0, 0.0)})
        miner.feed(1, {})
        assert miner.counters["snapshots"] == 2
        assert miner.counters["clustering_calls"] == 0

    def test_peak_candidates_and_emitted(self):
        miner = StreamingConvoyMiner(2, 3, 2.0)
        for t in range(5):
            miner.feed(t, pair_snapshot(t))
        assert miner.counters["peak_candidates"] == 1
        assert len(miner.live_candidates) == 1
        miner.flush()
        assert miner.counters["convoys_emitted"] == 1

    def test_caller_supplied_counter_dict_is_used(self):
        counters = {}
        miner = StreamingConvoyMiner(2, 3, 2.0, counters=counters)
        miner.feed(0, pair_snapshot(0))
        assert counters["snapshots"] == 1
        assert counters is miner.counters


class TestPaperSemantics:
    def test_growing_group_missed_only_by_paper_rule(self):
        """A third object joining mid-way: the complete semantics reports
        the larger group's run, the published rule narrows past it."""
        def snapshot(t):
            snap = pair_snapshot(t)
            if t >= 4:
                snap["c"] = (float(t), 2.0)
            return snap

        source = [(t, snapshot(t)) for t in range(12)]
        complete = mine_stream(iter(source), 2, 4, 1.5)
        published = mine_stream(iter(source), 2, 4, 1.5,
                                paper_semantics=True)
        triple = Convoy({"a", "b", "c"}, 4, 11)
        assert triple in complete
        assert triple not in published
