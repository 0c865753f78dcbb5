"""Differential suite: vector numeric backend == python, bit for bit.

The vector backend (:mod:`repro.clustering.numeric`) replaces both
snapshot-clustering kernels — neighbourhood search and the incremental
clusterer's dirty-region patching — with batched contiguous-array
implementations.  Its whole contract is
that nothing observable moves.  This suite holds a
``backend="vector"`` :class:`~repro.streaming.StreamingConvoyMiner`
equal to the ``backend="python"`` one **tick for tick** — same convoys
at every single ``feed``, same flush, same live candidate sets, same
counters — across:

* all three clusterer pipelines (fresh DBSCAN, incremental clustering,
  incremental + cluster-diff candidate splicing);
* both ``paper_semantics`` modes;
* sharded trackers (vector-backend clusters crossing the executor
  boundary, including the pickling process path);
* time gaps, bounded windows, turnover, and jittered feeds through a
  reorder buffer;
* both kernel modes of the vector backend — numpy and the
  ``array('d')``/memoryview fallback (``numeric.np`` forced to None).
"""

import pytest

import repro.clustering.numeric as numeric
from repro.streaming import churn_stream

SEMANTICS = (False, True)
PIPELINES = ("delta", "pr2", "full")

#: Counter keys that must agree bit-for-bit between the two backends
#: (the numeric backend adds no keys of its own, so this is everything
#: the engine, tracker, and clusterer report).
SHARED_COUNTER_KEYS = (
    "snapshots",
    "clustering_calls",
    "clustered_points",
    "convoys_emitted",
    "peak_candidates",
    "advance_steps",
    "delta_steps",
    "spliced_candidates",
    "reintersected_candidates",
)


@pytest.fixture(params=["numpy", "fallback"])
def vector_mode(request, monkeypatch):
    """Run each equivalence case with and without numpy acceleration."""
    if request.param == "fallback":
        monkeypatch.setattr(numeric, "np", None)
    elif numeric.np is None:
        pytest.skip("numpy not installed")
    return request.param


def run_backend_pair(ticks, python_miner, vector_miner):
    """Feed both miners every tick; assert emissions and live state equal."""
    for t, snapshot in ticks:
        expected = python_miner.feed(t, dict(snapshot))
        got = vector_miner.feed(t, dict(snapshot))
        assert got == expected, f"tick {t}: vector backend diverged"
        assert vector_miner.live_candidates == python_miner.live_candidates, (
            f"tick {t}: live candidate sets diverged"
        )
    assert vector_miner.flush() == python_miner.flush()
    for key in SHARED_COUNTER_KEYS:
        assert (
            vector_miner.counters[key] == python_miner.counters[key]
        ), key
    return python_miner, vector_miner


class TestAllPipelines:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_churn_stream(self, make_miner, vector_mode, pipeline,
                          paper_semantics):
        ticks = list(churn_stream(80, 40, seed=101, eps=8.0, churn=0.1,
                                  turnover=0.03, area=96.0))
        run_backend_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0,
                       paper_semantics=paper_semantics, backend="python"),
            make_miner(pipeline, 3, 5, 8.0,
                       paper_semantics=paper_semantics, backend="vector"),
        )

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_gaps_and_window(self, make_miner, vector_mode, pipeline):
        """Gap severing, prune_longer_than re-seeding, and the vector
        clusterer's persistent index all interact across a gap."""
        ticks = [
            (t, snapshot)
            for t, snapshot in churn_stream(70, 45, seed=103, eps=8.0,
                                            churn=0.08, turnover=0.02,
                                            area=96.0)
            if t % 11 != 7
        ]
        run_backend_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0, window=7, backend="python"),
            make_miner(pipeline, 3, 5, 8.0, window=7, backend="vector"),
        )

    def test_high_churn_full_pass_fallback(self, make_miner, vector_mode):
        """Above the churn threshold the incremental clusterer rebuilds
        from scratch — the vector bulk-load path — mid-stream."""
        ticks = list(churn_stream(60, 30, seed=107, eps=8.0, churn=0.6,
                                  area=96.0))
        python_miner, vector_miner = run_backend_pair(
            ticks,
            make_miner("delta", 3, 5, 8.0, backend="python"),
            make_miner("delta", 3, 5, 8.0, backend="vector"),
        )
        assert vector_miner.clusterer.counters["full_passes"] > 1

    def test_empty_and_below_m_ticks(self, make_miner, vector_mode):
        ticks = [
            (0, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
            (1, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
            (2, {"a": (0.0, 0.0)}),            # below m: closes chains
            (3, {}),                           # empty: still no clusters
            (4, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
            (5, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
        ]
        run_backend_pair(
            ticks,
            make_miner("full", 2, 2, 2.0, backend="python"),
            make_miner("full", 2, 2, 2.0, backend="vector"),
        )


class TestShardedVector:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_serial_shards(self, make_miner, vector_mode, pipeline):
        """The vector clustering backend feeding the shard seam: a
        sharded vector run must equal the unsharded python run exactly."""
        ticks = list(churn_stream(70, 35, seed=109, eps=8.0, churn=0.12,
                                  turnover=0.02, area=96.0))
        python_miner, vector_miner = run_backend_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0, backend="python"),
            make_miner(pipeline, 3, 5, 8.0, backend="vector", shards=3,
                       executor="serial"),
        )
        assert vector_miner.counters["sharded_candidates"] > 0

    def test_process_executor(self, make_miner):
        """Vector-backend clusters cross the pickling boundary to
        process shard workers unchanged."""
        ticks = list(churn_stream(60, 25, seed=113, eps=8.0, churn=0.12,
                                  area=96.0))
        run_backend_pair(
            ticks,
            make_miner("delta", 3, 5, 8.0, backend="python"),
            make_miner("delta", 3, 5, 8.0, backend="vector", shards=2,
                       executor="process"),
        )


class TestReorderedFeeds:
    @pytest.mark.parametrize("seed", range(3))
    def test_reorder_buffer_in_front_of_vector_backend(self, make_miner,
                                                       fuzz_workload,
                                                       vector_mode, seed):
        """Out-of-order arrivals through the watermark buffer into the
        fully vectorized pipeline: still the plain in-order answer."""
        base_ticks, feed, lateness = fuzz_workload(seed)
        plain = make_miner("delta", 3, 5, 8.0, backend="python")
        expected = []
        for t, snapshot in base_ticks:
            expected.extend(plain.feed(t, dict(snapshot)))
        expected.extend(plain.flush())

        vector_miner = make_miner(
            "delta", 3, 5, 8.0, backend="vector",
            reorder=dict(allowed_lateness=lateness),
        )
        got = []
        for t, snapshot in feed:
            got.extend(vector_miner.feed(t, snapshot))
        got.extend(vector_miner.flush())
        assert got == expected


class TestOfflineDrivers:
    def test_cmc_backend_parameter(self, vector_mode):
        """The batch driver forwards the backend; answers are equal."""
        from repro.core.cmc import cmc
        from repro.datasets import DATASETS

        db = DATASETS["cattle"](scale=0.004).database
        assert cmc(db, 3, 3, 10.0, backend="vector") == (
            cmc(db, 3, 3, 10.0, backend="python")
        )

    def test_mine_stream_backend_parameter(self, vector_mode):
        from repro.streaming import mine_stream, synthetic_stream

        ticks = list(synthetic_stream(60, 25, seed=11, eps=8.0))
        assert mine_stream(
            iter(ticks), 3, 5, 8.0, backend="vector",
            clusterer="incremental", shards=2,
        ) == mine_stream(iter(ticks), 3, 5, 8.0)
