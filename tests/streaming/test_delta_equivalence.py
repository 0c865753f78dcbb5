"""Differential suite: the delta-maintained clustering pipeline == the
fresh one, convoy for convoy.

``tests/clustering/test_incremental_equivalence.py`` holds the
incremental clusterer equal to a fresh DBSCAN per tick.  This suite is
the same contract one layer up: a
:class:`~repro.streaming.StreamingConvoyMiner` running the incremental
clusterer must emit, at every single ``feed`` and at ``flush``, exactly
the convoys of the baseline pipeline (fresh DBSCAN per tick).

Equality is asserted tick-for-tick (not just on the final answer), under
both candidate-semantics modes, across churn/turnover sweeps, time gaps,
below-``m`` ticks, bounded windows (prune interaction), flush-after-gap,
key-order shuffles, and the adaptive churn threshold.  The miner
factories and the lockstep driver are the shared fixtures of
``tests/streaming/conftest.py`` (also used by the reorder and store
suites).
"""

import pytest

from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.core.cmc import cmc
from repro.datasets import synthetic_dataset
from repro.streaming import churn_stream, replay_database

SEMANTICS = (False, True)


class TestTickForTickConvoyEquality:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("churn", [0.0, 0.02, 0.1, 0.3, 0.7])
    def test_churn_sweep(self, make_pipeline_miners, assert_lockstep,
                         paper_semantics, churn):
        # area = 12 * eps keeps the stream dense enough that clusters (and
        # hence live candidates) exist on most ticks.
        ticks = list(churn_stream(100, 50, seed=29, eps=8.0, churn=churn,
                                  turnover=0.03, area=96.0))
        miners = assert_lockstep(
            ticks,
            make_pipeline_miners(3, 5, 8.0, paper_semantics=paper_semantics),
        )
        if churn <= 0.1:
            # The low-churn regime must actually run incremental passes,
            # or this whole suite is vacuous.
            passes = miners["incremental"].clusterer.counters
            assert passes["incremental_passes"] > 0

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_high_turnover(self, make_pipeline_miners, assert_lockstep,
                           paper_semantics):
        """Arrivals and departures insert and remove grid entries."""
        ticks = list(churn_stream(60, 40, seed=31, eps=8.0, churn=0.05,
                                  turnover=0.15))
        assert_lockstep(
            ticks,
            make_pipeline_miners(3, 4, 8.0, paper_semantics=paper_semantics),
        )

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_database_replay_with_gaps(self, make_pipeline_miners,
                                       assert_lockstep, paper_semantics):
        """Empty and below-m snapshots interleave clusterless advances
        with incremental passes that skip the unseen snapshots."""
        spec = synthetic_dataset(
            "delta-replay", 47, n_objects=30, t_domain=45, eps=5.0, m=3,
            k=5, episode_count=5, episode_size=(3, 5),
            alive_fraction=(0.3, 0.9), keep_probability=0.75,
        )
        ticks = list(replay_database(spec.database))
        assert_lockstep(
            ticks,
            make_pipeline_miners(3, 5, 5.0, paper_semantics=paper_semantics),
        )

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_explicit_time_gaps(self, make_pipeline_miners, assert_lockstep,
                                paper_semantics):
        """Skipped time points (gap advances) between incremental
        passes."""
        ticks = [
            (t, snapshot)
            for t, snapshot in churn_stream(50, 40, seed=37, eps=8.0,
                                            churn=0.08, turnover=0.02)
            if t % 9 != 4  # drop ticks entirely: the engine sees a gap
        ]
        assert_lockstep(
            ticks,
            make_pipeline_miners(3, 3, 8.0, paper_semantics=paper_semantics),
        )

    def test_key_order_shuffles_without_movement(self, make_pipeline_miners,
                                                 assert_lockstep):
        """Reordered snapshot keys flip border ties with no churn; the
        incremental pass must re-assign exactly those borders."""
        import random

        rng = random.Random(13)
        pos = {f"o{i}": (rng.uniform(0, 30), rng.uniform(0, 30))
               for i in range(50)}
        ticks = []
        for t in range(30):
            items = list(pos.items())
            rng.shuffle(items)
            ticks.append((t, dict(items)))
        assert_lockstep(ticks, make_pipeline_miners(2, 4, 4.0))

    @pytest.mark.parametrize("churn", [0.05, 0.3])
    def test_adaptive_threshold_stays_exact(self, make_pipeline_miners,
                                            assert_lockstep, churn):
        """The adaptive policy only re-times the fallback decision; the
        emitted convoys must not move."""
        ticks = list(churn_stream(60, 40, seed=41, eps=8.0, churn=churn,
                                  turnover=0.02))
        assert_lockstep(
            ticks,
            make_pipeline_miners(3, 5, 8.0, churn_threshold="adaptive"),
        )


class TestWindowAndFlushInteraction:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("window", [5, 8])
    def test_bounded_window_prunes_identically(self, make_pipeline_miners,
                                               assert_lockstep,
                                               paper_semantics, window):
        """prune_longer_than() force-closes chains whose cluster comes
        back unchanged next tick; that cluster must re-seed."""
        ticks = list(churn_stream(100, 45, seed=43, eps=8.0, churn=0.05,
                                  turnover=0.02, area=96.0))
        miners = assert_lockstep(
            ticks,
            make_pipeline_miners(3, 5, 8.0, paper_semantics=paper_semantics,
                                 window=window),
        )
        passes = miners["incremental"].clusterer.counters
        assert passes["incremental_passes"] > 0

    def test_flush_after_gap(self, make_pipeline_miners, assert_lockstep):
        """A trailing gap closes every chain before the flush; both paths
        must agree on the gap emission and on the (empty) flush."""
        ticks = [
            (t, snapshot)
            for t, snapshot in churn_stream(40, 30, seed=47, eps=8.0,
                                            churn=0.05)
        ]
        ticks = ticks[:20] + [(40, ticks[20][1])]  # jump: 19 -> 40
        assert_lockstep(ticks, make_pipeline_miners(3, 4, 8.0))

    def test_mid_stream_state_equality(self, make_pipeline_miners):
        """Beyond emissions: live candidate sets (objects and intervals)
        stay identical between the paths at every tick."""
        miners = make_pipeline_miners(3, 5, 8.0)
        for t, snapshot in churn_stream(50, 35, seed=53, eps=8.0,
                                        churn=0.08, turnover=0.03):
            for miner in miners.values():
                miner.feed(t, dict(snapshot))
            live = {name: miner.live_candidates
                    for name, miner in miners.items()}
            assert live["incremental"] == live["full"], f"tick {t}"


class TestOfflineCmcDeltaPath:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_cmc_clusterer_instance_matches_baseline(self, paper_semantics):
        spec = synthetic_dataset(
            "delta-cmc", 7, n_objects=25, t_domain=35, eps=5.0, m=3, k=5,
            episode_count=4, episode_size=(3, 4),
        )
        base = cmc(spec.database, 3, 5, 5.0, paper_semantics=paper_semantics)
        # Every object moves every tick here, so only a threshold of 1
        # keeps the clusterer off the full-pass fallback.
        clusterer = IncrementalSnapshotClusterer(5.0, 3, churn_threshold=1.0)
        got = cmc(
            spec.database, 3, 5, 5.0, paper_semantics=paper_semantics,
            clusterer=clusterer,
        )
        assert got == base
        assert clusterer.counters["incremental_passes"] > 0
