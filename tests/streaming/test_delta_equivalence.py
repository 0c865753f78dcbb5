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
key-order shuffles, and churn that alternates across the clusterer's
fallback threshold.  The miner factories and the lockstep driver are the
shared fixtures of ``tests/streaming/conftest.py`` (also used by the
reorder and store suites).
"""

import random

import pytest

import repro.clustering.incremental as incremental
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import (
    CHURN_THRESHOLD,
    IncrementalSnapshotClusterer,
)
from repro.core.cmc import cmc
from repro.datasets import synthetic_dataset
from repro.streaming import churn_stream, mine_stream, replay_database

SEMANTICS = (False, True)


def alternating_churn_ticks(n=100, ticks=40, seed=61, eps=8.0):
    """Ticks whose churn alternates between half and twice the fallback
    threshold, so delta passes follow full passes and vice versa.  Hops
    stay within ``eps`` and the world is dense, so candidates live
    across ticks of both kinds."""
    rng = random.Random(seed)
    area = 12.0 * eps
    pos = {f"o{i}": (rng.uniform(0, area), rng.uniform(0, area))
           for i in range(n)}
    for t in range(ticks):
        share = CHURN_THRESHOLD * (2.0 if t % 2 else 0.5)
        for o in rng.sample(sorted(pos), round(share * n)):
            x, y = pos[o]
            pos[o] = (min(max(x + rng.uniform(-eps, eps), 0.0), area),
                      min(max(y + rng.uniform(-eps, eps), 0.0), area))
        yield t, dict(pos)


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

    def test_alternating_churn_clusters_equal_dbscan(self):
        """Delta passes resume from the state a full pass rebuilt, and
        full passes drop what delta passes maintained."""
        clusterer = IncrementalSnapshotClusterer(8.0, 3)
        kinds = []
        for t, snapshot in alternating_churn_ticks():
            fulls = clusterer.counters["full_passes"]
            assert clusterer.cluster(snapshot) == dbscan(snapshot, 8.0, 3), (
                f"tick {t}"
            )
            kinds.append(clusterer.counters["full_passes"] > fulls)
        # Tick 0 is the first full pass; then full and delta alternate.
        assert kinds == [True] + [t % 2 == 1 for t in range(1, 40)]

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_alternating_churn_crosses_the_threshold(
        self, make_pipeline_miners, assert_lockstep, paper_semantics
    ):
        miners = assert_lockstep(
            list(alternating_churn_ticks()),
            make_pipeline_miners(3, 5, 8.0, paper_semantics=paper_semantics),
        )
        counters = miners["incremental"].clusterer.counters
        # The first tick and the 20 odd ticks run full passes.
        assert counters["full_passes"] == 21
        assert counters["incremental_passes"] == 19
        assert miners["full"].counters["convoys_emitted"] > 0


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
    def test_cmc_clusterer_instance_matches_baseline(self, monkeypatch,
                                                     paper_semantics):
        spec = synthetic_dataset(
            "delta-cmc", 7, n_objects=25, t_domain=35, eps=5.0, m=3, k=5,
            episode_count=4, episode_size=(3, 4),
        )
        base = cmc(spec.database, 3, 5, 5.0, paper_semantics=paper_semantics)
        # Every object moves every tick here, so only a threshold of 1
        # keeps the clusterer off the full-pass fallback.
        monkeypatch.setattr(incremental, "CHURN_THRESHOLD", 1.0)
        clusterer = IncrementalSnapshotClusterer(5.0, 3)
        got = mine_stream(
            replay_database(spec.database), 3, 5, 5.0,
            paper_semantics=paper_semantics, clusterer=clusterer,
        )
        assert got == base
        assert clusterer.counters["incremental_passes"] > 0
