"""Differential suite: incremental clustering == fresh DBSCAN, always.

:class:`~repro.clustering.incremental.IncrementalSnapshotClusterer` promises
*exact* equality with :func:`~repro.clustering.dbscan.dbscan` at every tick
— same member sets and same cluster order — while reusing the previous
tick's state.  These tests are the teeth of that promise: seeded streams
across churn levels, object turnover, eps/m regimes, degenerate geometry
(grid-snapped ties, duplicates), snapshot key-order shuffles, and fallback
thresholds, each compared tick-for-tick against the fresh pass; plus the
end-to-end claim that a :class:`~repro.streaming.StreamingConvoyMiner`
running the incremental strategy emits identical convoys to the default
miner under both candidate-semantics modes.
"""

import math
import random

import pytest

import repro.clustering.incremental as incremental
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.core.cmc import cmc
from repro.datasets import synthetic_dataset
from repro.streaming import (
    StreamingConvoyMiner,
    churn_stream,
    mine_stream,
    replay_database,
    synthetic_stream,
)

SEMANTICS = (False, True)


def assert_stream_equivalent(snapshots, eps, m):
    """Feed snapshots to one clusterer; compare each answer to dbscan()."""
    clusterer = IncrementalSnapshotClusterer(eps, m)
    for tick, snapshot in enumerate(snapshots):
        got = clusterer.cluster(snapshot)
        want = dbscan(snapshot, eps, m)
        assert got == want, (
            f"tick {tick}: incremental {sorted(map(sorted, got))} != "
            f"fresh {sorted(map(sorted, want))}"
        )
    return clusterer


def walk_stream(seed, *, n=60, ticks=40, churn=0.2, eps=3.0, area=50.0,
                leave=0.06, arrive=2, shuffle=0.0):
    """Seeded random-walk snapshots with appearance/disappearance."""
    rng = random.Random(seed)
    alive = {f"o{i}": (rng.uniform(0, area), rng.uniform(0, area))
             for i in range(n)}
    next_id = n
    snapshots = []
    for _ in range(ticks):
        movers = rng.sample(sorted(alive), max(1, int(churn * len(alive))))
        for o in movers:
            x, y = alive[o]
            alive[o] = (
                min(max(x + rng.uniform(-3 * eps, 3 * eps), 0.0), area),
                min(max(y + rng.uniform(-3 * eps, 3 * eps), 0.0), area),
            )
        for o in rng.sample(sorted(alive), int(leave * len(alive))):
            del alive[o]
        for _ in range(rng.randint(0, arrive)):
            alive[f"o{next_id}"] = (rng.uniform(0, area), rng.uniform(0, area))
            next_id += 1
        items = list(alive.items())
        if rng.random() < shuffle:
            rng.shuffle(items)
        snapshots.append(dict(items))
    return snapshots


class TestTickForTickEquality:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("eps,m", [(3.0, 3), (6.0, 2), (1.5, 4)])
    def test_random_walks(self, seed, eps, m):
        assert_stream_equivalent(walk_stream(seed, eps=eps), eps, m)

    @pytest.mark.parametrize("churn", [0.0, 0.02, 0.1, 0.3, 0.7])
    def test_churn_stream_all_levels(self, churn):
        snapshots = [
            snap for _t, snap in churn_stream(
                80, 30, seed=11, eps=5.0, churn=churn, turnover=0.03
            )
        ]
        clusterer = assert_stream_equivalent(snapshots, 5.0, 3)
        if churn <= 0.1:
            # The low-churn regime must actually exercise the delta path,
            # or this whole suite is vacuous.
            assert clusterer.counters["incremental_passes"] >= 28

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_snapped_ties_and_duplicates(self, seed):
        """Exact-eps distances and shared borders between clusters."""
        rng = random.Random(900 + seed)
        eps, m = 2.0, 3
        pos = {i: (eps * rng.randint(0, 12) / 2.0,
                   eps * rng.randint(0, 12) / 2.0) for i in range(70)}
        snapshots = []
        for _ in range(40):
            for o in rng.sample(sorted(pos), rng.randint(0, 12)):
                pos[o] = (eps * rng.randint(0, 12) / 2.0,
                          eps * rng.randint(0, 12) / 2.0)
            if rng.random() < 0.3 and len(pos) > 5:
                del pos[rng.choice(sorted(pos))]
            if rng.random() < 0.3:
                pos[max(pos) + 1] = (eps * rng.randint(0, 12) / 2.0,
                                     eps * rng.randint(0, 12) / 2.0)
            items = sorted(pos.items())
            rng.shuffle(items)
            snapshots.append(dict(items))
        assert_stream_equivalent(snapshots, eps, m)

    def test_key_order_shuffles_without_movement(self):
        """Snapshot key order is data: DBSCAN's scan order breaks border
        ties, so reordering keys alone can re-assign a shared border even
        though no object moved.  The incremental pass must follow."""
        rng = random.Random(7)
        pos = {f"o{i}": (rng.uniform(0, 20), rng.uniform(0, 20))
               for i in range(50)}
        snapshots = []
        for _ in range(25):
            items = list(pos.items())
            rng.shuffle(items)
            snapshots.append(dict(items))
        clusterer = assert_stream_equivalent(snapshots, 3.0, 2)
        assert clusterer.counters["incremental_passes"] == 24

    def test_shared_border_follows_key_order_without_movement(self):
        """A border within eps of one core of each of two components
        goes to the component whose first core comes first in the
        snapshot's key order.  Reversing the key order alone must move
        it (the spliced-border path); nudging it must not."""
        eps, m = 1.0, 4
        left = {"a1": (-1.5, 0.0), "a2": (-1.4, 0.0), "a3": (-1.3, 0.0),
                "a4": (-0.95, 0.0)}
        right = {"b1": (0.95, 0.0), "b2": (1.3, 0.0), "b3": (1.4, 0.0),
                 "b4": (1.5, 0.0)}
        border = {"q": (0.0, 0.0)}
        a_first = {**left, **border, **right}
        b_first = {**right, **border, **left}
        nudged = {**right, "q": (0.01, 0.0), **left}
        clusterer = IncrementalSnapshotClusterer(eps, m)
        answers = []
        for snapshot in (a_first, b_first, nudged, a_first):
            clusters = clusterer.cluster(snapshot)
            assert clusters == dbscan(snapshot, eps, m)
            answers.append(clusters)
        owner = [
            next(sorted(c - {"q"})[0][0] for c in clusters if "q" in c)
            for clusters in answers
        ]
        assert owner == ["a", "b", "b", "a"]
        # Only the first tick rebuilt; the unmoved flip at the second was
        # the spliced-border re-assignment of an incremental pass.
        assert clusterer.counters["full_passes"] == 1
        assert clusterer.counters["incremental_passes"] == 3

    def test_min_pts_one_and_empty_snapshots(self):
        rng = random.Random(5)
        pos = {}
        snapshots = []
        for _ in range(40):
            if rng.random() < 0.15:
                pos = {}
            else:
                for _ in range(rng.randint(0, 4)):
                    pos[f"p{rng.randint(0, 20)}"] = (
                        float(rng.randint(0, 6)), float(rng.randint(0, 6))
                    )
                for o in list(pos):
                    if rng.random() < 0.1:
                        del pos[o]
            snapshots.append(dict(pos))
        assert_stream_equivalent(snapshots, 1.0, 1)

    def test_output_is_stateless_copy(self):
        """Returned sets are fresh objects; mutating them must not corrupt
        the clusterer's spliced state."""
        snapshots = [snap for _t, snap in churn_stream(40, 10, seed=3,
                                                       eps=5.0, churn=0.05)]
        clusterer = IncrementalSnapshotClusterer(5.0, 2)
        for snapshot in snapshots:
            for cluster in clusterer.cluster(snapshot):
                cluster.clear()  # caller abuse
            assert clusterer.cluster(dict(snapshot)) == dbscan(
                snapshot, 5.0, 2
            )

    def test_interleaved_resume_after_gap_sized_delta(self):
        """Output is history-independent: skipping ticks (as the miner does
        below m objects) just makes a bigger delta."""
        snapshots = walk_stream(17, churn=0.1)
        clusterer = IncrementalSnapshotClusterer(3.0, 3)
        for tick, snapshot in enumerate(snapshots):
            if tick % 3 == 0:
                continue  # the clusterer never sees these snapshots
            assert clusterer.cluster(snapshot) == dbscan(snapshot, 3.0, 3)


class TestFallbackThresholds:
    @pytest.mark.parametrize("threshold", [0.0, 0.2, 1.0])
    def test_any_threshold_is_exact(self, monkeypatch, threshold):
        monkeypatch.setattr(incremental, "CHURN_THRESHOLD", threshold)
        snapshots = walk_stream(23, churn=0.35)
        assert_stream_equivalent(snapshots, 3.0, 3)

    def test_threshold_zero_always_runs_full_passes(self, monkeypatch):
        monkeypatch.setattr(incremental, "CHURN_THRESHOLD", 0.0)
        snapshots = walk_stream(29, ticks=10)
        clusterer = assert_stream_equivalent(snapshots, 3.0, 3)
        assert clusterer.counters["full_passes"] == 10
        assert clusterer.counters["incremental_passes"] == 0

    def test_threshold_one_never_falls_back(self, monkeypatch):
        monkeypatch.setattr(incremental, "CHURN_THRESHOLD", 1.0)
        snapshots = walk_stream(31, ticks=10, churn=0.9)
        clusterer = assert_stream_equivalent(snapshots, 3.0, 3)
        assert clusterer.counters["full_passes"] == 1  # first tick only

    def test_reset_drops_state(self):
        clusterer = IncrementalSnapshotClusterer(3.0, 2)
        snapshots = walk_stream(37, ticks=6, churn=0.05)
        for snapshot in snapshots[:3]:
            clusterer.cluster(snapshot)
        clusterer.reset()
        for snapshot in snapshots[3:]:
            assert clusterer.cluster(snapshot) == dbscan(snapshot, 3.0, 2)
        assert clusterer.counters["full_passes"] == 2

    def test_rejects_bad_parameters(self):
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps"):
                IncrementalSnapshotClusterer(eps, 2)
        with pytest.raises(ValueError):
            IncrementalSnapshotClusterer(1.0, 0)

    def test_rejects_non_finite_coordinates_in_delta(self):
        clusterer = IncrementalSnapshotClusterer(1.0, 2)
        clusterer.cluster({"a": (0.0, 0.0), "b": (1.0, 0.0)})
        with pytest.raises(ValueError, match="finite"):
            clusterer.cluster({"a": (0.0, 0.0), "b": (math.nan, 0.0)})


class TestMinerEquivalence:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("churn", [0.05, 0.3])
    def test_churn_stream_convoys_identical(self, paper_semantics, churn):
        def run(clusterer):
            return mine_stream(
                churn_stream(60, 60, seed=19, eps=8.0, churn=churn,
                             turnover=0.02),
                m=3, k=5, eps=8.0, paper_semantics=paper_semantics,
                clusterer=clusterer,
            )

        assert run("incremental") == run(None)

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_synthetic_stream_convoys_identical(self, paper_semantics):
        def run(clusterer):
            return mine_stream(
                synthetic_stream(50, 60, seed=2, eps=10.0),
                m=3, k=8, eps=10.0, paper_semantics=paper_semantics,
                clusterer=clusterer,
            )

        assert run("incremental") == run(None)

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_database_replay_with_gaps_identical(self, paper_semantics):
        spec = synthetic_dataset(
            "inc-replay", 13, n_objects=30, t_domain=40, eps=5.0, m=3, k=6,
            episode_count=4, episode_size=(3, 5),
            alive_fraction=(0.4, 0.9), keep_probability=0.8,
        )

        def run(clusterer):
            return mine_stream(
                replay_database(spec.database), m=3, k=6, eps=5.0,
                paper_semantics=paper_semantics, clusterer=clusterer,
            )

        assert run("incremental") == run(None)

    def test_incremental_path_actually_used_by_miner(self):
        miner = StreamingConvoyMiner(3, 5, 8.0, clusterer="incremental")
        for t, snapshot in churn_stream(60, 30, seed=41, eps=8.0,
                                        churn=0.05):
            miner.feed(t, snapshot)
        miner.flush()
        assert miner.clusterer.counters["incremental_passes"] >= 28

    def test_offline_cmc_accepts_clusterer(self):
        spec = synthetic_dataset(
            "inc-cmc", 3, n_objects=25, t_domain=30, eps=5.0, m=3, k=5,
            episode_count=3, episode_size=(3, 4),
        )
        base = cmc(spec.database, 3, 5, 5.0)
        assert mine_stream(
            replay_database(spec.database), 3, 5, 5.0,
            clusterer="incremental",
        ) == base


class TestClustererStrategyParameter:
    def test_default_and_full_have_no_clusterer_object(self):
        assert StreamingConvoyMiner(2, 3, 1.0).clusterer is None
        assert StreamingConvoyMiner(2, 3, 1.0, clusterer="full").clusterer \
            is None

    def test_custom_clusterer_object_is_used(self):
        calls = []

        class Recorder:
            def cluster(self, snapshot):
                calls.append(dict(snapshot))
                return dbscan(snapshot, 2.0, 2)

        miner = StreamingConvoyMiner(2, 3, 2.0, clusterer=Recorder())
        miner.feed(0, {"a": (0.0, 0.0), "b": (1.0, 0.0)})
        miner.feed(1, {"a": (0.0, 0.0), "b": (1.0, 0.0)})
        assert len(calls) == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="clusterer"):
            StreamingConvoyMiner(2, 3, 1.0, clusterer="fastest")
        with pytest.raises(ValueError, match="clusterer"):
            StreamingConvoyMiner(2, 3, 1.0, clusterer=object())
