"""Tests for the snapshot-source adapters."""

import math
import random

import pytest

from repro.baselines import discover_flocks, mc2
from repro.clustering.dbscan import dbscan
from repro.core.cmc import cmc
from repro.core.verification import is_valid_convoy
from repro.io.csv_io import save_trajectories_csv
from repro.streaming import (
    StreamingConvoyMiner,
    churn_stream,
    hotspot_drift_scenario,
    replay_csv,
    replay_database,
    synthetic_stream,
)
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory
from tests.oracle import snapshot


@pytest.fixture
def staggered_db():
    return TrajectoryDatabase(
        [
            Trajectory("a", [(float(t), 0.0, t) for t in range(10)]),
            Trajectory("b", [(float(t), 1.0, t) for t in range(3, 8)]),
            # c has samples only at t=4 and t=6: t=5 is interpolated.
            Trajectory("c", [(4.0, 5.0, 4), (6.0, 5.0, 6)]),
        ]
    )


class TestReplayDatabase:
    def test_yields_every_time_point(self, staggered_db):
        ticks = list(replay_database(staggered_db))
        assert [t for t, _ in ticks] == list(range(10))

    def test_snapshots_match_database_snapshot(self, staggered_db):
        for t, snapshot_t in replay_database(staggered_db):
            assert snapshot_t == snapshot(staggered_db, t)

    def test_interpolates_virtual_points(self, staggered_db):
        snapshots = dict(replay_database(staggered_db))
        assert snapshots[5]["c"] == (5.0, 5.0)  # midpoint of the two samples

    def test_time_range_restriction(self, staggered_db):
        ticks = list(replay_database(staggered_db, time_range=(4, 6)))
        assert [t for t, _ in ticks] == [4, 5, 6]
        assert set(ticks[0][1]) == {"a", "b", "c"}

    def test_reversed_time_range_rejected(self, staggered_db):
        with pytest.raises(ValueError):
            list(replay_database(staggered_db, time_range=(6, 4)))

    def test_empty_database_yields_nothing(self):
        assert list(replay_database(TrajectoryDatabase())) == []

    def test_dead_air_yields_empty_snapshots(self):
        """Mid-domain ticks where nothing is alive still appear (the engine
        needs them to break chains)."""
        db = TrajectoryDatabase(
            [
                Trajectory("a", [(0.0, 0.0, 0), (1.0, 0.0, 1)]),
                Trajectory("b", [(0.0, 0.0, 5), (1.0, 0.0, 6)]),
            ]
        )
        snapshots = dict(replay_database(db))
        assert list(snapshots) == list(range(7))
        assert snapshots[3] == {}


def irregular_db(seed, n=9, t_hi=40):
    """Random walks over random sub-intervals, each sample kept with
    probability 0.6 (the ends always)."""
    rng = random.Random(seed)
    trajectories = []
    for i in range(n):
        t0 = rng.randint(0, t_hi // 2)
        t1 = rng.randint(t0, t_hi)
        x, y = rng.uniform(0, 10), rng.uniform(0, 10)
        points = []
        for t in range(t0, t1 + 1):
            x += rng.uniform(-1, 1)
            y += rng.uniform(-1, 1)
            if t in (t0, t1) or rng.random() < 0.6:
                points.append((x, y, t))
        trajectories.append(Trajectory(f"o{i}", points))
    return TrajectoryDatabase(trajectories)


#: Every driver that reads a database's snapshots, each run with
#: parameters that find convoys on ``irregular_db(4)``.
SNAPSHOT_READERS = {
    "cmc": lambda db: cmc(db, 2, 3, 2.5),
    "replay_database": lambda db: list(replay_database(db)),
    "mc2": lambda db: mc2(db, 2.5, 2, 0.5),
    "discover_flocks": lambda db: discover_flocks(db, 2, 3, 2.5),
    "is_valid_convoy": lambda db: [
        is_valid_convoy(db, convoy, 2, 3, 2.5)
        for convoy in cmc(db, 2, 3, 2.5)
    ],
}


class TestCursorWalk:
    """replay_database walks each trajectory with a cursor: one pass per
    trajectory, no bisect per object and tick, and the positions of
    ``location_at`` bit for bit."""

    @pytest.mark.parametrize("time_range", [None, (7, 31), (-3, 45)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_positions_and_order_match_location_at(self, seed, time_range):
        db = irregular_db(seed)
        ticks = list(replay_database(db, time_range))
        t_lo, t_hi = time_range or (db.min_time, db.max_time)
        by_start = sorted(db, key=lambda tr: tr.start_time)
        assert [t for t, _ in ticks] == list(range(t_lo, t_hi + 1))
        for t, snapshot_t in ticks:
            alive = [tr for tr in by_start
                     if tr.start_time <= t <= tr.end_time]
            assert list(snapshot_t) == [tr.object_id for tr in alive]
            for tr in alive:
                want = tr.location_at(t)
                got = snapshot_t[tr.object_id]
                assert (got[0].hex(), got[1].hex()) == (
                    want[0].hex(), want[1].hex()
                ), (t, tr.object_id)

    @pytest.mark.parametrize("reader", sorted(SNAPSHOT_READERS))
    def test_no_lookup_per_object_and_tick(self, monkeypatch, reader):
        """No driver falls back to the bisecting location lookup."""
        db = irregular_db(4)
        want = SNAPSHOT_READERS[reader](db)
        assert want

        def refuse(*_args):
            raise AssertionError("per-tick lookup")

        monkeypatch.setattr(Trajectory, "location_at", refuse)
        assert SNAPSHOT_READERS[reader](db) == want


class TestReplayCsv:
    def test_round_trips_database(self, staggered_db, tmp_path):
        path = tmp_path / "stream.csv"
        save_trajectories_csv(staggered_db, path)
        assert list(replay_csv(path)) == list(replay_database(staggered_db))


class TestSyntheticStream:
    def test_shape(self):
        ticks = list(synthetic_stream(30, 12, seed=1))
        assert len(ticks) == 12
        assert [t for t, _ in ticks] == list(range(12))
        for _, snapshot in ticks:
            assert len(snapshot) == 30
            assert set(snapshot) == {f"o{i}" for i in range(30)}

    def test_t_start_offset(self):
        ticks = list(synthetic_stream(5, 3, seed=1, t_start=100))
        assert [t for t, _ in ticks] == [100, 101, 102]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            list(synthetic_stream(0, 5))
        with pytest.raises(ValueError):
            list(synthetic_stream(5, 0))

    def test_rejects_bad_group_layout(self):
        with pytest.raises(ValueError):
            list(synthetic_stream(10, 5, group_size=0))
        with pytest.raises(ValueError):
            list(synthetic_stream(10, 5, group_size=-1))
        with pytest.raises(ValueError):
            list(synthetic_stream(10, 5, group_count=-1))
        # group_count=0 is legal: a stream of pure loners.
        ticks = list(synthetic_stream(10, 5, seed=1, group_count=0))
        assert all(len(snapshot) == 10 for _, snapshot in ticks)

    def test_planted_groups_stay_within_eps(self):
        """Members of one planted group are pairwise within eps at every
        tick — each group is a convoy for any m up to the group size."""
        eps = 10.0
        group_size = 5
        for t, snapshot in synthetic_stream(
            40, 25, seed=3, eps=eps, group_count=2, group_size=group_size
        ):
            for group in range(2):
                members = [f"o{group * group_size + i}"
                           for i in range(group_size)]
                for left in members:
                    for right in members:
                        lx, ly = snapshot[left]
                        rx, ry = snapshot[right]
                        assert math.hypot(lx - rx, ly - ry) <= eps

    def test_groups_clipped_to_object_count(self):
        """More requested groups than objects: groups are dropped, never
        an index error."""
        ticks = list(
            synthetic_stream(7, 3, seed=1, group_count=4, group_size=5)
        )
        assert all(len(snapshot) == 7 for _, snapshot in ticks)

    def test_objects_move(self):
        ticks = list(synthetic_stream(10, 20, seed=5))
        first = ticks[0][1]
        last = ticks[-1][1]
        moved = sum(1 for key in first if first[key] != last[key])
        assert moved >= 9  # walkers actually walk


class TestChurnStream:
    def test_shape_and_determinism(self):
        a = list(churn_stream(30, 12, seed=9, churn=0.2, turnover=0.1))
        b = list(churn_stream(30, 12, seed=9, churn=0.2, turnover=0.1))
        assert a == b
        assert [t for t, _snap in a] == list(range(12))
        assert all(len(snap) == 30 for _t, snap in a)

    def test_churn_fraction_moves_per_tick(self):
        ticks = list(churn_stream(100, 10, seed=4, eps=5.0, churn=0.1))
        for (_, before), (_, after) in zip(ticks, ticks[1:]):
            movers = [o for o in before if after[o] != before[o]]
            assert len(movers) == 10
            # every hop clears eps/2 — the "movers beyond eps/2" regime
            for o in movers:
                (x0, y0), (x1, y1) = before[o], after[o]
                hop = math.hypot(x1 - x0, y1 - y0)
                assert hop >= 2.5  # eps / 2
                assert 0.0 <= x1 <= 200.0 and 0.0 <= y1 <= 200.0

    def test_zero_churn_freezes_positions(self):
        ticks = list(churn_stream(25, 8, seed=1, churn=0.0))
        assert all(snap == ticks[0][1] for _t, snap in ticks)

    def test_turnover_replaces_ids(self):
        ticks = list(churn_stream(40, 6, seed=2, churn=0.0, turnover=0.25))
        first_ids = set(ticks[0][1])
        last_ids = set(ticks[-1][1])
        assert len(last_ids) == 40
        assert first_ids != last_ids

    def test_snapshots_are_fresh_dicts(self):
        ticks = list(churn_stream(10, 3, seed=0, churn=0.0))
        ticks[0][1].clear()
        assert len(ticks[1][1]) == 10

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            list(churn_stream(0, 5))
        with pytest.raises(ValueError):
            list(churn_stream(5, 0))
        with pytest.raises(ValueError):
            list(churn_stream(5, 5, churn=1.5))
        with pytest.raises(ValueError):
            list(churn_stream(5, 5, turnover=-0.1))
        with pytest.raises(ValueError):
            list(churn_stream(5, 5, eps=10.0, max_hop=1.0))
        with pytest.raises(ValueError):
            list(churn_stream(5, 5, eps=10.0, area=5.0))  # hops can't fit


#: The generators that take ``jitter=`` / ``jitter_seed=``.
JITTERABLE = [synthetic_stream, churn_stream]


class TestJitteredSources:
    """The ``jitter=`` variants of the generators: same snapshots, a
    bounded, seeded shuffle of their arrival order."""

    @pytest.mark.parametrize("make", JITTERABLE)
    def test_same_ticks_as_the_unjittered_stream(self, make):
        base = list(make(25, 30, seed=7, eps=8.0))
        jittered = list(make(25, 30, seed=7, eps=8.0, jitter=4))
        assert jittered != base
        assert sorted(jittered, key=lambda tick: tick[0]) == base

    @pytest.mark.parametrize("make", JITTERABLE)
    def test_lateness_stays_below_jitter(self, make):
        jitter = 5
        max_seen = None
        for t, _snapshot in make(20, 50, seed=3, eps=8.0, jitter=jitter):
            if max_seen is not None:
                assert max_seen - t < jitter
                max_seen = max(max_seen, t)
            else:
                max_seen = t

    @pytest.mark.parametrize("make", JITTERABLE)
    def test_jitter_seed_controls_only_the_order(self, make):
        a = list(make(15, 25, seed=9, eps=8.0, jitter=4, jitter_seed=1))
        b = list(make(15, 25, seed=9, eps=8.0, jitter=4, jitter_seed=2))
        assert a != b
        assert (sorted(a, key=lambda tick: tick[0])
                == sorted(b, key=lambda tick: tick[0]))

    @pytest.mark.parametrize("make", JITTERABLE)
    def test_jitter_is_deterministic(self, make):
        assert (list(make(15, 25, seed=9, eps=8.0, jitter=4))
                == list(make(15, 25, seed=9, eps=8.0, jitter=4)))

    @pytest.mark.parametrize("make", JITTERABLE)
    def test_zero_jitter_is_the_default_order(self, make):
        assert (list(make(15, 25, seed=9, eps=8.0, jitter=0))
                == list(make(15, 25, seed=9, eps=8.0)))

    @pytest.mark.parametrize("make", JITTERABLE)
    def test_negative_jitter_rejected(self, make):
        with pytest.raises(ValueError, match="jitter"):
            list(make(15, 25, seed=9, eps=8.0, jitter=-1))


class TestHotspotDrift:
    """The rigid-pack generator behind the dense-candidate workloads."""

    def test_scenario_is_a_pure_function_of_its_seed(self):
        scenario = list(hotspot_drift_scenario(30, 12, seed=4, eps=6.0,
                                               hotspots=3))
        assert scenario == list(hotspot_drift_scenario(30, 12, seed=4,
                                                       eps=6.0, hotspots=3))
        assert scenario != list(hotspot_drift_scenario(30, 12, seed=5,
                                                       eps=6.0, hotspots=3))
        assert [t for t, _, _ in scenario] == list(range(12))
        assert all(len(snapshot) == 30 for _, snapshot, _ in scenario)

    def test_t_start_offsets_every_tick(self):
        ticks = list(hotspot_drift_scenario(8, 5, seed=1, t_start=100))
        assert [t for t, _, _ in ticks] == [100, 101, 102, 103, 104]

    def test_groups_split_the_packed_ids_round_robin(self):
        n, background, hotspots = 43, 0.3, 4
        _t, snapshot, groups = next(iter(hotspot_drift_scenario(
            n, 1, seed=2, hotspots=hotspots, background=background,
        )))
        packed = n - round(background * n)
        assert len(groups) == hotspots
        assert set().union(*groups) == {f"h{i}" for i in range(packed)}
        assert sum(len(group) for group in groups) == packed  # disjoint
        sizes = sorted(len(group) for group in groups)
        assert sizes[-1] - sizes[0] <= 1
        walkers = set(snapshot) - set().union(*groups)
        assert len(walkers) == round(background * n)

    def test_more_hotspots_than_packed_objects_drops_empty_packs(self):
        _t, _snapshot, groups = next(iter(hotspot_drift_scenario(
            5, 1, seed=0, hotspots=8, background=0.0,
        )))
        assert sorted(len(group) for group in groups) == [1] * 5

    def test_packs_stay_rigid_and_inside_the_world(self):
        """Every pack keeps its members within eps/2 of each other at
        every tick, and wall reflection keeps the centers in the world."""
        eps, area = 4.0, 40.0
        ticks = list(hotspot_drift_scenario(
            24, 120, seed=8, eps=eps, hotspots=3, background=0.25,
            drift=3.0, area=area,
        ))
        groups = ticks[0][2]
        for _t, snapshot, tick_groups in ticks:
            assert tick_groups == groups
            for group in groups:
                points = [snapshot[o] for o in group]
                for ax, ay in points:
                    assert -eps / 4 <= ax <= area + eps / 4
                    assert -eps / 4 <= ay <= area + eps / 4
                    for bx, by in points:
                        assert math.hypot(ax - bx, ay - by) <= eps / 2 + 1e-9
        # Fast drift in a small world: the packs must have bounced.
        first = ticks[0][1]["h0"]
        assert any(
            snapshot["h0"] != first for _t, snapshot, _g in ticks[1:]
        )

    def test_every_pack_is_a_cluster_at_every_tick(self):
        eps, m = 5.0, 3
        for _t, snapshot, groups in hotspot_drift_scenario(
                30, 15, seed=6, eps=eps, hotspots=4, background=0.2):
            clusters = dbscan(snapshot, eps, m)
            for group in groups:
                assert any(group <= set(c) for c in clusters)

    def test_every_pack_is_mined_as_a_whole_stream_convoy(self):
        n_snapshots = 12
        ticks = list(hotspot_drift_scenario(
            24, n_snapshots, seed=3, eps=5.0, hotspots=3, background=0.0,
        ))
        groups = ticks[0][2]
        miner = StreamingConvoyMiner(min(map(len, groups)), n_snapshots, 5.0)
        convoys = []
        for t, snapshot, _groups in ticks:
            convoys.extend(miner.feed(t, snapshot))
        convoys.extend(miner.flush())
        for group in groups:
            assert any(
                group <= set(convoy.objects)
                and (convoy.t_start, convoy.t_end) == (0, n_snapshots - 1)
                for convoy in convoys
            )

    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_objects=0), "n_objects"),
        (dict(n_snapshots=0), "n_snapshots"),
        (dict(hotspots=0), "hotspots"),
        (dict(background=-0.1), "background"),
        (dict(background=1.5), "background"),
    ])
    def test_rejects_bad_parameters(self, kwargs, match):
        args = dict(n_objects=10, n_snapshots=5)
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            list(hotspot_drift_scenario(**args))
