"""The incremental clusterer's one fallback rule.

A tick whose churn (insertions + removals + moves) exceeds
``CHURN_THRESHOLD`` of the new snapshot runs a full pass; any other tick
after the first runs a delta pass.  Either way the clustering is exactly
:func:`~repro.clustering.dbscan.dbscan`'s; these tests pin which pass
runs.
"""

import math
import random

import pytest

import repro.clustering.incremental as incremental
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import (
    CHURN_THRESHOLD,
    IncrementalSnapshotClusterer,
)
from repro.streaming import StreamingConvoyMiner, churn_stream

EPS, M = 5.0, 3


def churn_step(n, changes, kind, seed=7):
    """``(previous, current)`` snapshots: ``current`` holds ``n`` objects
    and differs from ``previous`` in exactly ``changes`` objects, made of
    moves, arrivals, departures, or a mix of all three."""
    rng = random.Random(seed)

    def place():
        return (rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))

    departures = {"departures": changes, "mixed": changes // 4}.get(kind, 0)
    arrivals = {"arrivals": changes, "mixed": changes // 4}.get(kind, 0)
    moves = changes - departures - arrivals
    previous = {f"o{i}": place() for i in range(n - arrivals + departures)}
    current = dict(previous)
    for o in list(previous)[:departures]:
        del current[o]
    for o in list(current)[:moves]:
        x, y = current[o]
        current[o] = (x + EPS, y)
    for i in range(arrivals):
        current[f"new{i}"] = place()
    assert len(current) == n
    return previous, current


def passes(previous, current):
    """Cluster both snapshots with one clusterer; return its counters."""
    clusterer = IncrementalSnapshotClusterer(EPS, M)
    clusterer.cluster(previous)
    assert clusterer.cluster(current) == dbscan(current, EPS, M)
    return clusterer.counters


@pytest.mark.parametrize("kind", ["moves", "arrivals", "departures", "mixed"])
@pytest.mark.parametrize("n", [100, 200])
def test_churn_at_the_threshold_runs_a_delta_pass(n, kind):
    """``CHURN_THRESHOLD * n`` changed objects still run a delta pass;
    one more runs a full pass."""
    at = math.floor(CHURN_THRESHOLD * n)
    assert at == CHURN_THRESHOLD * n  # the boundary is a whole object count
    counters = passes(*churn_step(n, at, kind))
    assert (counters["full_passes"], counters["incremental_passes"]) == (1, 1)
    counters = passes(*churn_step(n, at + 1, kind))
    assert (counters["full_passes"], counters["incremental_passes"]) == (2, 0)


def test_the_constant_is_read_on_every_tick(monkeypatch):
    snapshots = [
        snap for _t, snap in churn_stream(80, 6, seed=3, eps=EPS, churn=0.05)
    ]
    clusterer = IncrementalSnapshotClusterer(EPS, M)
    kinds = []
    for tick, snapshot in enumerate(snapshots):
        monkeypatch.setattr(
            incremental, "CHURN_THRESHOLD", 0.0 if tick % 2 else 1.0
        )
        fulls = clusterer.counters["full_passes"]
        assert clusterer.cluster(snapshot) == dbscan(snapshot, EPS, M)
        kinds.append(
            "full" if clusterer.counters["full_passes"] > fulls else "delta"
        )
    assert kinds == ["full", "full", "delta", "full", "delta", "full"]


def test_high_churn_runs_only_full_passes():
    """``bench_incremental_tracking.py``'s 30% level: 60 moves plus 2
    departures and 2 arrivals of 200 objects, about 32% per tick, is
    above the threshold on every tick."""
    snapshots = [
        snap for _t, snap in churn_stream(
            200, 12, seed=42, eps=10.0, churn=0.30, turnover=0.01,
            area=360.0,
        )
    ]
    clusterer = IncrementalSnapshotClusterer(10.0, M)
    for snapshot in snapshots:
        assert clusterer.cluster(snapshot) == dbscan(snapshot, 10.0, M)
    assert clusterer.counters["full_passes"] == len(snapshots)
    assert clusterer.counters["incremental_passes"] == 0


def test_serve_parked_feed_runs_one_full_pass():
    """The ``serve_parked`` feed shape: 25 moves plus 5 departures and 5
    arrivals of 500 objects (7.0%) on every tick, jittered and restored
    by a reorder buffer.  Only the first tick runs a full pass."""
    miner = StreamingConvoyMiner(
        3, 8, 10.0, clusterer="incremental", reorder={"allowed_lateness": 3}
    )
    for t, snapshot in churn_stream(500, 40, seed=0, eps=10.0, churn=0.05,
                                    turnover=0.01, area=600.0, jitter=3):
        miner.feed(t, snapshot)
    miner.flush()
    counters = miner.clusterer.counters
    assert counters["ticks"] == 40
    assert counters["full_passes"] == 1
    assert counters["incremental_passes"] == 39
