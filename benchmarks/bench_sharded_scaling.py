"""Sharded candidate tracking — scaling curve at 1/2/4 shards by executor.

The staged pipeline makes the candidate tracker swappable, and the
sharding layer fans its per-tick matching work across executor backends;
this bench answers the questions that decide whether that layer may
exist at all:

* **Zero-overhead refactor** — the sharded tracker on the *serial*
  executor must hold within 10% of the unsharded engine (``SERIAL_BAR``),
  at 1 shard (pure layer cost) and as shards grow (routing cost).
* **Real scaling** — the *process* executor must show a measurable
  multi-core speedup on a tracker-bound workload (``PROCESS_BAR``,
  asserted only when the machine actually has >1 core; single-core
  hosts still record the rows so the JSON trajectory shows the
  overhead honestly).
* **Resident payload win** — the resident transports hold shard state
  inside long-lived workers, so only per-tick deltas cross the process
  boundary.  The byte pass below runs a delta-friendly *group-swap*
  workload through the stateless and resident sharded trackers with
  pickle-level byte accounting and asserts the resident payload per
  tick is at least ``BYTES_BAR`` times smaller (the stateless path
  re-ships every scanned candidate's object set and the tick's cluster
  sets every tick; resident mode ships cluster ids, dirty members, and
  splice/seed deltas).  The payload ratio is transport-independent, so
  the pass runs on the serial executor and holds for process workers
  byte for byte.

The timing workload is deliberately tracker-bound: a
``synthetic_stream`` with many planted co-travelling groups is
clustered **once** up front, and a replaying clusterer feeds the
precomputed per-tick cluster lists to every engine, so the measured
per-tick cost is almost entirely the candidate step (hundreds of
clusters joined against >1000 live candidates).  ``--hotspots H`` swaps
in a ``churn_stream(hotspots=H)`` workload instead — movement confined
to H seeded spatial hotspots — to chart the unbalanced-shard regime
(``max_shard_batch`` exposes the skew).  ``--resident`` extends the
timing grid with resident-transport cells (wall-clock is reported for
the trajectory but not gated — the resident win is bytes, asserted
above, not single-host speed).

Every configuration's per-tick emissions are asserted equal to the
unsharded engine's on every run — the scaling numbers carry no semantic
caveats (the exhaustive proof is ``tests/streaming/
test_sharded_equivalence.py``).

Run ``python benchmarks/bench_sharded_scaling.py`` for the table,
``--smoke`` for a seconds-long CI-sized run (equivalence and byte
assertions only), and ``--json PATH`` for the machine-readable record
CI uploads as a perf-trajectory artifact
(``BENCH_sharded_scaling.json``).
"""

import argparse
import os
import random
import time

from benchmarks.common import print_report, write_bench_json
from repro.bench import format_table
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import (
    APPEARED,
    CHANGED,
    UNCHANGED,
    ClusterDelta,
)
from repro.streaming import StreamingConvoyMiner, churn_stream, synthetic_stream

M, K, EPS = 3, 8, 10.0

#: (shards, executor, resident) cells of the scaling curve, in report
#: order (legacy 2-tuples are accepted and mean resident=False).
FULL_GRID = (
    (1, "serial", False),
    (2, "serial", False),
    (4, "serial", False),
    (2, "thread", False),
    (4, "thread", False),
    (1, "process", False),
    (2, "process", False),
    (4, "process", False),
)
SMOKE_GRID = (
    (1, "serial", False),
    (2, "serial", False),
    (2, "thread", False),
    (2, "process", False),
)

#: Extra cells appended by ``--resident`` (wall-clock recorded, not
#: gated; tick-equivalence asserted like every other cell).
RESIDENT_FULL_GRID = (
    (2, "serial", True),
    (4, "serial", True),
    (2, "process", True),
    (4, "process", True),
)
RESIDENT_SMOKE_GRID = (
    (2, "serial", True),
    (2, "thread", True),
    (2, "process", True),
)

FULL_SCALE = dict(n_objects=1600, n_snapshots=60, group_count=200,
                  group_size=8)
SMOKE_SCALE = dict(n_objects=240, n_snapshots=15, group_count=40,
                   group_size=6)

#: Group-swap delta workload scales for the byte pass: ``dirty_groups``
#: swap pairs mutate per tick, every other cluster arrives UNCHANGED,
#: so the resident payload tracks the dirty slice while the stateless
#: payload re-ships scanned state every tick.
BYTES_FULL_SCALE = dict(n_groups=240, group_size=16, n_snapshots=80,
                        dirty_groups=4)
BYTES_SMOKE_SCALE = dict(n_groups=120, group_size=16, n_snapshots=50,
                         dirty_groups=2)

#: serial-executor rate must stay within this fraction of unsharded.
SERIAL_BAR = 0.90
#: best process-executor speedup must clear this (multi-core hosts only).
PROCESS_BAR = 1.10
#: resident payload bytes/tick must be at least this many times smaller
#: than the stateless sharded payload on the group-swap workload.
BYTES_BAR = 5.0


class ReplayClusterer:
    """Feed precomputed per-tick cluster lists: clustering cost ~ zero,
    so the engine's measured per-tick cost is the candidate tracker."""

    def __init__(self, per_tick):
        self._ticks = iter(per_tick)

    def cluster(self, snapshot):
        return next(self._ticks)


class ReplayDeltaClusterer:
    """Feed precomputed ``(clusters, delta)`` pairs, driving the
    tracker's diff-aware ``advance_delta`` path every tick."""

    def __init__(self, per_tick):
        self._ticks = iter(per_tick)

    def cluster_with_delta(self, snapshot):
        return next(self._ticks)

    def cluster(self, snapshot):
        return self.cluster_with_delta(snapshot)[0]


def make_workload(scale, hotspots=None, seed=42):
    """Materialize snapshots and their per-tick clusterings once."""
    snapshots = make_snapshots(scale, hotspots, seed)
    clusters = [dbscan(snapshot, EPS, M) for snapshot in snapshots]
    return snapshots, clusters


def make_snapshots(scale, hotspots=None, seed=42):
    """Materialize the workload's snapshots alone."""
    if hotspots is None:
        ticks = synthetic_stream(
            scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
            group_count=scale["group_count"],
            group_size=scale["group_size"],
            area=60.0 * EPS,
        )
    else:
        ticks = churn_stream(
            scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
            churn=0.2, area=36.0 * EPS, hotspots=hotspots,
        )
    return [snapshot for _t, snapshot in ticks]


def make_delta_workload(n_groups, group_size, n_snapshots, dirty_groups,
                        seed=42):
    """Synthesize the group-swap delta stream for the byte pass.

    ``n_groups`` stable clusters with stable ids; every tick after the
    first, ``dirty_groups`` disjoint *pairs* of groups swap one member
    each (marked CHANGED), every other cluster arrives UNCHANGED.  The
    geometry never matters — the delta clusterer replays these lists —
    so the snapshot is one constant position dict.

    Returns ``(snapshots, per_tick)`` where ``per_tick`` holds the
    ``(clusters, delta)`` pairs for a :class:`ReplayDeltaClusterer`.
    """
    rng = random.Random(seed)
    groups = [
        {f"o{g * group_size + j}" for j in range(group_size)}
        for g in range(n_groups)
    ]
    snapshot = {f"o{i}": (0.0, 0.0) for i in range(n_groups * group_size)}
    per_tick = []
    for tick in range(n_snapshots):
        if tick == 0:
            status = [APPEARED] * n_groups
        else:
            status = [UNCHANGED] * n_groups
            mutated = rng.sample(range(n_groups), 2 * dirty_groups)
            for a, b in zip(mutated[::2], mutated[1::2]):
                x = rng.choice(sorted(groups[a]))
                y = rng.choice(sorted(groups[b]))
                groups[a].discard(x)
                groups[a].add(y)
                groups[b].discard(y)
                groups[b].add(x)
                status[a] = status[b] = CHANGED
        delta = ClusterDelta(
            ids=tuple(range(n_groups)), status=tuple(status), vanished=()
        )
        per_tick.append(([set(group) for group in groups], delta))
    return [snapshot] * n_snapshots, per_tick


def run_engine(snapshots, make_clusterer, shards=None, executor=None,
               resident=False, byte_accounting=False):
    """One full engine run; returns (per-tick emissions, counters, secs)."""
    miner = StreamingConvoyMiner(
        M, K, EPS, clusterer=make_clusterer(), shards=shards,
        executor=executor, resident=resident,
    )
    if byte_accounting:
        miner.pipeline.track.tracker.enable_byte_accounting()
    emitted = []
    started = time.perf_counter()
    with miner:
        for t, snapshot in enumerate(snapshots):
            emitted.append(miner.feed(t, snapshot))
        emitted.append(miner.flush())
    return emitted, miner.counters, time.perf_counter() - started


def _grid_cell(cell):
    """Normalize a grid cell: (shards, executor[, resident])."""
    shards, executor = cell[0], cell[1]
    resident = cell[2] if len(cell) > 2 else False
    return shards, executor, resident


def _row(shards, executor, resident, workload, n, seconds, base_seconds,
         emitted, counters, bytes_per_tick=(None, None)):
    shipped, result = bytes_per_tick
    payload = None if shipped is None else shipped + result
    return {
        "shards": shards,
        "executor": executor,
        "resident": resident,
        "workload": workload,
        "rate": n / seconds,
        "speedup_vs_unsharded": base_seconds / seconds,
        "convoys": sum(len(batch) for batch in emitted),
        "peak_candidates": counters["peak_candidates"],
        "sharded_candidates": counters["sharded_candidates"],
        "max_shard_batch": counters["max_shard_batch"],
        "seconds": seconds,
        "shipped_bytes_per_tick": shipped,
        "result_bytes_per_tick": result,
        "payload_bytes_per_tick": payload,
        "payload_reduction": None,
    }


def run_grid(scale, grid, hotspots=None):
    """Run the unsharded baseline plus every grid cell; assert per-tick
    equivalence; return (baseline_row, rows)."""
    snapshots, clusters = make_workload(scale, hotspots=hotspots)
    workload = (
        "planted groups" if hotspots is None
        else f"hotspot churn (H={hotspots})"
    )
    make_clusterer = lambda: ReplayClusterer(clusters)  # noqa: E731
    base_emitted, base_counters, base_seconds = run_engine(
        snapshots, make_clusterer
    )
    n = len(snapshots)
    baseline = _row(
        0, "unsharded", False, workload, n, base_seconds, base_seconds,
        base_emitted, dict(base_counters, sharded_candidates=0,
                           max_shard_batch=0),
    )
    rows = []
    for cell in grid:
        shards, executor, resident = _grid_cell(cell)
        emitted, counters, seconds = run_engine(
            snapshots, make_clusterer, shards=shards, executor=executor,
            resident=resident,
        )
        assert emitted == base_emitted, (
            f"sharded engine diverged from unsharded at shards={shards}, "
            f"executor={executor}, resident={resident}"
        )
        rows.append(_row(
            shards, executor, resident, workload, n, seconds,
            base_seconds, emitted, counters,
        ))
    return baseline, rows


def run_bytes(scale):
    """The byte pass: group-swap workload through the stateless and
    resident sharded trackers with pickle-level accounting.

    Returns ``(rows, reduction)`` — two rows (stateless, resident) plus
    the stateless/resident payload ratio, which the caller asserts
    against ``BYTES_BAR``.  Serial executor: the accounting pickles
    exactly what a process transport would ship, so the ratio is
    transport-independent.
    """
    snapshots, per_tick = make_delta_workload(**scale)
    make_clusterer = lambda: ReplayDeltaClusterer(per_tick)  # noqa: E731
    base_emitted, _counters, base_seconds = run_engine(
        snapshots, make_clusterer
    )
    n = len(snapshots)
    rows = []
    for resident in (False, True):
        emitted, counters, seconds = run_engine(
            snapshots, make_clusterer, shards=2, executor="serial",
            resident=resident, byte_accounting=True,
        )
        assert emitted == base_emitted, (
            f"byte-pass engine diverged from unsharded "
            f"(resident={resident})"
        )
        rows.append(_row(
            2, "serial", resident, "group swap", n, seconds, base_seconds,
            emitted, counters,
            bytes_per_tick=(counters["shipped_bytes"] / n,
                            counters["result_bytes"] / n),
        ))
    reduction = (
        rows[0]["payload_bytes_per_tick"] / rows[1]["payload_bytes_per_tick"]
    )
    rows[1]["payload_reduction"] = reduction
    return rows, reduction


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny stream, reduced grid, equivalence and "
        "payload-byte assertions only (timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(params, rates, speedups, payload bytes, git SHA)",
    )
    parser.add_argument(
        "--hotspots", type=int, default=None, metavar="H",
        help="swap in the skewed workload: churn confined to H seeded "
        "spatial hotspots (charts unbalanced shard load)",
    )
    parser.add_argument(
        "--resident", action="store_true",
        help="extend the timing grid with resident-transport cells "
        "(long-lived shard workers; wall-clock recorded, not gated)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    if args.resident:
        grid = grid + (
            RESIDENT_SMOKE_GRID if args.smoke else RESIDENT_FULL_GRID
        )
    bytes_scale = BYTES_SMOKE_SCALE if args.smoke else BYTES_FULL_SCALE
    cores = os.cpu_count() or 1
    baseline, rows = run_grid(scale, grid, hotspots=args.hotspots)
    bytes_rows, reduction = run_bytes(bytes_scale)
    table_rows = [[
        row["executor"] if row["shards"] else "(unsharded)",
        row["shards"] or "-",
        "yes" if row["resident"] else "-",
        round(row["rate"], 1),
        f"{row['speedup_vs_unsharded']:.2f}x",
        row["peak_candidates"],
        row["max_shard_batch"] or "-",
    ] for row in [baseline] + rows]
    print_report(
        format_table(
            "Sharded candidate tracking — precomputed-cluster "
            f"{baseline['workload']} workload ({scale['n_objects']} "
            f"objects, m={M}, k={K}, e={EPS:g}, {cores} core(s); "
            "identical convoys asserted every tick)",
            ["executor", "shards", "resident", "snap/s", "vs unsharded",
             "peak cands", "max batch"],
            table_rows,
        )
    )
    print_report(
        format_table(
            "Per-tick payload bytes — group-swap delta workload "
            f"({bytes_scale['n_groups']} groups x "
            f"{bytes_scale['group_size']}, "
            f"{bytes_scale['dirty_groups']} swap pair(s)/tick, "
            "2 shards, pickled bytes)",
            ["mode", "shipped B/tick", "result B/tick", "payload B/tick",
             "reduction"],
            [[
                "resident" if row["resident"] else "stateless",
                round(row["shipped_bytes_per_tick"], 1),
                round(row["result_bytes_per_tick"], 1),
                round(row["payload_bytes_per_tick"], 1),
                (f"{row['payload_reduction']:.2f}x"
                 if row["payload_reduction"] else "-"),
            ] for row in bytes_rows],
        )
    )
    if args.json:
        write_bench_json(
            args.json, "sharded_scaling",
            dict(m=M, k=K, eps=EPS, smoke=args.smoke, cores=cores,
                 hotspots=args.hotspots, resident=args.resident,
                 bytes_bar=BYTES_BAR, bytes_scale=bytes_scale, **scale),
            [baseline] + rows + bytes_rows,
        )
        print(f"json results written to {args.json}")
    if reduction < BYTES_BAR:
        raise SystemExit(
            f"acceptance failure: resident payload is only "
            f"{reduction:.2f}x smaller than the stateless sharded "
            f"payload on the group-swap workload, below the "
            f"{BYTES_BAR:.1f}x bar (resident mode must ship deltas, "
            f"not state)"
        )
    if args.smoke:
        print("smoke ok: all sharded configurations agree with the "
              "unsharded engine on every tick; resident payload "
              f"{reduction:.2f}x below stateless (bar {BYTES_BAR:.1f}x)")
        return 0
    timing_rows = [row for row in rows if not row["resident"]]
    serial_rows = [
        row for row in timing_rows if row["executor"] == "serial"
    ]
    worst_serial = min(row["speedup_vs_unsharded"] for row in serial_rows)
    if worst_serial < SERIAL_BAR:
        raise SystemExit(
            f"acceptance failure: serial-executor rate fell to "
            f"{worst_serial:.2f}x of the unsharded engine, below the "
            f"{SERIAL_BAR:.2f}x bar (the refactor must not tax the "
            f"hot path)"
        )
    process_rows = [
        row for row in timing_rows if row["executor"] == "process"
    ]
    best_process = max(row["speedup_vs_unsharded"] for row in process_rows)
    if cores >= 2:
        if best_process < PROCESS_BAR:
            raise SystemExit(
                f"acceptance failure: best process-executor speedup is "
                f"{best_process:.2f}x on {cores} cores, below the "
                f"{PROCESS_BAR:.2f}x bar"
            )
    else:
        print(
            f"note: single-core host — process-executor speedup bar "
            f"skipped (best observed {best_process:.2f}x; run on a "
            f"multi-core machine to chart real scaling)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
