"""End-to-end incremental convoy tracking — snapshots/sec by churn.

Two pipelines ingest identical ``churn_stream`` snapshot sequences
through a complete :class:`~repro.streaming.StreamingConvoyMiner`:

* ``full``        — fresh DBSCAN per tick;
* ``incremental`` — the
  :class:`~repro.clustering.incremental.IncrementalSnapshotClusterer`,
  which re-clusters only the dirty region around the objects that moved.

Both run one candidate ``advance`` per tick and emit identical convoys
at every tick — asserted here on every run, and exhaustively in
``tests/streaming/test_delta_equivalence.py`` — so the speedups carry no
semantic caveats.  The table shows where incremental clustering pays
end to end and where the churn threshold sends it back to full passes.
The sweep straddles that threshold, so the rows either side of it show
what the clusterer's delta pass and its own full pass cost.

Run ``python benchmarks/bench_incremental_tracking.py`` for the table
(each pipeline timed ``REPEATS`` times per level, the median reported),
``--smoke`` for a seconds-long CI-sized run (equivalence assertions and
a check that incremental passes ran), and ``--json PATH`` to also write
the machine-readable result record that CI uploads as a
perf-trajectory artifact.
"""

import argparse
import statistics
import time

import pytest

from benchmarks.common import print_report, write_bench_json
from repro.bench import format_table
from repro.streaming import StreamingConvoyMiner, churn_stream

M, K, EPS = 3, 10, 10.0
SEED = 42
#: Runs of each pipeline per churn level in a full run; the table
#: reports each pipeline's median run.
REPEATS = 3

#: churn levels swept by the CLI report; with 1% turnover the per-tick
#: churn is about two points higher, so 15% and 20% straddle the
#: clusterer's fallback threshold (``CHURN_THRESHOLD``).
CHURN_LEVELS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50)

#: Scales carry their own world side length (as a multiple of eps): the
#: point density must keep many independent mid-size clusters alive —
#: dense enough that clusters (hence live candidates) exist on most
#: ticks, sparse enough that one tick's movers do not touch every
#: cluster (a single giant blob leaves no clean region to keep).
FULL_SCALE = dict(
    n_objects=800, n_snapshots=120, turnover=0.01, area=36.0 * EPS
)
SMOKE_SCALE = dict(
    n_objects=120, n_snapshots=25, turnover=0.01, area=12.0 * EPS
)


def make_snapshots(churn, *, n_objects, n_snapshots, turnover, area,
                   seed=SEED):
    """Materialize one churn stream so every pipeline sees identical input."""
    return [
        snapshot
        for _t, snapshot in churn_stream(
            n_objects, n_snapshots, seed=seed, eps=EPS, churn=churn,
            turnover=turnover, area=area,
        )
    ]


def make_miner(pipeline):
    return StreamingConvoyMiner(M, K, EPS, clusterer=pipeline)


def run_pipeline(pipeline, snapshots):
    """Feed one pipeline; return (per-tick emissions, miner, seconds)."""
    miner = make_miner(pipeline)
    emitted = []
    started = time.perf_counter()
    for t, snapshot in enumerate(snapshots):
        emitted.append(miner.feed(t, snapshot))
    emitted.append(miner.flush())
    return emitted, miner, time.perf_counter() - started


def compare(churn, scale, repeats=1):
    """Run both pipelines ``repeats`` times on one churn level, in turn;
    assert tick-for-tick convoy equality on every run; return the result
    row, rates from each pipeline's median run."""
    snapshots = make_snapshots(churn, **scale)
    seconds = {"full": [], "incremental": []}
    for _ in range(repeats):
        results = {p: run_pipeline(p, snapshots) for p in seconds}
        base_emitted = results["full"][0]
        assert results["incremental"][0] == base_emitted, (
            f"incremental pipeline diverged from the full pipeline at "
            f"churn={churn}"
        )
        for p, (_emitted, _miner, elapsed) in results.items():
            seconds[p].append(elapsed)
    full_s = statistics.median(seconds["full"])
    inc_s = statistics.median(seconds["incremental"])
    n = len(snapshots)
    passes = results["incremental"][1].clusterer.counters
    return {
        "churn": churn,
        "snapshots": n,
        "convoys": sum(len(batch) for batch in base_emitted),
        "full_rate": n / full_s,
        "incremental_rate": n / inc_s,
        "speedup_vs_full": full_s / inc_s,
        "full_seconds_each": seconds["full"],
        "incremental_seconds_each": seconds["incremental"],
        "incremental_passes": passes["incremental_passes"],
        "full_passes": passes["full_passes"],
    }


@pytest.mark.parametrize("churn", [0.05, 0.25])
def test_incremental_tracking_benchmark(benchmark, churn):
    snapshots = make_snapshots(churn, **SMOKE_SCALE)

    def run():
        return run_pipeline("incremental", snapshots)

    _emitted, miner, seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    benchmark.extra_info["snapshots_per_sec"] = round(
        len(snapshots) / seconds, 1
    )
    benchmark.extra_info["incremental_passes"] = miner.clusterer.counters[
        "incremental_passes"
    ]


def test_low_churn_runs_incremental_passes():
    """At 1% churn every tick after the first is an incremental pass, and
    the pipelines agree."""
    row = compare(0.01, SMOKE_SCALE)
    assert row["full_passes"] == 1
    assert row["incremental_passes"] == row["snapshots"] - 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny stream, two churn levels, equivalence and "
        "incremental-pass assertions only (timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(params, rates, speedups, git SHA)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    levels = (0.05, 0.10) if args.smoke else CHURN_LEVELS
    rows = []
    table_rows = []
    for churn in levels:
        row = compare(churn, scale, 1 if args.smoke else REPEATS)
        rows.append(row)
        table_rows.append([
            f"{row['churn']:.0%}",
            row["snapshots"],
            row["convoys"],
            round(row["full_rate"], 1),
            round(row["incremental_rate"], 1),
            f"{row['speedup_vs_full']:.2f}x",
            f"{row['incremental_passes']}/{row['snapshots']}",
        ])
        if args.smoke and row["incremental_passes"] == 0:
            raise SystemExit(
                f"smoke failure: no incremental pass ran at churn "
                f"{churn:.0%}"
            )
    print_report(
        format_table(
            "End-to-end incremental convoy tracking — churn_stream "
            f"({scale['n_objects']} objects, m={M}, k={K}, e={EPS:g}; "
            "identical convoys asserted every tick)",
            ["churn", "snapshots", "convoys", "full snap/s",
             "incremental snap/s", "vs full", "incremental passes"],
            table_rows,
        )
    )
    if args.json:
        write_bench_json(
            args.json, "incremental_tracking",
            dict(m=M, k=K, eps=EPS, smoke=args.smoke,
                 repeats=1 if args.smoke else REPEATS,
                 generator="repro.streaming.churn_stream", seed=SEED,
                 **scale),
            rows,
        )
        print(f"json results written to {args.json}")
    if args.smoke:
        print("smoke ok: both pipelines agree on every tick, incremental "
              "passes exercised")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
