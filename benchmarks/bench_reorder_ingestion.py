"""Out-of-order ingestion — snapshots/sec and buffer occupancy by lateness.

The reorder buffer buys out-of-order tolerance with two bounded costs:
latency (a snapshot waits until the watermark passes it) and memory (the
pending heap).  This bench charts both against the ``allowed_lateness``
setting, for both clusterer pipelines, on identically jittered
``churn_stream`` feeds:

* ``full``        — fresh DBSCAN per tick;
* ``incremental`` — incremental clustering (dirty-region maintenance).

Each lateness row feeds a stream jittered to just fit the watermark
(``jitter = allowed_lateness``), so the buffer genuinely reorders on
most ticks; every run's convoys are asserted identical to the in-order,
bufferless run of the same pipeline (the differential suite in
``tests/streaming/test_reorder_equivalence.py`` proves the general
claim, the bench re-checks it on its own data).  The headline numbers
are snapshots/sec through the buffered path and the buffer's peak
occupancy, which must stay within the watermark bound (about
``jitter`` pending snapshots, never the whole stream).

Run ``python benchmarks/bench_reorder_ingestion.py`` for the table,
``--smoke`` for a seconds-long CI-sized run (equivalence and
occupancy-bound assertions only), and ``--json PATH`` to write the
machine-readable record CI uploads as a perf-trajectory artifact.
"""

import argparse
import time

import pytest

from benchmarks.common import print_report, write_bench_json
from repro.bench import format_table
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.streaming import StreamingConvoyMiner, churn_stream

M, K, EPS = 3, 10, 10.0
CHURN = 0.05

#: lateness settings swept by the CLI report (time units of watermark lag).
LATENESS_LEVELS = (2, 8, 32)

PIPELINES = ("full", "incremental")

FULL_SCALE = dict(n_objects=600, n_snapshots=120, turnover=0.01,
                  area=30.0 * EPS)
SMOKE_SCALE = dict(n_objects=100, n_snapshots=30, turnover=0.01,
                   area=12.0 * EPS)


def make_ticks(jitter, *, n_objects, n_snapshots, turnover, area, seed=42):
    """One jittered churn stream, materialized so every pipeline and the
    in-order baseline see the same data."""
    return list(churn_stream(
        n_objects, n_snapshots, seed=seed, eps=EPS, churn=CHURN,
        turnover=turnover, area=area, jitter=jitter,
    ))


def make_miner(pipeline, lateness=None):
    clusterer = None
    if pipeline == "incremental":
        clusterer = IncrementalSnapshotClusterer(EPS, M)
    reorder = None if lateness is None else dict(allowed_lateness=lateness)
    return StreamingConvoyMiner(M, K, EPS, clusterer=clusterer,
                                reorder=reorder)


def run_pipeline(pipeline, ticks, lateness=None):
    """Feed one pipeline; return (convoys, counters, seconds)."""
    miner = make_miner(pipeline, lateness)
    convoys = []
    started = time.perf_counter()
    for t, snapshot in ticks:
        convoys.extend(miner.feed(t, snapshot))
    convoys.extend(miner.flush())
    seconds = time.perf_counter() - started
    counters = dict(miner.counters)
    if miner.reorder is not None:
        counters.update(miner.reorder.counters)
    return convoys, counters, seconds


def inorder_baselines(scale):
    """One in-order, bufferless run per pipeline.

    Jitter only permutes arrival order, so the sorted stream — and hence
    the baseline — is identical for every lateness level; measuring it
    once keeps the bench from re-paying the slowest runs per row.
    """
    inorder = make_ticks(0, **scale)
    return {
        pipeline: run_pipeline(pipeline, inorder)
        for pipeline in PIPELINES
    }


def compare(lateness, scale, baselines):
    """Run all pipelines at one lateness; assert buffered == in-order
    convoys per pipeline and the occupancy bound; return the result row."""
    jittered = make_ticks(lateness, **scale)
    row = {"lateness": lateness, "snapshots": len(jittered)}
    for pipeline in PIPELINES:
        base_convoys, _c, base_seconds = baselines[pipeline]
        convoys, counters, seconds = run_pipeline(
            pipeline, jittered, lateness=lateness
        )
        assert convoys == base_convoys, (
            f"{pipeline} pipeline through the reorder buffer diverged "
            f"from its in-order run at lateness={lateness}"
        )
        assert counters["late_dropped"] == 0, (
            f"jitter within lateness must never drop: {counters}"
        )
        assert counters["peak_pending"] <= lateness + 1, (
            f"buffer occupancy {counters['peak_pending']} exceeded the "
            f"watermark bound at lateness={lateness}"
        )
        n = len(jittered)
        row[f"{pipeline}_rate"] = n / seconds
        row[f"{pipeline}_inorder_rate"] = n / base_seconds
        if pipeline == "incremental":
            row["convoys"] = len(convoys)
            row["reordered_snapshots"] = counters["reordered_snapshots"]
            row["peak_pending"] = counters["peak_pending"]
            row["overhead_pct"] = 100.0 * (seconds / base_seconds - 1.0)
    return row


@pytest.mark.parametrize("lateness", [2, 8])
def test_reorder_ingestion_benchmark(benchmark, lateness):
    ticks = make_ticks(lateness, **SMOKE_SCALE)

    def run():
        return run_pipeline("incremental", ticks, lateness=lateness)

    _convoys, counters, seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    benchmark.extra_info["snapshots_per_sec"] = round(
        len(ticks) / seconds, 1
    )
    benchmark.extra_info["peak_pending"] = counters["peak_pending"]


def test_buffered_equals_inorder_all_pipelines():
    """The bench's own equivalence check, exercised at test time too."""
    baselines = inorder_baselines(SMOKE_SCALE)
    for lateness in (2, 8):
        compare(lateness, SMOKE_SCALE, baselines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny stream, equivalence and occupancy-bound "
        "assertions only (timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(params, rates, occupancy, git SHA)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    baselines = inorder_baselines(scale)
    rows = []
    table_rows = []
    for lateness in LATENESS_LEVELS:
        row = compare(lateness, scale, baselines)
        rows.append(row)
        table_rows.append([
            lateness,
            row["snapshots"],
            row["convoys"],
            row["reordered_snapshots"],
            row["peak_pending"],
            round(row["full_rate"], 1),
            round(row["incremental_rate"], 1),
            f"{row['incremental_rate'] / row['incremental_inorder_rate']:.2f}x",
        ])
        if args.smoke and row["reordered_snapshots"] == 0:
            raise SystemExit(
                f"smoke failure: the buffer never reordered at lateness "
                f"{lateness}"
            )
    print_report(
        format_table(
            "Out-of-order ingestion — jittered churn_stream "
            f"({scale['n_objects']} objects, churn {CHURN:.0%}, m={M}, "
            f"k={K}, e={EPS:g}; buffered convoys == in-order convoys "
            "asserted for every pipeline)",
            ["lateness", "snapshots", "convoys", "reordered", "peak buf",
             "full snap/s", "incremental snap/s", "vs in-order"],
            table_rows,
        )
    )
    if args.json:
        write_bench_json(
            args.json, "reorder_ingestion",
            dict(m=M, k=K, eps=EPS, churn=CHURN, smoke=args.smoke,
                 lateness_levels=list(LATENESS_LEVELS), **scale),
            rows,
        )
        print(f"json results written to {args.json}")
    if args.smoke:
        print("smoke ok: buffered == in-order for every pipeline, "
              "occupancy within the watermark bound, reordering exercised")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
