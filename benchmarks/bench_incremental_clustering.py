"""Incremental vs full-pass snapshot clustering — snapshots/sec by churn.

Not a paper figure: the paper clusters every snapshot from scratch (the
``DBSCAN(O_t, e, m)`` of Algorithm 1).  This bench charts what the
ROADMAP's incremental-DBSCAN follow-up buys: feed identical
:func:`~repro.streaming.churn_stream` snapshot sequences through a fresh
:func:`~repro.clustering.dbscan.dbscan` per tick and through an
:class:`~repro.clustering.incremental.IncrementalSnapshotClusterer`, and
report both ingest rates, the speedup, and the fraction of points the
incremental pass actually re-clustered.  The two paths return identical
clusters at every tick (asserted here on every run, and exhaustively in
``tests/clustering/test_incremental_equivalence.py``), so the speedup is
free of semantic caveats.

The interesting rows are low churn — a mostly-parked GPS fleet where
<= 10% of objects move beyond ``eps/2`` per tick.  There the incremental
pass only pays for the movers' neighbourhoods: one full run on a 2-vCPU
VM read 3.6x the fresh pass at 1% churn, 2.2x at 5% and 1.3x at 10%.
Past 20% churn per tick (``CHURN_THRESHOLD``) the clusterer falls back
to its own full pass by itself (the ``full`` column shows the fallback
engaging), which costs more than a fresh pass.

Run ``python benchmarks/bench_incremental_clustering.py`` for the table,
or with ``--smoke`` for a seconds-long CI-sized run that still checks
tick-for-tick equivalence and that the delta path was exercised.
"""

import argparse
import time

import pytest

from benchmarks.common import print_report, write_bench_json
from repro.bench import format_table
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.streaming import churn_stream

M, EPS = 3, 10.0

#: churn levels swept by the CLI report; the headline row is 0.10 (the
#: "low-churn" acceptance regime: <= 10% movers beyond eps/2 per tick).
CHURN_LEVELS = (0.01, 0.05, 0.10, 0.25, 0.50)

FULL_SCALE = dict(n_objects=800, n_snapshots=120, turnover=0.01)
SMOKE_SCALE = dict(n_objects=120, n_snapshots=25, turnover=0.01)


def make_snapshots(churn, *, n_objects, n_snapshots, turnover, seed=42):
    """Materialize one churn stream so both paths see identical input."""
    return [
        snapshot
        for _t, snapshot in churn_stream(
            n_objects, n_snapshots, seed=seed, eps=EPS, churn=churn,
            turnover=turnover,
        )
    ]


def run_full(snapshots):
    """Fresh dbscan() per tick; returns (answers, seconds)."""
    started = time.perf_counter()
    answers = [dbscan(snapshot, EPS, M) for snapshot in snapshots]
    return answers, time.perf_counter() - started


def run_incremental(snapshots):
    """One clusterer across ticks; returns (answers, counters, seconds)."""
    clusterer = IncrementalSnapshotClusterer(EPS, M)
    started = time.perf_counter()
    answers = [clusterer.cluster(snapshot) for snapshot in snapshots]
    return answers, clusterer.counters, time.perf_counter() - started


def compare(churn, scale):
    """Run both paths on one churn level; assert equality; return a row."""
    snapshots = make_snapshots(churn, **scale)
    full_answers, full_seconds = run_full(snapshots)
    inc_answers, counters, inc_seconds = run_incremental(snapshots)
    assert inc_answers == full_answers, (
        f"incremental clustering diverged from dbscan at churn={churn}"
    )
    n = len(snapshots)
    return {
        "churn": churn,
        "snapshots": n,
        "points": counters["clustered_points"],
        "full_rate": n / full_seconds,
        "inc_rate": n / inc_seconds,
        "speedup": full_seconds / inc_seconds,
        "full_passes": counters["full_passes"],
        "reclustered_pct": 100.0 * counters["reclustered_points"]
        / max(counters["clustered_points"], 1),
    }


@pytest.mark.parametrize("churn, mode", [
    pytest.param(0.05, "delta", id="delta"),
    pytest.param(0.25, "fallback", id="fallback"),
])
def test_incremental_clustering_benchmark(benchmark, churn, mode):
    """Times one pass mix each: at 5% churn every tick after the first
    runs a delta pass; at 25% (above ``CHURN_THRESHOLD``) every tick
    falls back to a full pass.  Both must answer as a fresh dbscan()."""
    snapshots = make_snapshots(churn, **SMOKE_SCALE)

    def run():
        return run_incremental(snapshots)

    answers, counters, seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert answers == [dbscan(snapshot, EPS, M) for snapshot in snapshots]
    n = len(snapshots)
    want = (1, n - 1) if mode == "delta" else (n, 0)
    assert (counters["full_passes"], counters["incremental_passes"]) == want
    benchmark.extra_info["snapshots_per_sec"] = round(n / seconds, 1)
    benchmark.extra_info["reclustered_points"] = counters[
        "reclustered_points"
    ]
    benchmark.extra_info["full_passes"] = counters["full_passes"]
    benchmark.extra_info["incremental_passes"] = counters[
        "incremental_passes"
    ]


def test_low_churn_mostly_splices():
    """The cost model behind the speedup, asserted without wall clocks: at
    10% churn the delta path handles nearly every tick and re-clusters a
    minority of the points."""
    snapshots = make_snapshots(0.10, **SMOKE_SCALE)
    answers, counters, _seconds = run_incremental(snapshots)
    assert answers == [dbscan(s, EPS, M) for s in snapshots]
    assert counters["incremental_passes"] == len(snapshots) - 1
    assert counters["reclustered_points"] < 0.6 * counters["clustered_points"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny stream, two churn levels, equivalence and "
        "delta-path assertions only (timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(params, rates, speedup, git SHA)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    levels = (0.05, 0.10) if args.smoke else CHURN_LEVELS
    json_rows = []
    rows = []
    for churn in levels:
        r = compare(churn, scale)
        json_rows.append(r)
        rows.append([
            f"{r['churn']:.0%}",
            r["snapshots"],
            r["points"],
            round(r["full_rate"], 1),
            round(r["inc_rate"], 1),
            f"{r['speedup']:.2f}x",
            r["full_passes"],
            f"{r['reclustered_pct']:.0f}%",
        ])
        if args.smoke and r["full_passes"] >= r["snapshots"]:
            raise SystemExit(
                f"smoke failure: delta path never engaged at churn "
                f"{churn:.0%}"
            )
    print_report(
        format_table(
            "Incremental vs full snapshot clustering — churn_stream "
            f"({scale['n_objects']} objects, m={M}, e={EPS:g}; identical "
            "clusters asserted every tick)",
            ["churn", "snapshots", "points", "full snap/s", "incr snap/s",
             "speedup", "full passes", "reclustered"],
            rows,
        )
    )
    if args.json:
        write_bench_json(
            args.json, "incremental_clustering",
            dict(m=M, eps=EPS, smoke=args.smoke, **scale),
            json_rows,
        )
        print(f"json results written to {args.json}")
    if args.smoke:
        print("smoke ok: incremental == dbscan on every tick, delta path "
              "exercised")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
