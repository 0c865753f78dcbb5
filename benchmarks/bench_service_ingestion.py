"""Multi-tenant ingestion service — tenants × snapshots/sec, per-tick
latency percentiles, and the backpressure isolation proof.

The service multiplexes many tenants' miners over one bounded worker
pool (``repro.service``); this bench measures what that sharing costs
and proves what it must not cost:

* **solo** — one tenant on the service: the per-tenant baseline rate
  and per-tick latency distribution (p50/p95/p99);
* **fleet** — eight tenants (alternating full-pass and incremental
  pipelines) ingesting concurrently, each on its own connection: the
  fair-share throughput under saturation;
* **backpressure** — one deliberately slow tenant (``tick_delay`` in
  its worker step, a small ``max_queue`` high-water mark) next to a
  fast default tenant.  The bench asserts the contract: the slow
  tenant's queue stays bounded at its high-water mark with throttled
  enqueues observed (credit-based backpressure engaged, nothing
  dropped), and the fast tenant's per-step throughput stays within 20%
  of the solo baseline — one tenant's slowness must not starve the
  others.

Per-tick latency is measured by the dispatcher around each worker step,
so the percentiles isolate miner service time from client I/O; the
fast-vs-solo bar uses the same step clock because wall rates on
second-long smoke runs drown in connection setup noise.  The bar
compares *median* step times, each the median over
:data:`ISOLATION_RUNS` alternating solo and backpressure runs.  A step
of about 0.17 ms is mostly the thread hand-off into and out of the
worker pool, so its cost moves with where the host schedules the
threads.  On a 2-vCPU VM, one stalled step of 3 ms inside a sum of 30
swung the mean (``step_rate``), and one run's median step time ranged
over 0.09–0.43 ms between runs; the median over several alternating
runs moves only when every step slows down.

Run ``python benchmarks/bench_service_ingestion.py`` for the table,
``--smoke`` for a seconds-long CI-sized run (backpressure assertions
only), and ``--json PATH`` for the machine-readable record CI uploads
(``BENCH_service_ingestion.json``).
"""

import argparse
import asyncio
import math
import statistics
import time

from benchmarks.common import print_report, safe_rate, write_bench_json
from repro.bench import format_table
from repro.service import IngestionServer, ServiceClient
from repro.streaming import churn_stream

M, K, EPS = 3, 3, 6.0

BASE_CONFIG = dict(m=M, k=K, eps=EPS)

#: The slow tenant's per-tick sleep and high-water mark.
SLOW_TICK_DELAY = 0.003
SLOW_MAX_QUEUE = 8

FULL_SCALE = dict(n_objects=40, n_snapshots=200)
SMOKE_SCALE = dict(n_objects=12, n_snapshots=30)

FLEET_SIZE = 8

#: Solo and backpressure runs alternate this many times for the
#: isolation bar (see the module docstring).
ISOLATION_RUNS = 5

#: The fast tenant's floor: its per-step throughput over solo's.
ISOLATION_BAR = 0.8

#: Fields every result row carries (pinned by the schema guard in
#: ``tests/test_bench_harness.py``).
ROW_KEYS = {
    "run", "tenant", "snapshots", "rate", "step_rate", "p50_ms",
    "p95_ms", "p99_ms", "peak_queue", "throttled_waits", "convoys",
}


def tenant_ticks(index, scale):
    """Each tenant's own deterministic churn workload."""
    return list(churn_stream(
        seed=500 + index, eps=EPS, churn=0.15, turnover=0.05,
        area=60.0, **scale,
    ))


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending-sorted list."""
    if not sorted_values:
        return None
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values) - 1, max(0, rank - 1))]


async def drive(server, name, config, ticks, batch=8):
    """One tenant's full ingestion on its own connection.

    Returns ``(answer, session, wall_seconds)`` — the session object is
    kept past retirement for its latency samples and service counters.
    """
    started = time.perf_counter()
    async with ServiceClient("127.0.0.1", server.port) as client:
        await client.hello(name, config)
        session = server.sessions[name]
        for start in range(0, len(ticks), batch):
            await client.feed(name, ticks[start:start + batch])
        answer = await client.flush(name)
    return answer, session, time.perf_counter() - started


def make_row(run, name, answer, session, seconds, n_ticks):
    latencies = sorted(session.latencies)
    step_seconds = sum(latencies)
    return {
        "run": run,
        "tenant": name,
        "snapshots": n_ticks,
        "rate": safe_rate(n_ticks, seconds),
        "step_rate": safe_rate(n_ticks, step_seconds),
        "p50_ms": _ms(percentile(latencies, 50)),
        "p95_ms": _ms(percentile(latencies, 95)),
        "p99_ms": _ms(percentile(latencies, 99)),
        "peak_queue": session.service_counters["peak_queue"],
        "throttled_waits": session.service_counters["throttled_waits"],
        "convoys": len(answer["convoys"]),
    }


def _ms(seconds):
    return None if seconds is None else round(seconds * 1000.0, 4)


def run_tenants(run_name, specs, scale, max_workers):
    """Run ``specs`` (name -> config) concurrently; one row per tenant."""
    feeds = {
        name: tenant_ticks(i, scale)
        for i, name in enumerate(specs)
    }

    async def go():
        async with IngestionServer(max_workers=max_workers) as server:
            results = await asyncio.gather(*(
                drive(server, name, specs[name], feeds[name])
                for name in specs
            ))
        return results

    results = asyncio.run(go())
    rows = []
    for name, (answer, session, seconds) in zip(specs, results):
        assert answer["counters"]["snapshots"] == len(feeds[name]), (
            f"tenant {name} lost snapshots: {answer['counters']}"
        )
        rows.append(make_row(
            run_name, name, answer, session, seconds, len(feeds[name])
        ))
    return rows


def fleet_specs():
    """Eight tenants alternating full-pass and incremental pipelines."""
    specs = {}
    for i in range(FLEET_SIZE):
        config = dict(BASE_CONFIG)
        if i % 2:
            config["clusterer"] = "incremental"
        specs[f"tenant-{i}"] = config
    return specs


def isolation_runs(scale, fast_config=None):
    """Alternate :data:`ISOLATION_RUNS` solo and backpressure runs.

    Returns ``(solo_rows, backpressure_rows)``: one solo row, and one
    ``[slow, fast]`` row pair, per run.  ``fast_config`` replaces the
    fast tenant's default config (a negative control slows it down).
    """
    slow_config = dict(
        BASE_CONFIG, tick_delay=SLOW_TICK_DELAY,
        max_queue=SLOW_MAX_QUEUE,
    )
    fast_config = fast_config or dict(BASE_CONFIG)
    solo_rows, backpressure_rows = [], []
    for _ in range(ISOLATION_RUNS):
        solo_rows += run_tenants(
            "solo", {"solo": dict(BASE_CONFIG)}, scale, max_workers=2
        )
        backpressure_rows.append(run_tenants(
            "backpressure", {"slow": slow_config, "fast": fast_config},
            scale, max_workers=2,
        ))
    return solo_rows, backpressure_rows


def check_isolation(solo_rows, backpressure_rows):
    """Assert the fast tenant's median step rate is within 20% of solo's.

    Takes :func:`isolation_runs`' rows.  Each side's step time is the
    median over runs of the run's median (``p50_ms``) step time.
    """
    solo_ms = statistics.median(row["p50_ms"] for row in solo_rows)
    fast_ms = statistics.median(
        row["p50_ms"] for rows in backpressure_rows for row in rows
        if row["tenant"] == "fast"
    )
    assert 1.0 / fast_ms >= ISOLATION_BAR / solo_ms, (
        f"a slow neighbor degraded the fast tenant: median step "
        f"{fast_ms:.4f} ms vs solo {solo_ms:.4f} ms"
    )


def run_suite(smoke=False):
    """All three runs; returns the rows with the backpressure contract
    already asserted.  The rows hold the first solo and backpressure
    runs; every run is checked."""
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    solo_rows, backpressure_rows = isolation_runs(scale)
    rows = solo_rows[:1]
    rows += run_tenants("fleet", fleet_specs(), scale, max_workers=4)
    rows += backpressure_rows[0]
    for bp_rows in backpressure_rows:
        slow = next(r for r in bp_rows if r["tenant"] == "slow")
        # The backpressure contract.  Queue bounded at the high-water
        # mark with real throttled waits: the feed was flow-controlled,
        # never buffered without bound and never dropped.
        assert slow["throttled_waits"] > 0, (
            f"the slow tenant never hit its high-water mark: {slow}"
        )
        # Tick enqueues wait at the mark; control steps (drain/flush)
        # skip the throttle, so the hard bound is the mark plus one.
        assert slow["peak_queue"] <= SLOW_MAX_QUEUE + 1, (
            f"slow tenant queue {slow['peak_queue']} exceeded its "
            f"high-water mark {SLOW_MAX_QUEUE}"
        )
    # Isolation: the slow tenant sleeps in its worker slot; the fast
    # tenant's per-step throughput must stay within 20% of solo.
    check_isolation(solo_rows, backpressure_rows)
    return rows


def test_backpressure_bounds_queue_and_isolates_tenants():
    """The bench's own contract, exercised at test time on smoke scale."""
    rows = run_suite(smoke=True)
    assert {row["run"] for row in rows} == {
        "solo", "fleet", "backpressure"
    }
    for row in rows:
        assert set(row) == ROW_KEYS


def test_service_ingestion_benchmark(benchmark):
    ticks_per_tenant = SMOKE_SCALE["n_snapshots"]

    def run():
        return run_tenants(
            "fleet", fleet_specs(), SMOKE_SCALE, max_workers=4
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    total = FLEET_SIZE * ticks_per_tenant
    seconds = sum(
        row["snapshots"] / row["rate"] for row in rows if row["rate"]
    ) or None
    benchmark.extra_info["tenants"] = FLEET_SIZE
    benchmark.extra_info["snapshots"] = total
    if seconds:
        benchmark.extra_info["snapshots_per_sec"] = round(
            total / seconds, 1
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny streams, backpressure assertions only "
        "(timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(rates, latency percentiles, queue counters, git SHA)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    rows = run_suite(smoke=args.smoke)
    table_rows = [
        [
            row["run"], row["tenant"], row["snapshots"],
            round(row["rate"], 1) if row["rate"] else None,
            round(row["step_rate"], 1) if row["step_rate"] else None,
            row["p50_ms"], row["p95_ms"], row["p99_ms"],
            row["peak_queue"], row["throttled_waits"],
        ]
        for row in rows
    ]
    print_report(
        format_table(
            "Multi-tenant ingestion service — churn_stream "
            f"({scale['n_objects']} objects x {scale['n_snapshots']} "
            f"ticks per tenant, m={M}, k={K}, e={EPS:g}; backpressure "
            "bounds and fast-tenant isolation asserted)",
            ["run", "tenant", "snapshots", "snap/s", "step/s",
             "p50 ms", "p95 ms", "p99 ms", "peak q", "throttled"],
            table_rows,
        )
    )
    if args.json:
        write_bench_json(
            args.json, "service_ingestion",
            dict(m=M, k=K, eps=EPS, smoke=args.smoke,
                 fleet_size=FLEET_SIZE, slow_tick_delay=SLOW_TICK_DELAY,
                 slow_max_queue=SLOW_MAX_QUEUE, **scale),
            rows,
        )
        print(f"json results written to {args.json}")
    if args.smoke:
        print("smoke ok: slow tenant throttled at its high-water mark, "
              "fast tenant within 20% of solo median step rate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
