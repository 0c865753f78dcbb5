"""``serve_parked``: two tenants streaming parked fleets into ``serve``.

The measured process is a ``python -m repro.cli serve --workers 2``
subprocess (``perfbench/serve_traced.py`` in the traced run).  This
process is the load generator: an open loop that sends each tenant's
pre-encoded feed lines on a fixed schedule, with the two tenants half a
period apart, plus a dashboard that refreshes one tenant store at a
fixed rate.  A result's latency runs from the *scheduled* send of an
arrival to the receipt of the ``closed`` event it caused, so a stall
also counts against the arrivals queued behind it.

After the window each tenant flushes; its answer must equal
``mine_stream`` over the same arrivals with the same config, computed
here untimed, with no ``error`` event, no late drop and no throttled
send.
"""

from __future__ import annotations

import asyncio
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import common
from tracing import layer_report, load_trace

TENANTS = ("fleet-a", "fleet-b")
PARAMS = {
    "n_objects": 500,
    "eps": 10.0,
    "churn": 0.05,
    "turnover": 0.01,
    "area": 600.0,
    "jitter": 3,
}
CONFIG = {"m": 3, "k": 8, "eps": 10.0, "clusterer": "incremental",
          "reorder": {"allowed_lateness": 3}}
WORKERS = 2
#: Arrivals per second per tenant; the tenants are half a period apart.
RATE = 10.0
WARMUP_S = 2.0
#: Dashboard refreshes per second, alternating between the tenants,
#: each one started 35% into a send period: after the results of that
#: period's first send are usually back, before its second send.
READ_RATE = RATE
READ_PHASE = 0.35
READ_WINDOW = 50
DIGEST_TICKS = 64
#: Each tail percentile below has ten or more samples beyond it in the
#: traced run's half window (about 125 refreshes and 290 sends).
READ_TAIL_PERCENTILE = 90
SEND_LAG_PERCENTILE = 95


def tenant_seed(seed, index):
    return seed * len(TENANTS) + index


def spec(seed, seconds):
    return {
        "generator": "repro.streaming.source.churn_stream",
        "tenants": {
            tenant: {"params": dict(PARAMS, seed=tenant_seed(seed, i),
                                    n_snapshots=_ticks(seconds)),
                     "hello_config": dict(CONFIG, store="<workdir>/"
                                          f"{tenant}.sqlite")}
            for i, tenant in enumerate(TENANTS)
        },
        "server": f"python -m repro.cli serve --workers {WORKERS}",
        "rate_per_tenant": RATE,
        "phase_offset_s": 0.5 / RATE,
        "warmup_s": WARMUP_S,
        "dashboard": {"refreshes_per_s": READ_RATE,
                      "refresh": f"open; alive_in(last {READ_WINDOW} "
                                 "ticks); containing(object); "
                                 "top_k(by='size', k=10); close"},
        "loop": "open; latency from the scheduled send",
        "cpu_affinity": "client and servers pinned to one CPU, the "
                        "highest-numbered one the run may use",
    }


def _ticks(seconds):
    return int(round((WARMUP_S + seconds) * RATE))


def _stream(seed, index, n_snapshots):
    from repro.streaming.source import churn_stream

    return churn_stream(
        PARAMS["n_objects"], n_snapshots, tenant_seed(seed, index),
        eps=PARAMS["eps"], churn=PARAMS["churn"],
        turnover=PARAMS["turnover"], area=PARAMS["area"],
        jitter=PARAMS["jitter"],
    )


def input_digest(seed, workdir=None):
    return common.digest_ticks(
        tick for index in range(len(TENANTS))
        for tick in _stream(seed, index, DIGEST_TICKS)
    )


# --------------------------------------------------------------------
# Parent side


def run(seed, seconds, trace, workdir):
    # The load generator and the servers it starts share one CPU.  Then
    # a result's hand-offs (client -> server loop -> worker -> loop ->
    # client) switch between threads on a running CPU instead of waking
    # an idle one, and waking an idle vCPU is what a busy host delays.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        if not trace:
            outcome = asyncio.run(_session(seed, seconds, workdir, False,
                                           common.SETUP_SAMPLES))
            return _summary(seed, seconds, [outcome], outcome["e2e"])
        # The traced run reports no setup_s, so each half starts one
        # server.
        half = seconds / 2.0
        plain = asyncio.run(_session(seed, half, workdir / "plain", False,
                                     1))
        traced = asyncio.run(_session(seed, half, workdir / "traced", True,
                                      1))
        return _summary(seed, seconds, [plain, traced],
                        _layer_metrics(traced, plain))
    finally:
        os.sched_setaffinity(0, allowed)


def _summary(seed, seconds, outcomes, metrics):
    last = outcomes[-1]
    return {
        "spec": spec(seed, seconds),
        "input_sha256": input_digest(seed),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
        "detail": last["detail"],
    }


class _Server:
    """One ``serve`` subprocess, plus a connection per tenant."""

    def __init__(self, proc):
        self.proc = proc
        self.conns = {}

    async def close(self):
        from repro.service.protocol import encode

        for _reader, writer in self.conns.values():
            try:
                writer.write(encode({"type": "bye"}))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.conns = {}
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                await asyncio.wait_for(self.proc.wait(), 60)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        if self.proc.returncode not in (130, 0):
            raise common.BenchError(
                f"server exited with {self.proc.returncode}"
            )


async def _start_server(workdir, seed, traced, rep):
    from repro.service.protocol import STREAM_LIMIT, decode, encode

    if traced:
        argv = [str(Path(__file__).with_name("serve_traced.py")),
                str(workdir / f"spans-{rep}.json")]
    else:
        argv = ["-m", "repro.cli"]
    argv += ["serve", "--workers", str(WORKERS), "--port", "0"]
    with open(workdir / f"server-{rep}.log", "wb") as log:
        proc = await asyncio.create_subprocess_exec(
            sys.executable, *argv, cwd=common.ROOT,
            env=common.program_env(seed), stdout=asyncio.subprocess.PIPE,
            stderr=log,
        )
    server = None
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), 60)
        if not line.startswith(b"serving on "):
            raise common.BenchError(f"server did not start: {line!r}")
        host, port = line.split()[2].decode().rsplit(":", 1)
        server = _Server(proc)
        for tenant in TENANTS:
            reader, writer = await asyncio.open_connection(
                host, int(port), limit=STREAM_LIMIT)
            server.conns[tenant] = (reader, writer)
            config = dict(CONFIG, store=str(_store(workdir, rep, tenant)))
            writer.write(encode({"type": "hello", "tenant": tenant,
                                 "config": config}))
            await writer.drain()
            event = decode(await asyncio.wait_for(reader.readline(), 60))
            if event.get("type") != "ready":
                raise common.BenchError(f"hello refused: {event!r}")
    except BaseException:
        if server is None:
            proc.kill()
            await proc.wait()
        else:
            await server.close()
        raise
    return server


def _store(workdir, rep, tenant):
    return workdir / f"{tenant}-{rep}.sqlite"


async def _session(seed, seconds, workdir, traced, setups):
    """One timed window against one server.  ``setups`` servers are
    started in all, to time the set-up: half of the others are started
    and stopped before the window's server and half after it."""
    from repro.service.protocol import encode, encode_snapshot

    workdir.mkdir(parents=True, exist_ok=True)
    n_ticks = _ticks(seconds)
    warmup = int(round(WARMUP_S * RATE))
    arrivals = {tenant: list(_stream(seed, i, n_ticks))
                for i, tenant in enumerate(TENANTS)}
    lines = {
        tenant: [encode({"type": "feed", "tenant": tenant,
                         "ticks": [[t, encode_snapshot(snapshot)]]})
                 for t, snapshot in ticks]
        for tenant, ticks in arrivals.items()
    }
    setup_each = []

    async def set_up(rep):
        started = time.perf_counter()
        server = await _start_server(workdir, seed, traced, rep)
        setup_each.append(time.perf_counter() - started)
        return server

    rep = (setups - 1) // 2
    for extra in range(rep):
        await (await set_up(extra)).close()
    server = await set_up(rep)
    try:
        run = await _drive(server, arrivals, lines, warmup, workdir, rep)
    finally:
        await server.close()
    for extra in range(rep + 1, setups):
        await (await set_up(extra)).close()

    failed, check = _check(arrivals, run)
    latencies = [lat for tenant in TENANTS
                 for lat in run["tenants"][tenant]["latency_s"]]
    refresh = [r["total"] for r in run["reads"]]
    timed_points = sum(len(snapshot) for ticks in arrivals.values()
                       for _t, snapshot in ticks[warmup:])
    e2e = {
        "setup_s": statistics.median(setup_each),
        "peak_rss_mb": run["peak_rss_mb"],
        # The median, not p90 as in the closed loops.  A result passes
        # five hand-offs between threads of two processes, and a shared
        # host has stretches where latency rises while the server's CPU
        # time per report does not: waiting, not computing.  They
        # lengthen the tail most; in sets of runs that met one, p90's
        # run-to-run spread was 1.2-2.2 times the median's.
        "latency_ms": statistics.median(latencies) * 1e3,
    }
    points_per_cpu_s = timed_points / run["server_cpu_s"]
    attempted = sum(len(ticks) for ticks in arrivals.values()) \
        + len(run["reads"]) + len(TENANTS)
    return {
        "e2e": e2e,
        "attempted": attempted,
        "failed": failed,
        "run": run,
        "arrivals": {tenant: len(ticks) for tenant, ticks in arrivals.items()},
        "warmup": warmup,
        "lines": {tenant: sum(map(len, ls[warmup:])) / len(ls[warmup:])
                  for tenant, ls in lines.items()},
        "spans": workdir / f"spans-{rep}.json" if traced else None,
        "detail": {
            "results": len(latencies),
            "latency_ms_at": common.percentiles_ms(latencies),
            "points_per_cpu_s": points_per_cpu_s,
            f"send_lag_p{SEND_LAG_PERCENTILE}_ms": statistics.quantiles(
                run["send_lag_s"], n=100,
                method="inclusive")[SEND_LAG_PERCENTILE - 1] * 1e3,
            "read_p50_ms": statistics.median(refresh) * 1e3,
            f"read_p{READ_TAIL_PERCENTILE}_ms": statistics.quantiles(
                refresh, n=100, method="inclusive")[READ_TAIL_PERCENTILE - 1]
            * 1e3,
            "reads": len(refresh),
            "flush_s": {tenant: run["tenants"][tenant]["flush_s"]
                        for tenant in TENANTS},
            "setup_s_each": setup_each,
            "checks": check,
        },
    }


async def _drive(server, arrivals, lines, warmup, workdir, rep):
    loop = asyncio.get_running_loop()
    period = 1.0 / RATE
    start = loop.time() + 0.2
    timed_from = start + warmup * period
    tenants = {tenant: {"due": {}, "latency_s": [], "errors": [],
                        "out_bytes": 0, "recent": None, "sent_t": None,
                        "flushed": None, "flush_s": None}
               for tenant in TENANTS}
    lag = []

    async def send(index, tenant):
        _reader, writer = server.conns[tenant]
        state = tenants[tenant]
        for j, ((t, _snapshot), line) in enumerate(
                zip(arrivals[tenant], lines[tenant])):
            due = start + (j + index / len(TENANTS)) * period
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append(loop.time() - due)
            state["due"][t] = (due, j >= warmup)
            writer.write(line)
            await writer.drain()
            state["sent_t"] = t

    async def receive(tenant):
        from repro.service.protocol import decode

        reader, _writer = server.conns[tenant]
        state = tenants[tenant]
        while True:
            line = await reader.readline()
            now = loop.time()
            if not line:
                raise common.BenchError(f"server closed {tenant}'s feed")
            event = decode(line)
            kind = event["type"]
            if kind == "closed":
                due, timed = state["due"][event["t"]]
                if timed:
                    state["latency_s"].append(now - due)
                    state["out_bytes"] += len(line)
                state["recent"] = event["convoys"][-1]["objects"][0]
            elif kind == "flushed":
                state["flushed"] = event
                state["flush_s"] = now - state["flush_sent"]
                return
            else:
                state["errors"].append(event)
                return

    reads = []

    def refresh(tenant, t_now, recent):
        from repro.store.sqlite import open_store

        started = time.perf_counter()
        store = open_store(_store(workdir, rep, tenant))
        try:
            opened = time.perf_counter()
            alive = store.alive_in(t_now - READ_WINDOW + 1, t_now)
            t1 = time.perf_counter()
            mine = store.containing(recent) if recent is not None else []
            t2 = time.perf_counter()
            top = list(store.top_k(by="size", k=10))
            t3 = time.perf_counter()
        finally:
            store.close()
        return {"total": time.perf_counter() - started,
                "alive_in": t1 - opened, "containing": t2 - t1,
                "top_k": t3 - t2, "rows": len(alive) + len(mine) + len(top)}

    async def dashboard(stop_at):
        # Refreshes run on a thread, so that receiving results never
        # waits behind one on the event loop.
        step = 1.0 / READ_RATE
        due = timed_from + READ_PHASE * period
        count = 0
        while due < stop_at:
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tenant = TENANTS[count % len(TENANTS)]
            state = tenants[tenant]
            reads.append(await loop.run_in_executor(
                None, refresh, tenant, state["sent_t"], state["recent"]))
            count += 1
            due += step

    # A short switch interval lets the event loop take the GIL back from
    # a refresh thread within a millisecond when a result arrives.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    receivers = [asyncio.create_task(receive(tenant)) for tenant in TENANTS]
    senders = [asyncio.create_task(send(i, tenant))
               for i, tenant in enumerate(TENANTS)]
    n = max(len(ticks) for ticks in arrivals.values())
    end = start + n * period
    reader_task = asyncio.create_task(dashboard(end))
    try:
        await asyncio.sleep(max(0.0, timed_from - loop.time()))
        cpu_before = common.cpu_seconds(server.proc.pid)
        await asyncio.gather(*senders, reader_task)
        # Let the last arrivals' steps finish before reading the CPU.
        await asyncio.sleep(max(0.0, end + 0.5 - loop.time()))
        cpu_after = common.cpu_seconds(server.proc.pid)
        store_bytes = sum(
            os.path.getsize(path)
            for tenant in TENANTS
            for path in (_store(workdir, rep, tenant),
                         Path(f"{_store(workdir, rep, tenant)}-wal"))
            if path.exists()
        )
        from repro.service.protocol import encode

        for tenant in TENANTS:
            tenants[tenant]["flush_sent"] = loop.time()
            _reader, writer = server.conns[tenant]
            writer.write(encode({"type": "flush", "tenant": tenant}))
            await writer.drain()
        await asyncio.wait_for(asyncio.gather(*receivers), 300)
        peak_rss = common.peak_rss_mb(server.proc.pid)
    finally:
        for task in receivers + senders + [reader_task]:
            task.cancel()
        await asyncio.gather(*receivers, *senders, reader_task,
                             return_exceptions=True)
        sys.setswitchinterval(switch_interval)
    return {
        "tenants": tenants,
        "reads": reads,
        "send_lag_s": lag,
        "server_cpu_s": cpu_after - cpu_before,
        "store_bytes": store_bytes,
        "peak_rss_mb": peak_rss,
    }


def _check(arrivals, run):
    """Failed operations: wrong answers, error events, late drops and
    throttled sends."""
    from repro import mine_stream, normalize_convoys
    from repro.service.protocol import encode_convoy

    failed = 0
    check = {}
    for tenant in TENANTS:
        state = run["tenants"][tenant]
        flushed = state["flushed"]
        errors = len(state["errors"])
        if flushed is None:
            check[tenant] = {"errors": errors, "answer": "missing"}
            failed += max(errors, 1)
            continue
        expected = [
            encode_convoy(c) for c in normalize_convoys(mine_stream(
                arrivals[tenant], CONFIG["m"], CONFIG["k"], CONFIG["eps"],
                clusterer=CONFIG["clusterer"], reorder=CONFIG["reorder"]))
        ]
        same = expected == flushed["convoys"]
        late = flushed["counters"]["late_dropped"]
        throttled = flushed["service"]["throttled_waits"]
        failed += (not same) + errors + late + throttled
        check[tenant] = {"answer_equal": same, "errors": errors,
                         "late_dropped": late, "throttled_waits": throttled,
                         "convoys": len(expected)}
    return failed, check


def _layer_metrics(traced, plain):
    spans, counts = load_trace(traced["spans"])
    run = traced["run"]
    states = run["tenants"]
    wall, self_s, uncovered = layer_report(spans)
    steps = [s for s in spans if s[1] == "op" and s[5][1] == "tick"]
    n_steps = len(steps)
    step_start = {(s[5][0], s[5][2]): s[2] for s in steps}
    waits = [step_start[(s[5][0], s[5][1])] - s[3]
             for s in spans if s[1] == "service.enqueue"
             and (s[5][0], s[5][1]) in step_start]
    decode_s = sum(s[3] - s[2] for s in spans if s[1] == "service.decode")
    feeds = sum(traced["arrivals"].values())
    flushed = [states[tenant]["flushed"] for tenant in TENANTS]
    counters = [f["counters"] for f in flushed]
    clusterer = [f["clusterer_counters"] for f in flushed]
    service = [f["service"] for f in flushed]

    def total(rows, key):
        return sum(row[key] for row in rows)

    spliced = total(counters, "spliced_candidates")
    reintersected = total(counters, "reintersected_candidates")
    stored = total(counters, "stored_convoys")
    reads = run["reads"]
    refresh = [r["total"] for r in reads]
    timed = sum(n - traced["warmup"] for n in traced["arrivals"].values())
    metrics = {
        f"pipeline.{stage}.busy_ms": self_s.get(f"pipeline.{stage}", 0.0)
        / n_steps * 1e3
        for stage in ("ingest", "cluster", "track", "emit")
    }
    metrics.update({
        "reorder.reordered": total(counters, "reordered_snapshots"),
        "reorder.peak_pending": max(c["peak_pending"] for c in counters),
        "reorder.late_dropped": total(counters, "late_dropped"),
        "cluster.points": total(counters, "clustered_points")
        / total(counters, "clustering_calls"),
        "incremental.reclustered_share": total(clusterer,
                                               "reclustered_points")
        / total(clusterer, "clustered_points"),
        "incremental.full_passes": total(clusterer, "full_passes"),
        "candidates.live_peak": max(c["peak_candidates"] for c in counters),
        "candidates.reintersected": reintersected
        / total(counters, "snapshots"),
        "candidates.spliced_share": spliced
        / max(spliced + reintersected, 1),
        "store.convoys_written": stored,
        "store.bytes_per_convoy": run["store_bytes"] / max(stored, 1),
        "store.read.alive_in_ms": statistics.median(
            r["alive_in"] for r in reads) * 1e3,
        "store.read.containing_ms": statistics.median(
            r["containing"] for r in reads) * 1e3,
        "store.read.top_k_ms": statistics.median(
            r["top_k"] for r in reads) * 1e3,
        "store.read.rows": sum(r["rows"] for r in reads) / len(reads),
        "store.read.refresh_p50_ms": statistics.median(refresh) * 1e3,
        f"store.read.refresh_p{READ_TAIL_PERCENTILE}_ms": statistics.quantiles(
            refresh, n=100, method="inclusive")[READ_TAIL_PERCENTILE - 1]
        * 1e3,
        "service.decode_ms": decode_s / feeds * 1e3,
        "service.wire_in_bytes_per_tick": sum(traced["lines"].values())
        / len(TENANTS),
        "service.wire_out_bytes_per_tick": sum(
            states[tenant]["out_bytes"] for tenant in TENANTS) / timed,
        "service.queue_wait_ms": statistics.median(waits) * 1e3,
        "service.step_ms": statistics.median(
            s[3] - s[2] for s in steps) * 1e3,
        "service.peak_queue": max(s["peak_queue"] for s in service),
        "service.throttled_waits": total(service, "throttled_waits"),
        "service.failed_steps": sum(
            len(states[tenant]["errors"]) for tenant in TENANTS),
        f"service.send_lag_p{SEND_LAG_PERCENTILE}_ms": statistics.quantiles(
            run["send_lag_s"], n=100,
            method="inclusive")[SEND_LAG_PERCENTILE - 1] * 1e3,
        "answer.normalize_ms": self_s.get("answer.normalize", 0.0)
        / len(TENANTS) * 1e3,
        "answer.convoys_in": counts.get("normalize_in", 0) / len(TENANTS),
        "answer.convoys_out": counts.get("normalize_out", 0)
        / len(TENANTS),
        "answer.flush_ms": max(states[tenant]["flush_s"]
                               for tenant in TENANTS) * 1e3,
        "trace.uncovered_share": uncovered / wall,
        "trace.overhead_share": plain["detail"]["points_per_cpu_s"]
        / traced["detail"]["points_per_cpu_s"] - 1.0,
    })
    return metrics
