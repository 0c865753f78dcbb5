"""``stream_packs``: default miners fed dense streams of small packs.

Measured side (``python3 perfbench/stream_packs.py measure WORKDIR``):
import the program, build a default ``StreamingConvoyMiner`` and feed
it the warm-up ticks (``setup_s`` is the median time of this set-up in
the measured process and in fresh ``setup`` processes it starts at
evenly spaced moments of the window, paused meanwhile).  Then, until
the window closes, run *episodes*:
each feeds one fresh default miner a lazily generated stream of
``EPISODE_TICKS`` ticks in a closed loop, timing every ``feed()``, and
flushes it.  The miner keeps every chain of an eternal pack with its
whole history, so one endless stream would make a tick's cost depend on
how far a run got, which is how fast the machine was; fixed-length
episodes keep the measured ticks the same on any machine.

After each episode, untimed: every planted pack must lie inside one
emitted convoy spanning the whole episode.  The check reads only the
generator's pack labels, so it does not depend on how the miner works.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import common
from tracing import Tracer, layer_report, load_trace, trace_stages

PARAMS = {
    "n_objects": 1000,
    "eps": 10.0,
    "hotspots": 100,
    "background": 0.3,
    "area": 1414.0,
}
MINER = {"m": 3, "k": 8, "eps": 10.0}
EPISODE_TICKS = 100
WARMUP_TICKS = 10
#: Ticks hashed for the input digest.
DIGEST_TICKS = 64


def spec(seed):
    return {
        "generator": "repro.streaming.source.hotspot_drift_scenario",
        "params": dict(PARAMS, n_snapshots=EPISODE_TICKS,
                       seed=f"{seed}/<episode>"),
        "warmup": {"ticks": WARMUP_TICKS, "seed": f"{seed}/warmup"},
        "miner": dict(MINER, note="every other option at its default"),
        "loop": "closed, one feed() at a time; ticks generated lazily; "
                "a fresh miner per episode",
    }


def _scenario(seed, n_snapshots=EPISODE_TICKS):
    from repro.streaming.source import hotspot_drift_scenario

    return hotspot_drift_scenario(
        PARAMS["n_objects"], n_snapshots, seed,
        eps=PARAMS["eps"], hotspots=PARAMS["hotspots"],
        background=PARAMS["background"], area=PARAMS["area"],
    )


def input_digest(seed, workdir=None):
    return common.digest_ticks(
        (t, snapshot)
        for t, snapshot, _groups in _scenario(f"{seed}/0", DIGEST_TICKS)
    )


# --------------------------------------------------------------------
# Parent side


def run(seed, seconds, trace, workdir):
    job = {"seed": seed, "seconds": seconds, "trace": trace}
    (workdir / "job.json").write_text(json.dumps(job))
    common.run_measured(
        [str(Path(__file__)), "measure", str(workdir)], seed,
        timeout=seconds * 2 + 120,
    )
    result = json.loads((workdir / "result.json").read_text())
    setups = result["setups"]
    plain = result["plain"]
    latencies = plain["latency_s"]
    metrics = {
        "setup_s": statistics.median(sum(sample) for sample in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "latency_ms": common.p90_ms(latencies),
    }
    if trace:
        metrics = _layer_metrics(workdir, result)
    passes = [plain] + ([result["traced"]] if trace else [])
    checked = sum(p["packs"] for p in passes)
    missed = sum(p["packs_missed"] for p in passes)
    return {
        "spec": spec(seed),
        "input_sha256": input_digest(seed),
        "attempted": checked,
        "failed": missed,
        "metrics": metrics,
        "detail": {
            "ticks": len(latencies),
            "episodes": plain["episodes"],
            "latency_ms_at": common.percentiles_ms(latencies),
            "points_per_s": plain["points"] / sum(latencies),
            "packs_checked": checked,
            "packs_missed": missed,
            "setup_s_each": [sum(sample) for sample in setups],
        },
    }


def _layer_metrics(workdir, result):
    spans, _counts = load_trace(workdir / "spans.json")
    traced = result["traced"]
    ticks = len(traced["latency_s"])
    wall, self_s, uncovered = layer_report(spans)
    counters = traced["counters"]
    spliced = counters["spliced_candidates"]
    reintersected = counters["reintersected_candidates"]
    plain = result["plain"]["latency_s"]
    metrics = {
        f"pipeline.{stage}.busy_ms": self_s.get(f"pipeline.{stage}", 0.0)
        / ticks * 1e3
        for stage in ("ingest", "cluster", "track", "emit")
    }
    metrics.update({
        "cluster.points": counters["clustered_points"]
        / counters["clustering_calls"],
        "candidates.live_peak": counters["peak_candidates"],
        "candidates.reintersected": reintersected / counters["snapshots"],
        "candidates.spliced_share": spliced
        / max(spliced + reintersected, 1),
        "trace.uncovered_share": uncovered / wall,
        "trace.overhead_share": (sum(traced["latency_s"]) / ticks)
        / (sum(plain) / len(plain)) - 1.0,
    })
    return metrics


# --------------------------------------------------------------------
# Measured side


def _new_pass():
    return {"latency_s": [], "points": 0, "episodes": 0, "packs": 0,
            "packs_missed": 0, "counters": {}}


def _episode(miner_class, seed, index, out, tracer=None):
    """Feed one fresh miner one episode; check its packs; add to out."""
    miner = miner_class(MINER["m"], MINER["k"], MINER["eps"])
    if tracer is not None:
        trace_stages(tracer, miner.pipeline)
    convoys = []
    groups = ()
    for t, snapshot, groups in _scenario(f"{seed}/{index}"):
        started = time.perf_counter()
        if tracer is None:
            closed = miner.feed(t, snapshot)
        else:
            with tracer.span("op", request=[index, t]):
                closed = miner.feed(t, snapshot)
        out["latency_s"].append(time.perf_counter() - started)
        out["points"] += len(snapshot)
        convoys.extend(closed)
    convoys.extend(miner.flush())
    spanning = [c.objects for c in convoys
                if c.t_start == 0 and c.t_end == EPISODE_TICKS - 1]
    out["packs"] += len(groups)
    out["packs_missed"] += sum(
        1 for group in groups
        if not any(group <= objects for objects in spanning)
    )
    for key, value in miner.counters.items():
        if key == "peak_candidates":
            value = max(value, out["counters"].get(key, 0))
        else:
            value += out["counters"].get(key, 0)
        out["counters"][key] = value
    out["episodes"] += 1


def set_up(workdir):
    """Import the program, build a default miner and feed it the
    warm-up ticks (generated untimed): one set-up sample ``[import_s,
    rest_s]``, plus the job."""
    job = json.loads((Path(workdir) / "job.json").read_text())
    started = time.perf_counter()
    common.require_program()
    from repro import StreamingConvoyMiner

    imported = time.perf_counter()
    warmup = list(_scenario(f"{job['seed']}/warmup", WARMUP_TICKS))
    started_rest = time.perf_counter()
    miner = StreamingConvoyMiner(MINER["m"], MINER["k"], MINER["eps"])
    for t, snapshot, _groups in warmup:
        miner.feed(t, snapshot)
    return [imported - started, time.perf_counter() - started_rest], job


def measure(workdir):
    workdir = Path(workdir)
    setup, job = set_up(workdir)
    seed = job["seed"]
    from repro import StreamingConvoyMiner

    result = {"setups": [setup]}

    def take_sample():
        result["setups"].append(common.setup_sample(__file__, workdir))

    window = common.window(job["seconds"], take_sample)
    plain = result["plain"] = _new_pass()
    if job["trace"]:
        # Each episode runs untraced and traced back to back, in turns
        # first, so the overhead compares like with like on the same
        # stretch of machine time.
        traced = result["traced"] = _new_pass()
        tracer = Tracer()
        for index, _ in enumerate(window):
            for with_trace in ((False, True) if index % 2 else (True, False)):
                _episode(StreamingConvoyMiner, seed, index,
                         traced if with_trace else plain,
                         tracer if with_trace else None)
        tracer.dump(workdir / "spans.json")
    else:
        for index, _ in enumerate(window):
            _episode(StreamingConvoyMiner, seed, index, plain)
    result["peak_rss_mb"] = common.peak_rss_mb()
    while len(result["setups"]) < common.SETUP_SAMPLES:
        take_sample()
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "measure":
        measure(sys.argv[2])
    elif sys.argv[1] == "setup":
        print(*set_up(sys.argv[2])[0])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
