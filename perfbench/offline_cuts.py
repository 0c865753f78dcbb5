"""``offline_cuts``: the paper's query path, one CuTS* query at a time.

Parent side: write ``DATASETS`` seeded ``truck_dataset`` databases to
CSV, start the measured process, then check every answer against
``cmc()`` on the same parameters (in two checker processes, after the
measured one has ended).

Measured side (``python3 perfbench/offline_cuts.py measure WORKDIR``):
import the program, load every CSV, answer one warm-up query, then run
the query mix in a closed loop until the window closes.  Query pairs
rotate over the databases, so a run's figures do not rest on one
generated database.  ``setup_s`` is the median import-plus-load time
of the measured process and of fresh ``setup`` processes it starts at
evenly spaced moments of the window (paused meanwhile).
"""

from __future__ import annotations

import importlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
from tracing import Tracer, envelope_by_request, layer_report, load_trace

SCALE = 0.015
DATASETS = 4
VARIANT = "cuts*"
PAIRS = 400
GOLDEN = (5 ** 0.5 - 1) / 2
#: Processes checking answers against cmc() after the measured run.
CHECKERS = 2


def dataset_seed(seed, index):
    return seed * DATASETS + index


def spec(seed):
    return {
        "generator": "repro.datasets.truck_dataset",
        "datasets": [{"seed": dataset_seed(seed, d), "scale": SCALE}
                     for d in range(DATASETS)],
        "query_mix": {
            "call": f"cuts(db, m, k, eps, variant={VARIANT!r})",
            "pairs": "pair i: eps = e * 2**u_i, u_i = 2 * frac(s + i * "
                     "0.618...) - 1 with s seeded; asked with m, then "
                     f"m+2, of database i mod {DATASETS}; delta and "
                     "lambda automatic",
            "seed": f"{seed}/queries",
            "loop": "closed, one client",
        },
    }


def make_queries(seed, datasets):
    """``[eps, m, database]`` triples, two per eps.

    The eps factors follow a golden-ratio sequence from a seeded start,
    so every prefix of the mix spreads evenly over [0.5, 2] x e: query
    cost climbs steeply with eps, and independent draws made a run's
    median depend on which eps values its seed happened to draw.  No
    eps repeats, so no two pairs share work.
    """
    start = random.Random(f"{seed}/queries").random()
    queries = []
    for pair in range(PAIRS):
        u = 2.0 * ((start + pair * GOLDEN) % 1.0) - 1.0
        index = pair % len(datasets)
        eps = datasets[index]["e"] * 2.0 ** u
        m = datasets[index]["m"]
        queries.append([eps, m, index])
        queries.append([eps, m + 2, index])
    return queries


def write_csvs(seed, workdir):
    from repro import save_trajectories_csv, truck_dataset

    datasets = []
    for index in range(DATASETS):
        dataset = truck_dataset(seed=dataset_seed(seed, index), scale=SCALE)
        path = Path(workdir) / f"trucks-{seed}-{index}.csv"
        save_trajectories_csv(dataset.database, path)
        datasets.append({"csv": str(path), "m": dataset.m, "k": dataset.k,
                         "e": dataset.eps})
    return datasets


def csv_digest(datasets):
    return common.digest_bytes(
        b"".join(Path(d["csv"]).read_bytes() for d in datasets))


def input_digest(seed, workdir):
    datasets = write_csvs(seed, workdir)
    digest = csv_digest(datasets)
    for dataset in datasets:
        Path(dataset["csv"]).unlink()
    return digest


def encode_answer(convoys):
    return sorted(
        [sorted(map(str, c.objects)), c.t_start, c.t_end] for c in convoys
    )


# --------------------------------------------------------------------
# Parent side


def run(seed, seconds, trace, workdir):
    datasets = write_csvs(seed, workdir)
    job = {
        "datasets": datasets,
        "warmup": [datasets[0]["e"] * 1.3, datasets[0]["m"], 0],
        "queries": make_queries(seed, datasets),
        "seconds": seconds,
        "trace": trace,
    }
    (workdir / "job.json").write_text(json.dumps(job))
    common.run_measured(
        [str(Path(__file__)), "measure", str(workdir)], seed,
        timeout=seconds * 3 + 120,
    )
    result = json.loads((workdir / "result.json").read_text())
    setups = result["setups"]
    passes = [result["plain"]] + ([result["traced"]] if trace else [])
    ran = [q for p in passes for q in p["queries"]]
    answers = [a for p in passes for a in p["answers"]]
    failed = _check(workdir, seed, datasets, ran, answers)

    latencies = result["plain"]["latency_s"]
    metrics = {
        "setup_s": statistics.median(sum(sample) for sample in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "latency_ms": common.p90_ms(latencies),
    }
    if trace:
        metrics = _layer_metrics(workdir, result, setups)
    return {
        "spec": dict(spec(seed), job={
            "datasets": [{key: d[key] for key in ("m", "k", "e")}
                         for d in datasets],
            "warmup_query": job["warmup"],
        }),
        "input_sha256": csv_digest(datasets),
        "attempted": len(ran),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "queries": len(latencies),
            "latency_ms_at": common.percentiles_ms(latencies),
            "queries_per_s": len(latencies) / sum(latencies),
            "setup_s_each": [sum(sample) for sample in setups],
            "load_s_each": [load for _import, load in setups],
        },
    }


def _check(workdir, seed, datasets, ran, answers):
    """Count the queries whose answer differs from cmc()'s."""
    distinct = sorted({tuple(q) for q in ran})
    procs = []
    for index in range(CHECKERS):
        path = workdir / f"check-{index}.json"
        path.write_text(json.dumps({"datasets": datasets,
                                    "queries": distinct[index::CHECKERS]}))
        procs.append(subprocess.Popen(
            [sys.executable, str(Path(__file__)), "check", str(path)],
            cwd=common.ROOT, env=common.program_env(seed),
        ))
    try:
        codes = [proc.wait(timeout=600) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise common.BenchError(f"cmc checkers exited with {codes}")
    expected = {}
    for index in range(CHECKERS):
        for query, answer in json.loads(
                (workdir / f"check-{index}.out.json").read_text()):
            expected[tuple(query)] = answer
    return sum(
        1 for query, answer in zip(ran, answers)
        if expected[tuple(query)] != answer
    )


def _layer_metrics(workdir, result, setups):
    spans, _counts = load_trace(workdir / "spans.json")
    traced = result["traced"]
    n = len(traced["latency_s"])
    wall, self_s, uncovered = layer_report(spans)

    def per_query_ms(layer):
        return self_s.get(layer, 0.0) / n * 1e3

    # cuts() times its three phases itself; the spans must agree.  The
    # simplification phase is one call per trajectory, so compare its
    # envelope: first call's start to last call's end.
    gap = 0.0
    for layer, key in (("simplification", "simplification"),
                       ("cuts.filter", "filter"),
                       ("cuts.refine", "refinement")):
        spans_by_query = envelope_by_request(spans, layer)
        for index, durations in enumerate(traced["durations"]):
            gap = max(gap, abs(spans_by_query.get(index, 0.0)
                               - durations[key]))
    stats = traced["stats"]
    candidates = sum(s["candidates"] for s in stats)
    considered = sum(s["pairs_considered"] for s in stats)
    plain_same = sum(result["plain"]["latency_s"][:n])
    return {
        "io.load_ms": statistics.median(
            load for _import, load in setups) * 1e3,
        "params.delta_ms": per_query_ms("params.delta"),
        "params.lambda_ms": per_query_ms("params.lambda"),
        "simplification.busy_ms": per_query_ms("simplification"),
        "simplification.kept_share": sum(s["kept_points"] for s in stats)
        / sum(s["original_points"] for s in stats),
        "cuts.filter.busy_ms": per_query_ms("cuts.filter"),
        "cuts.filter.candidates": candidates / n,
        "cuts.filter.precision": sum(s["convoys"] for s in stats)
        / max(candidates, 1),
        "cuts.filter.pruned_share": 1.0
        - sum(s["pairs_linked"] for s in stats) / max(considered, 1),
        "cuts.refine.busy_ms": per_query_ms("cuts.refine"),
        "cuts.refine.clustered_points": sum(
            s["refine_clustered_points"] for s in stats) / n,
        "cuts.refinement_unit": sum(s["refinement_unit"] for s in stats)
        / n,
        "answer.normalize_ms": per_query_ms("answer.normalize"),
        "answer.convoys_in": sum(s["normalize_in"] for s in stats) / n,
        "answer.convoys_out": sum(s["normalize_out"] for s in stats) / n,
        "trace.uncovered_share": uncovered / wall,
        "trace.overhead_share": sum(traced["latency_s"]) / plain_same - 1.0,
        "trace.durations_gap_ms": gap * 1e3,
    }


# --------------------------------------------------------------------
# Measured side


class _Probe:
    """Per-query counts taken at the traced entry points."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.refine_clustered_points = 0
        self.normalize_in = 0
        self.normalize_out = 0


def _install(tracer, probe):
    """Wrap the entry points in ``repro.core.cuts``; return a function
    that puts the originals back."""
    # ``repro.core.cuts`` the attribute is the cuts() function; the
    # module itself is only reachable through the import system.
    cuts_module = importlib.import_module("repro.core.cuts")
    names = ("cuts_filter", "cuts_refine", "compute_delta",
             "compute_lambda", "SIMPLIFIERS", "cmc", "normalize_convoys")
    originals = {name: getattr(cuts_module, name) for name in names}
    tracer.patch(cuts_module, "cuts_filter", "cuts.filter")
    tracer.patch(cuts_module, "cuts_refine", "cuts.refine")
    tracer.patch(cuts_module, "compute_delta", "params.delta")
    tracer.patch(cuts_module, "compute_lambda", "params.lambda")
    cuts_module.SIMPLIFIERS = {
        name: tracer.wrap(fn, "simplification")
        for name, fn in originals["SIMPLIFIERS"].items()
    }
    cmc = originals["cmc"]

    def counted_cmc(*args, **kwargs):
        counters = {}
        convoys = cmc(*args, counters=counters, **kwargs)
        probe.refine_clustered_points += counters.get("clustered_points", 0)
        return convoys

    cuts_module.cmc = counted_cmc
    normalize = originals["normalize_convoys"]

    def counted_normalize(convoys):
        kept = normalize(convoys)
        probe.normalize_in += len(convoys)
        probe.normalize_out += len(kept)
        return kept

    cuts_module.normalize_convoys = tracer.wrap(
        counted_normalize, "answer.normalize"
    )

    def restore():
        for name, value in originals.items():
            setattr(cuts_module, name, value)

    return restore


def _new_pass():
    return {"queries": [], "latency_s": [], "answers": [], "durations": [],
            "stats": []}


def _run_query(cuts, dbs, index, query, out, tracer=None, probe=None):
    eps, m, which = query
    db, k = dbs[which]
    if probe is not None:
        probe.reset()
    started = time.perf_counter()
    if tracer is None:
        result = cuts(db, m, k, eps, variant=VARIANT)
    else:
        with tracer.span("op", request=index):
            result = cuts(db, m, k, eps, variant=VARIANT)
    out["latency_s"].append(time.perf_counter() - started)
    out["queries"].append(query)
    out["answers"].append(encode_answer(result.convoys))
    out["durations"].append(result.durations)
    if probe is not None:
        out["stats"].append({
            "candidates": len(result.candidates),
            "convoys": len(result.convoys),
            "refinement_unit": result.refinement_unit,
            "kept_points": result.simplification["kept_points"],
            "original_points": result.simplification["original_points"],
            "pairs_considered": result.filter_stats.get(
                "pairs_considered", 0),
            "pairs_linked": result.filter_stats.get("pairs_linked", 0),
            "refine_clustered_points": probe.refine_clustered_points,
            "normalize_in": probe.normalize_in,
            "normalize_out": probe.normalize_out,
        })


def set_up(workdir):
    """Import the program and load every CSV: one set-up sample
    ``[import_s, load_s]``, plus the loaded ``(database, k)`` pairs."""
    job = json.loads((Path(workdir) / "job.json").read_text())
    started = time.perf_counter()
    common.require_program()
    from repro import load_trajectories_csv

    imported = time.perf_counter()
    dbs = [(load_trajectories_csv(d["csv"]), d["k"])
           for d in job["datasets"]]
    loaded = time.perf_counter()
    return [imported - started, loaded - imported], dbs, job


def measure(workdir):
    workdir = Path(workdir)
    setup, dbs, job = set_up(workdir)
    from repro import cuts

    eps, m, which = job["warmup"]
    cuts(dbs[which][0], m, dbs[which][1], eps, variant=VARIANT)

    result = {"setups": [setup]}

    def take_sample():
        result["setups"].append(common.setup_sample(__file__, workdir))

    window = common.window(job["seconds"], take_sample)
    plain = result["plain"] = _new_pass()
    if job["trace"]:
        # Each query runs untraced and traced back to back, in turns
        # first, so the overhead compares like with like on the same
        # stretch of machine time.
        traced = result["traced"] = _new_pass()
        tracer, probe = Tracer(), _Probe()
        for _, (index, query) in zip(window, enumerate(job["queries"])):
            for with_trace in ((False, True) if index % 2 else (True, False)):
                if with_trace:
                    restore = _install(tracer, probe)
                    _run_query(cuts, dbs, index, query, traced, tracer, probe)
                    restore()
                else:
                    _run_query(cuts, dbs, index, query, plain)
        tracer.dump(workdir / "spans.json")
    else:
        for _, (index, query) in zip(window, enumerate(job["queries"])):
            _run_query(cuts, dbs, index, query, plain)
    result["peak_rss_mb"] = common.peak_rss_mb()
    while len(result["setups"]) < common.SETUP_SAMPLES:
        take_sample()
    (workdir / "result.json").write_text(json.dumps(result))


def check(job_path):
    common.require_program()
    from repro import cmc, load_trajectories_csv, normalize_convoys

    job = json.loads(Path(job_path).read_text())
    dbs = [load_trajectories_csv(d["csv"]) for d in job["datasets"]]
    out = [
        [[eps, m, which], encode_answer(normalize_convoys(
            cmc(dbs[which], m, job["datasets"][which]["k"], eps)))]
        for eps, m, which in job["queries"]
    ]
    Path(job_path).with_suffix(".out.json").write_text(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1] == "measure":
        measure(sys.argv[2])
    elif sys.argv[1] == "setup":
        print(*set_up(sys.argv[2])[0])
    elif sys.argv[1] == "check":
        check(sys.argv[2])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
