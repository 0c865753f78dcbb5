"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline_cuts --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run and reports the per-layer metrics.
The metric names and units come from ``BENCHMARK.json``.  Lines before
the last one record the run's spec and a readable summary; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer check passed
and the workload's generator still makes the input pinned in
``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import offline_cuts
import serve_parked
import stream_packs

WORKLOADS = {
    "offline_cuts": offline_cuts,
    "stream_packs": stream_packs,
    "serve_parked": serve_parked,
}


def check_digest(name, workdir):
    """``(pinned, made)``: the workload's ``digests.json`` entry (a seed
    and the SHA-256 of the input made from it) and the SHA-256 of the
    input the generator makes from that seed now."""
    pinned = json.loads(
        (common.BENCH_DIR / "digests.json").read_text())[name]
    return pinned, WORKLOADS[name].input_digest(pinned["seed"], workdir)


def collect(trace, produced):
    """Order the workload's metrics as ``BENCHMARK.json`` lists them.  A
    per-layer metric the workload does not produce reads 0: its layer
    does not run there."""
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    entries = declared["per_layer" if trace else "end_to_end"]
    unknown = set(produced) - {entry["name"] for entry in entries}
    assert not unknown, f"metrics missing from BENCHMARK.json: {unknown}"
    return {
        entry["name"]: {
            "value": produced[entry["name"]] if not trace
            else produced.get(entry["name"], 0),
            "unit": entry["unit"],
        }
        for entry in entries
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        workdir = common.make_workdir(args.workload)
        try:
            pinned, made = check_digest(args.workload, workdir)
            outcome = WORKLOADS[args.workload].run(
                args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            common.remove_workdir(workdir)
        metrics = collect(args.trace, outcome["metrics"])
    except common.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    digest_ok = made == pinned["sha256"]
    failed = outcome["failed"] + (0 if digest_ok else 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": outcome["spec"],
        "input_sha256": outcome["input_sha256"],
        "pinned_input_matches": digest_ok,
        "environment": common.environment(),
        "detail": outcome["detail"],
    }
    print("spec " + json.dumps(record, sort_keys=True))
    for key, metric in metrics.items():
        print(f"{key:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"answers checked: {outcome['attempted'] - outcome['failed']} "
          f"of {outcome['attempted']} operations ok")
    if not digest_ok:
        print(f"pinned input DIFFERS at seed {pinned['seed']}: expected "
              f"{pinned['sha256']}, made {made}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
