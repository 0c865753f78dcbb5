"""CSV load — rows per second and peak memory of ``load_trajectories_csv``.

Every offline entry point (``discover``, ``stats``, ``simplify``, CSV
``stream``) reads its trajectories through
:func:`repro.io.load_trajectories_csv`, so the load is paid before the
first query; at the paper's scale (Table 3's Cattle has 2,283,268
points) it costs seconds.

The bench writes a seeded CSV with :func:`save_trajectories_csv` (one
Gaussian random walk per object, its spec recorded as ``(generator,
params)``), then loads it in a fresh process three times.  It reports
rows per second (median of the three) and the child's peak RSS from
:func:`resource.getrusage` (the interpreter and the import included),
and asserts that every load returns the generated database bit for bit:
the same object ids and the same ``coordinates()`` bits.

``--smoke`` loads 50,000 rows (the CI step); the full run loads
1,000,000 (50 objects x 20,000 ticks).  ``--json PATH`` writes the row
through ``write_bench_json``; ``benchmarks/baselines/BENCH_csv_load.json``
is a committed full run.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

from benchmarks.common import print_report, safe_rate, write_bench_json
from repro.bench import format_table
from repro.io import save_trajectories_csv
from repro.trajectory import Trajectory, TrajectoryDatabase

FULL_SCALE = dict(objects=50, ticks=20_000, seed=24)
SMOKE_SCALE = dict(objects=25, ticks=2_000, seed=24)

#: Fresh-process loads per run; the reported rate is their median.
LOADS = 3

ROW_KEYS = {
    "generator", "params", "rows", "csv_mb", "save_s", "load_s",
    "rows_per_s", "peak_rss_mb",
}

ROOT = Path(__file__).resolve().parent.parent

#: The measured child: it imports only ``repro.io`` before the load and
#: reads its peak RSS before it imports anything else.
CHILD = """
import json, resource, sys, time
from repro.io import load_trajectories_csv
started = time.perf_counter()
database = load_trajectories_csv(sys.argv[1])
seconds = time.perf_counter() - started
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
from benchmarks.bench_csv_load import database_digest
print(json.dumps({"seconds": seconds, "peak_rss_kb": peak,
                  "digest": database_digest(database)}))
"""


def walk_database(objects, ticks, seed):
    """``objects`` Gaussian random walks sampled at ticks ``0..ticks-1``."""
    rng = random.Random(seed)
    trajectories = []
    for index in range(objects):
        x, y = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
        xs, ys = [], []
        for _ in range(ticks):
            x += rng.gauss(0.0, 1.0)
            y += rng.gauss(0.0, 1.0)
            xs.append(x)
            ys.append(y)
        trajectories.append(
            Trajectory.from_columns(f"o{index}", list(range(ticks)), xs, ys)
        )
    return TrajectoryDatabase(trajectories)


def database_digest(database):
    """SHA-256 over every trajectory's id and ``coordinates()`` bits, in
    object-id order (the order the saver writes)."""
    digest = hashlib.sha256()
    for trajectory in sorted(database, key=lambda tr: str(tr.object_id)):
        times, xs, ys = trajectory.coordinates()
        digest.update(repr((trajectory.object_id, times)).encode())
        digest.update(array("d", xs).tobytes())
        digest.update(array("d", ys).tobytes())
    return digest.hexdigest()


def load_in_child(path):
    """One load of ``path`` in a fresh interpreter: its JSON report."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
    ))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(path)],
        capture_output=True, text=True, check=True, env=env, timeout=600,
    )
    return json.loads(out.stdout)


def measure(scale, loads=LOADS):
    """Write the scale's CSV, load it ``loads`` times; return the row.

    Asserts every load equal, bit for bit, to the generated database.
    """
    database = walk_database(**scale)
    want = database_digest(database)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "walk.csv"
        started = time.perf_counter()
        save_trajectories_csv(database, path)
        save_s = time.perf_counter() - started
        reports = [load_in_child(path) for _ in range(loads)]
        csv_bytes = path.stat().st_size
    for report in reports:
        assert report["digest"] == want, "loaded database differs"
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    per_mb = 1024 * 1024 if sys.platform == "darwin" else 1024
    seconds = [report["seconds"] for report in reports]
    rows = database.total_points
    return {
        "generator": "benchmarks.bench_csv_load.walk_database",
        "params": dict(scale),
        "rows": rows,
        "csv_mb": csv_bytes / 1e6,
        "save_s": save_s,
        "load_s": seconds,
        "rows_per_s": safe_rate(rows, statistics.median(seconds)),
        "peak_rss_mb": max(report["peak_rss_kb"] for report in reports)
        / per_mb,
    }


def report(row):
    return format_table(
        f"CSV load — {row['rows']:,} rows, median of {len(row['load_s'])} "
        "fresh processes",
        ["rows", "csv MB", "save s", "load s (median)", "rows/s",
         "peak RSS MB"],
        [[row["rows"], round(row["csv_mb"], 1), round(row["save_s"], 2),
          round(statistics.median(row["load_s"]), 3),
          round(row["rows_per_s"] or 0.0), round(row["peak_rss_mb"], 1)]],
    )


def test_csv_load_round_trip():
    """:func:`measure` asserts every load equal to the generated data."""
    measure(dict(objects=4, ticks=500, seed=1), loads=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="50,000 rows, for CI (equality still asserted)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the row as bench JSON")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    row = measure(scale)
    print_report(report(row))
    if args.json:
        write_bench_json(args.json, "csv_load",
                         {"smoke": args.smoke, "loads": LOADS}, [row])


if __name__ == "__main__":
    main()
