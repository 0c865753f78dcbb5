"""Shared infrastructure for the experiment benches.

Every bench file regenerates one table or figure of the paper's evaluation
(the README's "Benches → paper figures" table maps each file to its
figure).  Each file works in two modes:

* ``pytest benchmarks/ --benchmark-only`` — pytest-benchmark timings, one
  benchmark per (dataset, algorithm/parameter) cell, with the experiment's
  headline numbers attached as ``extra_info``;
* ``python benchmarks/bench_<name>.py`` — prints the paper-style table so
  the rows can be compared against the publication.

Datasets are generated once per process and cached; the bench scales are
chosen so the full suite completes in minutes on a laptop while keeping
every dataset's *shape*.  A timed CuTS or simplifier call runs on
:func:`fresh_database`, never on the cached database itself.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from functools import lru_cache

from repro.datasets import DATASETS
from repro.trajectory import Trajectory, TrajectoryDatabase

#: Time-domain scale per dataset used across all benches.  Chosen so that
#: the slowest single algorithm run stays around a second.
BENCH_SCALES = {
    "truck": 0.05,
    "cattle": 0.005,
    "car": 0.05,
    "taxi": 0.3,
}

DATASET_NAMES = ("truck", "cattle", "car", "taxi")

VARIANTS = ("cuts", "cuts+", "cuts*")


@lru_cache(maxsize=None)
def dataset(name, scale=None):
    """Return the cached :class:`~repro.datasets.DatasetSpec` for a bench."""
    if scale is None:
        scale = BENCH_SCALES[name]
    return DATASETS[name](scale=scale)


def fresh_database(spec):
    """Return a copy of ``spec.database`` that no simplifier has touched.

    Every trajectory keeps the split trees its DP/DP* simplifications
    built (:meth:`repro.trajectory.Trajectory.split_tree`), and
    :func:`dataset` hands every caller the same trajectories, so a timed
    call on the cached database would time cuts of trees that an earlier
    call paid for.  The copy holds the same samples in new trajectories.
    """
    return TrajectoryDatabase(
        Trajectory(trajectory.object_id, list(trajectory))
        for trajectory in spec.database
    )


def print_report(text):
    """Print one experiment report with a blank-line frame (tee-friendly)."""
    print()
    print(text)
    print()


def git_sha():
    """This repository's current commit hash, or ``"unknown"`` outside git.

    Resolved relative to this file, not the caller's working directory, so
    a bench invoked from inside another checkout still stamps its JSON
    with the right commit.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def safe_rate(count, seconds):
    """``count / seconds`` as a finite float, or ``None``.

    Tiny smoke runs can finish below the timer's resolution; dividing by
    a zero ``seconds`` would put ``inf`` into a report or JSON payload
    (``json.dump`` emits the non-standard ``Infinity`` token).  A rate
    that cannot be measured is reported as ``None`` (JSON ``null``).
    """
    if seconds > 0:
        rate = count / seconds
        if math.isfinite(rate):
            return rate
    return None


def _sanitize(value):
    """Replace non-finite floats with None, recursively, copying as we go."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def write_bench_json(path, bench, params, rows):
    """Write one bench run as machine-readable JSON for the perf trajectory.

    Every bench that accepts ``--json PATH`` funnels through this writer so
    the artifacts CI uploads share one schema:

    ``{"bench": ..., "git_sha": ..., "params": {...}, "rows": [{...}]}``

    Args:
        path: output file path.
        bench: the bench's name (e.g. ``"incremental_tracking"``).
        params: dict of the run's fixed parameters (query parameters,
            stream scale, smoke flag, ...).
        rows: list of dicts, one per measured configuration, carrying the
            bench's headline numbers (rates, speedups, counters).

    Non-finite floats anywhere in ``params`` or ``rows`` are replaced by
    ``None``: ``json.dump`` would otherwise emit non-standard tokens
    (``Infinity``/``NaN``) that strict JSON consumers reject.
    """
    payload = {
        "bench": bench,
        "git_sha": git_sha(),
        "params": _sanitize(dict(params)),
        "rows": [_sanitize(dict(row)) for row in rows],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
