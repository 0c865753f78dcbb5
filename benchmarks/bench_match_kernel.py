"""Match join — the owner-probe join against the pairwise reference.

CMC's candidate step joins every live candidate ``v`` with every
snapshot cluster ``c`` on ``|c ∩ v| >= m``.
:func:`repro.core.candidates.match_candidates` answers it as one join:
density clusters are disjoint, so a cluster sharing ``m`` of a
candidate's ``n`` objects must own one of any ``n - m + 1`` of them,
and a job whose ``n - m + 1`` owner lookups (plus a constant margin)
undercut its *fan* — the clusters it would scan — probes an owner table
instead of intersecting pairwise.
:func:`~repro.core.candidates.match_candidates_pairwise` is the
reference loop it must equal.

Both run inside the candidate tracker, driven directly over
precomputed clusterings so the measured per-tick cost is the tracker's
plan → match → apply step and nothing else.  Two regimes, each preceded
by identical *untimed warmup ticks*:

* ``dense`` — the hotspot-drift workload
  (:func:`repro.streaming.hotspot_drift_scenario`, 10^5 objects in the
  full run): large stable packs replayed as every tick's clustering
  through the classic ``advance``, so every job scans every cluster and
  the join takes its probe side.
* ``small-delta`` — an incremental clusterer's ``(clusters, delta)``
  pairs on a churn stream replayed through ``advance_delta``: stable
  candidates splice through, and the rest scan only the few dirty
  clusters, so most jobs stay on the pairwise side.  Acceptance: the
  join must reach ``SMALL_DELTA_BAR`` of the pairwise rate here — the
  probe/scan rule may not tax the regime it does not help.

Every run asserts identical convoys tick for tick between the join and
the reference, and the join's emissions equal across the shipping
transports: unsharded, sharded serial/process, and resident
serial/process.

Run ``python benchmarks/bench_match_kernel.py`` for the table,
``--smoke`` for a seconds-long CI-sized run (equivalence assertions
only), and ``--json PATH`` for the machine-readable record
(``BENCH_match_kernel.json``).
"""

import argparse
import gc
import statistics
import time

from benchmarks.bench_sharded_scaling import ReplayClusterer
from benchmarks.common import print_report, safe_rate, write_bench_json
from repro.bench import format_table
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.core.candidates import CandidateTracker, match_candidates_pairwise
from repro.streaming import (
    StreamingConvoyMiner,
    churn_stream,
    hotspot_drift_scenario,
)

M, K, EPS = 3, 8, 10.0


class PairwiseTracker(CandidateTracker):
    """The candidate tracker with its join swapped for the reference."""

    def _match_live(self, members, jobs):
        return match_candidates_pairwise(members, jobs, self._m)


TRACKERS = {"join": CandidateTracker, "pairwise": PairwiseTracker}
KERNELS = tuple(TRACKERS)

#: The join must reach this fraction of the pairwise rate on the
#: small-delta regime ("no slower", less the estimator's noise).
SMALL_DELTA_BAR = 0.95

#: 200 hotspots of ~40 objects among 10^5 keep the dense tick at a few
#: ms for the join and tens of ms for the pairwise loop.
FULL_DENSE = dict(n_objects=100_000, n_snapshots=28, hotspots=200,
                  background=0.92, warmup=8, reps=5)
SMOKE_DENSE = dict(n_objects=3_000, n_snapshots=10, hotspots=12,
                   background=0.9, warmup=3, reps=1)
#: Small-delta steps take a few ms, so more reps are cheap and steady
#: the per-step minimum that the acceptance bar reads.
FULL_SMALL = dict(n_objects=2500, n_snapshots=36, churn=0.15, warmup=8,
                  reps=15)
SMOKE_SMALL = dict(n_objects=120, n_snapshots=12, churn=0.15, warmup=3,
                   reps=1)

#: (shards, executor, resident) transports of the equivalence grid.
TRANSPORTS = (
    (None, None, False),
    (2, "serial", False),
    (2, "process", False),
    (2, "serial", True),
    (2, "process", True),
)


def make_dense_workload(scale, seed=42):
    """The hotspot-drift packs as every tick's clustering.

    The planted packs *are* the clusters (each pack is density-connected
    by construction), so each step is ``(packs, None)`` — no delta, the
    classic full join.
    """
    _t, _snapshot, groups = next(iter(hotspot_drift_scenario(
        scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
        hotspots=scale["hotspots"], background=scale["background"],
    )))
    packs = [set(group) for group in groups]
    return [(packs, None)] * scale["n_snapshots"]


def make_small_workload(scale, seed=42):
    """The churn ticks of the small-delta regime."""
    return list(churn_stream(
        scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
        churn=scale["churn"], area=36.0 * EPS,
    ))


def make_delta_steps(ticks):
    """Each tick's incremental ``(clusters, delta)``, computed once."""
    clusterer = IncrementalSnapshotClusterer(EPS, M)
    return [clusterer.cluster_with_delta(snapshot) for _t, snapshot in ticks]


def run_timed(tracker_cls, steps, warmup):
    """One tracker run over ``steps``, timing every step past ``warmup``.

    Returns ``(per-step convoys incl. flush, step secs)``.  The flush
    is outside the timed window but inside the emissions, so the
    equivalence assertions cover the whole answer.  The cyclic
    collector is off for the run (after a full collect, so every run
    starts from the same heap state): when a collection fires depends
    on incidental allocation counts, which would bill one variant for
    the other's garbage.
    """
    if not warmup < len(steps):
        raise ValueError(f"warmup {warmup} must be < steps {len(steps)}")
    gc.collect()
    gc.disable()
    try:
        tracker = tracker_cls(M, K)
        closed = []
        step_seconds = []
        for t, (clusters, delta) in enumerate(steps):
            started = time.perf_counter()
            closed.append(tracker.advance_delta(clusters, delta, t, t))
            if t >= warmup:
                step_seconds.append(time.perf_counter() - started)
        closed.append(tracker.flush())
    finally:
        gc.enable()
    emitted = [[record.as_convoy() for record in batch] for batch in closed]
    return emitted, step_seconds


def run_regime(regime, steps, warmup, reps):
    """Time the join and the reference on one regime; assert equality.

    The variants are *interleaved* across ``reps`` full runs each, with
    the order *rotated* every rep, and rated by the median across step
    positions of the **minimum** per-step time over the reps.
    Interleaving keeps whole-process drift from folding into whichever
    variant ran during it; rotation keeps a systematic position effect
    from always taxing the same one; the per-step minimum is the
    noise-robust estimator — scheduling noise only ever *adds* time.
    """
    times = {kernel: [] for kernel in KERNELS}
    baseline = None
    for rep in range(reps):
        rotated = KERNELS[rep % len(KERNELS):] + KERNELS[:rep % len(KERNELS)]
        for kernel in rotated:
            emitted, step_seconds = run_timed(TRACKERS[kernel], steps, warmup)
            if baseline is None:
                baseline = emitted
            else:
                assert emitted == baseline, (
                    f"{kernel} diverged on the {regime} regime"
                )
            times[kernel].append(step_seconds)
    convoys = sum(len(batch) for batch in baseline)
    rows = []
    for kernel in KERNELS:
        reps_seconds = times[kernel]
        best_per_step = [min(col) for col in zip(*reps_seconds)]
        rows.append({
            "regime": regime,
            "kernel": kernel,
            "snapshots": sum(len(rep) for rep in reps_seconds),
            "seconds": sum(sum(rep) for rep in reps_seconds),
            "rate": safe_rate(1, statistics.median(best_per_step)),
            "convoys": convoys,
        })
    return rows


def check_transports(steps):
    """Assert the join's emissions equal the reference on every
    transport of the streaming engine."""
    expected, _seconds = run_timed(PairwiseTracker, steps, 0)
    clusters = [step_clusters for step_clusters, _delta in steps]
    for shards, executor, resident in TRANSPORTS:
        miner = StreamingConvoyMiner(
            M, K, EPS, clusterer=ReplayClusterer(clusters), shards=shards,
            executor=executor, resident=resident,
        )
        emitted = []
        with miner:
            for t, members in enumerate(clusters):
                # The replayed clusters ignore positions; any snapshot
                # of at least m objects lets the tick reach them.
                snapshot = dict.fromkeys(set().union(*members), (0.0, 0.0))
                emitted.append(miner.feed(t, snapshot))
            emitted.append(miner.flush())
        assert emitted == expected, (
            f"join diverged from the reference on transport "
            f"(shards={shards}, executor={executor}, resident={resident})"
        )
    return len(TRANSPORTS)


def run_all(smoke):
    dense_scale = SMOKE_DENSE if smoke else FULL_DENSE
    small_scale = SMOKE_SMALL if smoke else FULL_SMALL
    rows = run_regime(
        "dense", make_dense_workload(dense_scale), dense_scale["warmup"],
        dense_scale["reps"],
    )
    small_steps = make_delta_steps(make_small_workload(small_scale))
    rows.extend(run_regime(
        "small-delta", small_steps, small_scale["warmup"],
        small_scale["reps"],
    ))
    grid_runs = check_transports(make_dense_workload(SMOKE_DENSE))
    return dense_scale, small_scale, rows, grid_runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny workloads, equivalence assertions only "
        "(timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(rates, git SHA)",
    )
    args = parser.parse_args(argv)
    dense_scale, small_scale, rows, grid_runs = run_all(args.smoke)
    by_key = {(row["regime"], row["kernel"]): row for row in rows}
    table_rows = []
    for row in rows:
        reference = by_key[(row["regime"], "pairwise")]["rate"]
        rate = row["rate"]
        table_rows.append([
            row["regime"], row["kernel"], row["snapshots"],
            "-" if rate is None else f"{1000.0 / rate:.2f}",
            f"{rate / reference:.2f}x" if rate and reference else "-",
        ])
    print_report(
        format_table(
            f"Match join vs pairwise reference (m={M}, k={K}, e={EPS:g}; "
            f"identical convoys asserted, and across {grid_runs} "
            "transports)",
            ["regime", "kernel", "timed steps", "ms/step", "vs pairwise"],
            table_rows,
        )
    )
    if args.json:
        write_bench_json(
            args.json, "match_kernel",
            dict(m=M, k=K, eps=EPS, smoke=args.smoke,
                 dense_scale=dense_scale, small_scale=small_scale,
                 small_delta_bar=SMALL_DELTA_BAR, transport_runs=grid_runs),
            rows,
        )
        print(f"json results written to {args.json}")
    if args.smoke:
        print("smoke ok: the join agrees with the pairwise reference on "
              "every regime and transport")
        return 0
    join = by_key[("small-delta", "join")]["rate"]
    pairwise = by_key[("small-delta", "pairwise")]["rate"]
    if not join or not pairwise or join < SMALL_DELTA_BAR * pairwise:
        raise SystemExit(
            f"acceptance failure: the join reached "
            f"{(join or 0) / (pairwise or 1):.2f}x the pairwise rate on "
            f"the small-delta regime, below the {SMALL_DELTA_BAR:.2f}x bar"
        )
    print(
        f"acceptance ok: the join runs at {join / pairwise:.2f}x the "
        f"pairwise rate on small-delta (bar {SMALL_DELTA_BAR:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
