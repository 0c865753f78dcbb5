"""CMC — Coherent Moving Clusters (Section 4, Algorithm 1).

CMC is the exact-but-expensive baseline: densify every trajectory with
virtual points, run snapshot DBSCAN at *every* time point of the domain,
and chain clusters through the shared-objects test ``|c ∩ v| >= m``.  The
chaining is :class:`~repro.core.candidates.CandidateTracker`'s, which the
CuTS filter and refinement drive too, so convoy semantics are defined in
one place.

CMC follows the paper's candidate semantics: when a cluster extends an
existing candidate, the candidate narrows to the intersection and the
cluster does not additionally seed a fresh candidate (Algorithm 1 lines
10-23).  Later work observed that this can skip convoys whose object set
grows mid-way; we reproduce the paper's algorithm, and the CuTS-vs-CMC
equivalence tests are stated against these semantics.

The per-snapshot step — cluster, join against live candidates, emit dead
chains — lives in :class:`repro.streaming.StreamingConvoyMiner`; this
module is the batch driver that sweeps a materialized database through it
(the streaming sources in :mod:`repro.streaming.source` are the other
driver), so Algorithm 1's chaining semantics exist exactly once.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.checks import check_eps
from repro.core.candidates import check_query_counts
from repro.streaming.engine import StreamingConvoyMiner


def cmc(database, m, k, eps, time_range=None, counters=None,
        paper_semantics=False):
    """Run the CMC convoy-discovery algorithm.

    Args:
        database: a :class:`repro.trajectory.TrajectoryDatabase`.
        m: minimum number of objects per convoy.
        k: minimum lifetime in consecutive time points.
        eps: density distance threshold ``e``.
        time_range: optional ``(t_lo, t_hi)`` restriction; defaults to the
            database's full time domain.
        counters: optional dict; when given, receives bookkeeping totals
            (``clustering_calls``, ``interpolated_points``,
            ``clustered_points``, plus the engine's ``snapshots`` /
            ``peak_candidates`` / ``convoys_emitted``) used by the
            cost-analysis benches.
        paper_semantics: when True, candidates follow Algorithm 1's
            published seeding rule verbatim, which can miss convoys whose
            membership grows mid-stream; the default complete semantics
            fixes that (see :mod:`repro.core.candidates`).

    Returns:
        List of :class:`repro.core.convoy.Convoy`, in discovery order.
        Convoys whose group splits and later re-forms are reported once per
        maximal run, per Definition 3.
    """
    check_query_counts(m, k)
    check_eps(eps)
    if len(database) == 0:
        return []
    if time_range is None:
        t_lo, t_hi = database.min_time, database.max_time
    else:
        t_lo, t_hi = time_range
        if t_hi < t_lo:
            raise ValueError(f"time_range reversed: [{t_lo}, {t_hi}]")

    if counters is not None:
        counters.setdefault("interpolated_points", 0)

    # Sort trajectories once by start time so each step only examines
    # objects whose interval can cover the current time point.
    trajectories = sorted(database, key=lambda tr: tr.start_time)
    # One entry per trajectory whose tau covers the current t:
    # [object_id, times, xs, ys, cursor], the cursor at the first sample
    # at or after t.
    active = []
    next_idx = 0

    miner = StreamingConvoyMiner(
        m, k, eps, paper_semantics=paper_semantics, counters=counters,
    )
    results = []
    for t in range(t_lo, t_hi + 1):
        while next_idx < len(trajectories) and trajectories[next_idx].start_time <= t:
            tr = trajectories[next_idx]
            times, xs, ys = tr.coordinates()
            active.append([tr.object_id, times, xs, ys, bisect_left(times, t)])
            next_idx += 1
        if active:
            active = [entry for entry in active if entry[1][-1] >= t]
        snapshot = {}
        interpolated = 0
        for entry in active:
            object_id, times, xs, ys, j = entry
            while times[j] < t:
                j += 1
            entry[4] = j
            # interpolate_position's float expressions, in its order.
            if times[j] == t:
                snapshot[object_id] = (xs[j], ys[j])
            else:
                lo = j - 1
                ratio = (t - times[lo]) / (times[j] - times[lo])
                snapshot[object_id] = (
                    xs[lo] + (xs[j] - xs[lo]) * ratio,
                    ys[lo] + (ys[j] - ys[lo]) * ratio,
                )
                interpolated += 1
        if counters is not None and len(snapshot) >= m:
            counters["interpolated_points"] += interpolated
        results.extend(miner.feed(t, snapshot))
    results.extend(miner.flush())
    return results
