"""CMC — Coherent Moving Clusters (Section 4, Algorithm 1).

CMC is the exact-but-expensive baseline: densify every trajectory with
virtual points, run snapshot DBSCAN at *every* time point of the domain,
and chain clusters through the shared-objects test ``|c ∩ v| >= m``.  The
CuTS family's refinement step reuses this exact routine on each candidate's
original trajectories, so convoy semantics are defined in one place.

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

from repro.streaming.engine import StreamingConvoyMiner


def cmc(database, m, k, eps, time_range=None, counters=None,
        paper_semantics=False, allowed_at=None, clusterer=None,
        backend=None, store=None):
    """Run the CMC convoy-discovery algorithm.

    Args:
        database: a :class:`repro.trajectory.TrajectoryDatabase`.
        m: minimum number of objects per convoy.
        k: minimum lifetime in consecutive time points.
        eps: density distance threshold ``e``.
        time_range: optional ``(t_lo, t_hi)`` restriction; defaults to the
            database's full time domain.  The CuTS refinement step passes
            each candidate's interval here.
        counters: optional dict; when given, receives bookkeeping totals
            (``clustering_calls``, ``interpolated_points``,
            ``clustered_points``, plus the engine's ``snapshots`` /
            ``peak_candidates`` / ``convoys_emitted``) used by the
            cost-analysis benches.
        paper_semantics: when True, candidates follow Algorithm 1's
            published seeding rule verbatim, which can miss convoys whose
            membership grows mid-stream; the default complete semantics
            fixes that (see :mod:`repro.core.candidates`).
        allowed_at: optional callable ``t -> container of object ids``;
            when given, the snapshot at time ``t`` only includes the listed
            objects.  The CuTS refinement uses this to re-cluster, at every
            time point, exactly the members of the filter cluster its
            candidate passed through.
        clusterer: snapshot-clustering strategy, forwarded to
            :class:`~repro.streaming.StreamingConvoyMiner` — ``None`` /
            ``"full"`` (default) for a fresh DBSCAN per time point,
            ``"incremental"`` for cross-tick delta maintenance (identical
            answer, faster on slow-moving databases).  The incremental
            clusterer's cluster diff additionally flows into the candidate
            step (``CandidateTracker.advance_delta``), so candidates
            supported by unchanged clusters are spliced through without
            re-intersection; a pre-built ``IncrementalSnapshotClusterer``
            instance (e.g. with an adaptive churn threshold) is accepted
            too.
        backend: numeric backend for the snapshot-clustering kernels,
            forwarded to the miner — ``None``/``"python"`` (default) or
            ``"vector"`` (batched contiguous-array kernels, identical
            answer; see :mod:`repro.clustering.numeric`).
        store: optional write-through persistence, forwarded to the
            miner — a :class:`~repro.store.base.ConvoyStore` or a path
            to a SQLite store; every convoy is persisted (with its
            bounding box) as the batch sweep closes it, idempotent on
            convoy identity, so re-running a batch over the same data
            adds nothing.  The returned list is unchanged.

    Returns:
        List of :class:`repro.core.convoy.Convoy`, in discovery order.
        Convoys whose group splits and later re-forms are reported once per
        maximal run, per Definition 3.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
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
    active = []  # trajectories whose tau covers the current t (maintained)
    next_idx = 0

    miner = StreamingConvoyMiner(
        m, k, eps, paper_semantics=paper_semantics, counters=counters,
        clusterer=clusterer, backend=backend, store=store,
    )
    results = []
    # The context manager releases a path-opened store (and any pooled
    # tracker resources) even when a snapshot raises mid-sweep.
    with miner:
        for t in range(t_lo, t_hi + 1):
            while next_idx < len(trajectories) and trajectories[next_idx].start_time <= t:
                active.append(trajectories[next_idx])
                next_idx += 1
            if active:
                active = [tr for tr in active if tr.end_time >= t]
            allowed = allowed_at(t) if allowed_at is not None else None
            snapshot = {}
            interpolated = 0
            for tr in active:
                if allowed is not None and tr.object_id not in allowed:
                    continue
                snapshot[tr.object_id] = tr.location_at(t)
                if not tr.has_sample_at(t):
                    interpolated += 1
            if counters is not None and len(snapshot) >= m:
                counters["interpolated_points"] += interpolated
            results.extend(miner.feed(t, snapshot))
        results.extend(miner.flush())
    return results
