"""CMC — Coherent Moving Clusters (Section 4, Algorithm 1).

CMC is the exact-but-expensive baseline: densify every trajectory with
virtual points, run snapshot DBSCAN at *every* time point of the domain,
and chain clusters through the shared-objects test ``|c ∩ v| >= m``.

CMC is the streaming engine over a replayed database: ``cmc(db, ...)``
*is* ``mine_stream(replay_database(db), ...)``.
:func:`~repro.streaming.source.replay_database` produces ``O_t`` (each
trajectory walked once with a cursor), and
:class:`~repro.streaming.StreamingConvoyMiner` clusters each snapshot
and chains the clusters through
:class:`~repro.core.candidates.CandidateTracker`, which the CuTS filter
and refinement drive too.  So ``O_t`` and Algorithm 1's chaining
semantics each exist once.

By default candidates follow the complete semantics: a cluster that
extends a candidate also seeds a fresh one, so a convoy whose object set
grows mid-way is still reported.  ``paper_semantics=True`` follows the
published Algorithm 1 verbatim (lines 10-23): the candidate narrows to
the intersection and the cluster seeds nothing more, which can skip
such convoys (see :mod:`repro.core.candidates`).
"""

from __future__ import annotations

from repro.streaming.engine import mine_stream
from repro.streaming.source import replay_database


def cmc(database, m, k, eps, time_range=None, counters=None,
        paper_semantics=False):
    """Run the CMC convoy-discovery algorithm.

    Args:
        database: a :class:`repro.trajectory.TrajectoryDatabase`.
        m: minimum number of objects per convoy.
        k: minimum lifetime in consecutive time points.
        eps: density distance threshold ``e``.
        time_range: optional ``(t_lo, t_hi)`` pair of ints restricting
            the sweep; defaults to the database's full time domain.
        counters: optional dict; when given, receives the engine's
            bookkeeping totals (``snapshots``, ``clustering_calls``,
            ``clustered_points``, ``peak_candidates``,
            ``convoys_emitted``, plus the tracker's) used by the
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
    return mine_stream(
        replay_database(database, time_range), m, k, eps,
        paper_semantics=paper_semantics, counters=counters,
    )
