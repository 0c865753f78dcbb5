"""Streaming convoy discovery — Algorithm 1 restructured as an online engine.

CMC (Section 4, Algorithm 1) is snapshot-sequential by construction:
cluster the objects alive at time ``t``, join the clusters against the live
candidate set, report chains that die after ``k`` points.  Nothing in that
loop needs the *future* of the data, so the same semantics can run online:
:class:`StreamingConvoyMiner` ingests one snapshot per call, pays exactly
one snapshot-clustering pass plus one candidate-intersection step per tick,
and emits a convoy the moment its chain fails to extend — no full-history
recompute, ever.

Internally the miner is a thin composition over the explicit staged
pipeline of :mod:`repro.streaming.pipeline` —

::

    feed(t, snapshot) ──> ingest ──> cluster ──> track ──> emit

— the engine validates parameters, builds the stages, and forwards; the
stages own the data path.  Each stage is independently swappable:

* **ingest** carries the optional watermarked
  :class:`~repro.streaming.reorder.ReorderBuffer` (out-of-order
  tolerance) and the gap rule's bookkeeping;
* **cluster** runs a fresh :func:`~repro.clustering.dbscan.dbscan` per
  tick by default, or the cross-tick delta maintenance of
  :class:`~repro.clustering.incremental.IncrementalSnapshotClusterer`
  (``clusterer="incremental"``), which re-clusters only what changed;
* **track** holds the :class:`~repro.core.candidates.CandidateTracker`:
  gap severing, one candidate join per tick, and the bounded-memory
  window;
* **emit** converts closed chains to convoys and keeps the counters.

The offline :func:`repro.core.cmc.cmc` delegates its per-snapshot step to
this engine, so the chaining semantics (including the ``paper_semantics``
switch and the gap rule — see :mod:`repro.core.candidates`) exist in one
place with two drivers: the batch sweep over a materialized
:class:`~repro.trajectory.TrajectoryDatabase`, and the push-based streaming
path fed by the adapters in :mod:`repro.streaming.source`.

Snapshots normally must arrive in strictly increasing time order; a
``reorder=`` buffer (:mod:`repro.streaming.reorder`) relaxes that to
bounded out-of-order tolerance — arrivals are held behind a watermark,
merged on duplicate timestamps, and ingested in restored order, with the
configured policy deciding what happens to hopelessly late data.

Memory: with ``window=None`` the engine holds the live candidate chains,
whose per-step history grows with chain age — exact, but unbounded on an
infinite stream with an eternal convoy.  A ``window`` caps every chain at
that many time points: chains reaching the cap are closed (reported when
they qualify) and their objects re-seed fresh chains, so convoys outliving
the window surface as consecutive fragments and memory stays
O(live chains x window).
"""

from __future__ import annotations

from repro.checks import check_count, check_eps
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.core.candidates import CandidateTracker, check_query_counts
from repro.streaming.pipeline import (
    ClusterStage,
    EmitStage,
    IngestStage,
    StreamingPipeline,
    TrackStage,
)
from repro.streaming.reorder import ReorderBuffer
from repro.store.base import ConvoyStore
from repro.store.sink import StoreSink
from repro.store.sqlite import open_store

#: Counter keys a miner maintains in its ``counters`` dict.
COUNTER_KEYS = (
    "snapshots",
    "clustering_calls",
    "clustered_points",
    "convoys_emitted",
    "peak_candidates",
)


class StreamingConvoyMiner:
    """Online convoy discovery over a pushed sequence of snapshots.

    Args:
        m: minimum number of objects per convoy (an integer >= 1).
        k: minimum lifetime in consecutive time points (an integer >= 1).
        eps: density distance threshold ``e``.
        paper_semantics: reproduce Algorithm 1's candidate rule verbatim
            instead of the default complete semantics (see
            :mod:`repro.core.candidates`).
        window: optional bounded-memory cap, in time points (an integer
            ``>= k``).  None (default) is exact; a finite window
            fragments convoys that outlive it (see the module docstring).
        counters: optional dict receiving bookkeeping totals (the
            ``COUNTER_KEYS``); a fresh dict is created when omitted and is
            always available as :attr:`counters`.
        clusterer: snapshot-clustering strategy.  ``None`` or ``"full"``
            (default) runs a fresh :func:`~repro.clustering.dbscan.dbscan`
            pass per tick; ``"incremental"`` maintains the previous tick's
            clustering through an
            :class:`~repro.clustering.incremental.IncrementalSnapshotClusterer`
            (identical clusters, hence identical convoys, but much faster
            when consecutive snapshots overlap heavily); any object with a
            ``cluster(snapshot) -> list[set]`` method is used as-is.  The
            chosen strategy is introspectable as :attr:`clusterer`
            (``None`` for the full pass).
        reorder: optional out-of-order tolerance in front of ``feed``.  A
            :class:`~repro.streaming.reorder.ReorderBuffer` instance, or
            a dict of its keyword arguments (``allowed_lateness``,
            ``max_pending``, ``late_policy``) from which one is built
            sharing this miner's counters dict.  ``feed`` then accepts
            shuffled timestamps within the buffer's watermark: each call
            pushes the arrival into the buffer and ingests whatever the
            watermark released (possibly nothing, possibly several
            snapshots), and ``flush`` drains the buffer before closing
            chains.  The chosen buffer is introspectable as
            :attr:`reorder` (``None`` for the strict in-order contract).
        store: optional write-through persistence.  A
            :class:`~repro.store.base.ConvoyStore` instance, or a path
            (``str``/``os.PathLike``) from which a SQLite store is
            opened (and closed again when the miner closes).  Every
            closed convoy is persisted the tick it closes — one
            transaction per tick, idempotent on convoy identity, so a
            crashed-and-restarted stream resumes without duplicates —
            together with its bounding box over the positions its
            members reported.  Emissions are untouched; the chosen
            store is introspectable as :attr:`store` (None without
            persistence).  Adds ``stored_convoys`` /
            ``replayed_convoys`` to the counters.

    Usage::

        miner = StreamingConvoyMiner(m=2, k=5, eps=2.0)
        for t, snapshot in source:            # {object_id: (x, y)} per tick
            for convoy in miner.feed(t, snapshot):
                handle(convoy)                # emitted as soon as it closes
        tail = miner.flush()                  # convoys still open at the end

    Snapshots must arrive in strictly increasing time order (a
    ``reorder=`` buffer relaxes this to bounded tolerance).  A skipped
    time point is a point where no object reported — per Definition 3's "k
    *consecutive* time points" no chain may bridge it, so a gap closes every
    live chain (emitting the qualifying ones at the next ``feed``).
    """

    def __init__(self, m, k, eps, paper_semantics=False, window=None,
                 counters=None, clusterer=None, reorder=None, store=None):
        check_query_counts(m, k)
        check_eps(eps)
        if window is not None:
            check_count("window", window, k)
        self.counters = counters if counters is not None else {}
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)
        if reorder is None:
            self.reorder = None
        elif isinstance(reorder, ReorderBuffer):
            self.reorder = reorder
        elif isinstance(reorder, dict):
            self.reorder = ReorderBuffer(counters=self.counters, **reorder)
        else:
            raise ValueError(
                "reorder must be None, a ReorderBuffer, or a dict of "
                f"ReorderBuffer keyword arguments, got {reorder!r}"
            )
        # The tracker adds its own counter keys (step and
        # re-intersection totals) to the shared dict.
        tracker = CandidateTracker(
            m, k, paper_semantics=paper_semantics, counters=self.counters,
        )
        self._m = m
        self._k = k
        self._eps = eps
        self._window = window
        if clusterer is None or clusterer == "full":
            self.clusterer = None
        elif clusterer == "incremental":
            self.clusterer = IncrementalSnapshotClusterer(eps, m)
        elif callable(getattr(clusterer, "cluster", None)):
            self.clusterer = clusterer
        else:
            raise ValueError(
                "clusterer must be None, 'full', 'incremental', or an "
                f"object with a cluster() method, got {clusterer!r}"
            )
        if store is None:
            self.store = None
            sink = None
        elif isinstance(store, ConvoyStore):
            self.store = store
            sink = StoreSink(store, counters=self.counters)
        else:
            # A path: the miner owns the store it opened, so closing
            # the miner closes the database too.
            self.store = open_store(store)
            sink = StoreSink(self.store, counters=self.counters,
                             owns_store=True)
        #: The staged data path (ingest → cluster → track → emit); see
        #: :mod:`repro.streaming.pipeline`.
        self.pipeline = StreamingPipeline(
            IngestStage(self.reorder),
            ClusterStage(self.clusterer, eps, m, self.counters),
            TrackStage(tracker, window),
            EmitStage(self.counters, sink=sink),
        )
        self._flushed = False

    @property
    def last_time(self):
        """Time of the most recently fed snapshot (None before the first)."""
        return self.pipeline.ingest.last_time

    @property
    def live_candidate_count(self):
        """Number of currently open candidate chains."""
        return self.pipeline.track.live_count

    @property
    def live_candidates(self):
        """The open chains as convoy-shaped records (for introspection)."""
        return self.pipeline.track.live_candidates

    def feed(self, t, snapshot):
        """Ingest the snapshot at time ``t``; return the convoys it closed.

        Args:
            t: integer time point, strictly greater than the previous one —
                unless the miner was built with ``reorder=...``, in which
                case any timestamp the buffer's watermark and late policy
                accept is legal, and this call ingests whatever the buffer
                released (so the returned convoys may belong to earlier
                pushes, or the call may buffer silently and return none).
            snapshot: mapping ``{object_id: (x, y)}`` of every object that
                reported at ``t``.  May be empty (which ends every chain).

        Returns:
            List of :class:`~repro.core.convoy.Convoy` whose chains ended at
            this step with lifetime >= k, in discovery order.

        Raises:
            ValueError: if ``t`` is not an int (floats such as 2.7 or 3.0,
                NaN, inf, bools and strings are refused, never truncated),
                or arrives out of order without a reorder buffer.
        """
        if self._flushed:
            raise RuntimeError("stream already flushed; create a new miner")
        return self.pipeline.feed(t, snapshot)

    def release_pending(self):
        """Force the reorder buffer's pending snapshots through *now*.

        The idle-drain seam for quiescent feeds: a capacity-only
        ``reorder`` buffer (``max_pending`` without ``allowed_lateness``)
        releases only under arrival pressure, so when the feed goes
        quiet its last ``< max_pending`` snapshots would stay buffered
        indefinitely — neither mined nor lost, just stalled.  A caller
        that knows the feed is idle (the multi-tenant service, a
        session-timeout sweep) uses this to ingest the tail without
        ending the stream: the buffered snapshots run through the
        pipeline in time order and the convoys they close are returned.
        The miner stays live — ``feed`` keeps working, though arrivals
        at or below the released timestamps are now late and fall to
        the buffer's ``late_policy``.  A no-op returning ``[]`` for
        miners without a reorder buffer.
        """
        if self._flushed:
            raise RuntimeError("stream already flushed; create a new miner")
        return self.pipeline.release_pending()

    def flush(self):
        """End the stream: close every open chain, return the qualifiers.

        Chains alive at the final snapshot are real convoys when they
        already span >= k points — Algorithm 1 reproductions classically
        drop them because the pseudocode only reports on failed extension.
        With ``reorder=...`` the buffer is drained first — its pending
        snapshots are ingested in time order, so convoys they close (or
        extend to qualification) are part of the returned tail.
        After ``flush`` the miner is finished; further ``feed`` calls raise.
        Calling ``flush`` again returns an empty list.
        """
        if self._flushed:
            return []
        closed = self.pipeline.flush()
        self._flushed = True
        return closed

    def close(self):
        """Release the store sink (idempotent; emits nothing).

        The sink commits every completed tick (rolling a half-written
        one back), and a store the miner opened from a path is closed
        here and stays closed.  An exception mid-``feed`` (a
        late-policy ``raise`` in the reorder buffer, a failing store)
        skips ``flush``, so the miner is a context manager that reaches
        ``close`` on every path::

            with StreamingConvoyMiner(...) as miner:
                ...
        """
        self.pipeline.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False


def mine_stream(source, m, k, eps, paper_semantics=False, window=None,
                counters=None, clusterer=None, reorder=None, store=None):
    """Drive a :class:`StreamingConvoyMiner` over a snapshot source.

    Args:
        source: iterable of ``(t, {object_id: (x, y)})`` ticks in strictly
            increasing time order — any adapter from
            :mod:`repro.streaming.source`, or a plain generator.  With
            ``reorder=`` the order requirement relaxes to whatever the
            buffer's watermark and late policy accept (e.g. the jittered
            feeds of ``synthetic_stream(..., jitter=)``).
        m, k, eps: the convoy-query parameters.
        paper_semantics, window, counters, clusterer, reorder, store:
            forwarded to the miner
            (``store`` persists every convoy as it closes; a path opens a
            SQLite store that is closed again before returning).

    Returns:
        List of :class:`~repro.core.convoy.Convoy` in discovery order,
        including the end-of-stream flush.
    """
    miner = StreamingConvoyMiner(
        m, k, eps, paper_semantics=paper_semantics, window=window,
        counters=counters, clusterer=clusterer, reorder=reorder, store=store,
    )
    convoys = []
    # The context manager closes a store opened from a path even when
    # the source raises mid-stream.
    with miner:
        for t, snapshot in source:
            convoys.extend(miner.feed(t, snapshot))
        convoys.extend(miner.flush())
    return convoys
