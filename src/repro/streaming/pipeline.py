"""The streaming miner as an explicit staged pipeline.

:class:`~repro.streaming.engine.StreamingConvoyMiner` used to be one
monolithic ``feed()``; this module names its four phases as stage
objects behind a small uniform interface and composes them:

::

    arrival ──> IngestStage ──> ClusterStage ──> TrackStage ──> EmitStage
                (reorder,        (DBSCAN /        (candidate      (records ->
                 time order,      incremental)     advance,        convoys,
                 gap detect)                       gaps, prune)    counters)

Each stage is a plain object with a ``name`` and one or two methods; a
:class:`StreamingPipeline` wires them in sequence, so each stage can be
built, tested and timed on its own.

Stage contract, per in-order tick:

* ``IngestStage.ingest(t, snapshot)`` accepts one *arrival* (possibly
  out of order when built with a reorder buffer) and returns the ticks
  it released as ``(t, snapshot, gap)`` triples in strictly increasing
  time order, where ``gap`` names the skipped closed interval
  ``[last + 1, t - 1]`` (or None); ``drain()`` flushes the buffer tail.
* ``ClusterStage.cluster(snapshot)`` returns the snapshot's density
  clusters (below-``m`` snapshots short-circuit to no clusters).
* ``TrackStage.step(t, clusters, gap)`` severs chains across the gap,
  advances the candidate tracker once, applies the bounded-memory
  window, and returns the closed
  :class:`~repro.core.candidates.ClosedCandidate` records;
  ``flush()`` closes every remaining chain.
* ``EmitStage.emit_tick(records, live_count, oldest_live_start)`` /
  ``emit_flush(records)`` convert records to
  :class:`~repro.core.convoy.Convoy` and keep the engine counters —
  and, when built with a write-through ``sink``
  (:class:`~repro.store.sink.StoreSink`), persist every closed convoy
  into a :class:`~repro.store.sqlite.SQLiteConvoyStore` as one
  transaction per tick (``observe`` feeds the sink the tick's positions
  first, so stored convoys carry their bounding boxes).

The engine owns parameter validation and the public API; the pipeline
owns the data path.  Nothing here imports the engine, so stages are
individually constructible and testable.
"""

from __future__ import annotations

from repro.clustering.dbscan import dbscan
from repro.streaming.reorder import check_tick_time


class IngestStage:
    """Restore and validate time order; detect gaps between ticks."""

    name = "ingest"

    def __init__(self, reorder=None):
        self.reorder = reorder
        self.last_time = None

    def ingest(self, t, snapshot):
        """Accept one arrival; return released ``(t, snapshot, gap)`` ticks."""
        if self.reorder is not None:
            released = self.reorder.push(t, snapshot)
        else:
            check_tick_time(t)
            released = ((t, snapshot),)
        return [self._order(rt, rs) for rt, rs in released]

    def drain(self):
        """End of stream: release the reorder buffer's pending tail."""
        if self.reorder is None:
            return []
        return [self._order(rt, rs) for rt, rs in self.reorder.drain()]

    def release_all(self):
        """Mid-stream idle drain: force-release everything the reorder
        buffer holds, without ending the stream (no-op when there is no
        buffer — an unbuffered stage never holds snapshots back)."""
        if self.reorder is None:
            return []
        return [self._order(rt, rs) for rt, rs in self.reorder.release_all()]

    def _order(self, t, snapshot):
        if self.last_time is not None and t <= self.last_time:
            raise ValueError(
                f"snapshots must arrive in strictly increasing time order: "
                f"got t={t} after already ingesting t={self.last_time}"
            )
        gap = None
        if self.last_time is not None and t > self.last_time + 1:
            # The skipped points [last+1, t-1] had no data: no cluster can
            # exist there, so every chain's consecutive run ends.
            gap = (self.last_time + 1, t - 1)
        self.last_time = t
        return t, snapshot, gap


class ClusterStage:
    """Density-cluster one snapshot."""

    name = "cluster"

    def __init__(self, clusterer, eps, min_objects, counters):
        self.clusterer = clusterer  # None = fresh DBSCAN per tick
        self._eps = eps
        self._m = min_objects
        self.counters = counters

    def cluster(self, snapshot):
        """Return the snapshot's clusters (``()`` when fewer than ``m``
        objects reported — no cluster can exist)."""
        if len(snapshot) < self._m:
            return ()
        if self.clusterer is None:
            clusters = dbscan(snapshot, self._eps, self._m)
        else:
            clusters = self.clusterer.cluster(snapshot)
        self.counters["clustering_calls"] += 1
        self.counters["clustered_points"] += len(snapshot)
        return clusters


class TrackStage:
    """Advance the candidate tracker: gap severing, extension,
    bounded-memory pruning."""

    name = "track"

    def __init__(self, tracker, window=None):
        self.tracker = tracker
        self.window = window

    @property
    def live_count(self):
        return self.tracker.live_count

    @property
    def live_candidates(self):
        return self.tracker.live_candidates

    @property
    def oldest_live_start(self):
        """Earliest ``t_start`` among live chains (None when none live);
        the write-through sink's position-log retention horizon."""
        return self.tracker.oldest_live_start

    def step(self, t, clusters, gap):
        """One in-order tick; returns the ClosedCandidate records."""
        records = []
        if gap is not None:
            records.extend(self.tracker.advance((), gap[0], gap[1]))
        records.extend(self.tracker.advance(clusters, t, t))
        if self.window is not None:
            records.extend(self.tracker.prune_longer_than(self.window))
        return records

    def flush(self):
        """Close every remaining chain."""
        return self.tracker.flush()


class EmitStage:
    """Convert closed records to convoys; maintain the engine counters;
    optionally write every closed convoy through a persistence sink."""

    name = "emit"

    def __init__(self, counters, sink=None):
        self.counters = counters
        #: Optional write-through :class:`~repro.store.sink.StoreSink`.
        self.sink = sink

    def observe(self, t, snapshot):
        """Show the sink one tick's positions before the tick runs (the
        bounding boxes of later closures are computed from these)."""
        if self.sink is not None:
            self.sink.observe(t, snapshot)

    def emit_tick(self, records, live_count, oldest_live_start=None):
        self.counters["snapshots"] += 1
        if live_count > self.counters["peak_candidates"]:
            self.counters["peak_candidates"] = live_count
        self.counters["convoys_emitted"] += len(records)
        convoys = [record.as_convoy() for record in records]
        if self.sink is not None:
            # One transaction per tick: the store always holds a clean
            # tick-prefix of the stream (crash safety's commit unit).
            self.sink.write(convoys)
            self.sink.commit(oldest_live_start)
        return convoys

    def emit_flush(self, records):
        self.counters["convoys_emitted"] += len(records)
        convoys = [record.as_convoy() for record in records]
        if self.sink is not None:
            self.sink.write(convoys)
            self.sink.commit()
        return convoys

    def close(self):
        """Release the sink (commits nothing new after a flush; owns-
        store sinks close their store)."""
        if self.sink is not None:
            self.sink.close()


class StreamingPipeline:
    """Compose the four stages into the miner's data path."""

    def __init__(self, ingest, cluster, track, emit):
        self.ingest = ingest
        self.cluster = cluster
        self.track = track
        self.emit = emit
        #: The stages in data-path order (for introspection and tests).
        self.stages = (ingest, cluster, track, emit)

    def feed(self, t, snapshot):
        """Push one arrival through every stage; return closed convoys."""
        closed = []
        for tick_t, tick_snapshot, gap in self.ingest.ingest(t, snapshot):
            closed.extend(self._run_tick(tick_t, tick_snapshot, gap))
        return closed

    def flush(self):
        """Drain the ingest stage, then close every remaining chain."""
        closed = []
        for tick_t, tick_snapshot, gap in self.ingest.drain():
            closed.extend(self._run_tick(tick_t, tick_snapshot, gap))
        closed.extend(self.emit.emit_flush(self.track.flush()))
        return closed

    def release_pending(self):
        """Idle drain: run every snapshot the ingest stage still holds
        through the remaining stages, without ending the stream."""
        closed = []
        for tick_t, tick_snapshot, gap in self.ingest.release_all():
            closed.extend(self._run_tick(tick_t, tick_snapshot, gap))
        return closed

    def close(self):
        """Release the emit stage's sink without flushing (error paths)."""
        self.emit.close()

    def _run_tick(self, t, snapshot, gap):
        self.emit.observe(t, snapshot)
        clusters = self.cluster.cluster(snapshot)
        records = self.track.step(t, clusters, gap)
        return self.emit.emit_tick(records, self.track.live_count,
                                   self.track.oldest_live_start)
