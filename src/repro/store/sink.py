"""Write-through persistence sink for the streaming emit stage.

:class:`StoreSink` sits inside the pipeline's
:class:`~repro.streaming.pipeline.EmitStage` and persists every closed
convoy into a :class:`~repro.store.sqlite.SQLiteConvoyStore` *as it is
mined*:

* writes are **batched one transaction per tick** — the pipeline calls
  :meth:`commit` once per in-order tick, so the database always holds a
  clean tick-prefix of the stream and a killed process loses at most
  the tick in flight;
* persistence is **idempotent** — the store upserts on convoy identity,
  so a restarted stream replaying from the beginning converges on
  exactly the rows a single uninterrupted run would have written, with
  no duplicates;
* each convoy is stored with its **bounding box** over the positions
  its members actually reported during the convoy's interval, computed
  from a position log the sink maintains as snapshots flow past
  (:meth:`observe`) and prunes below the oldest live chain — the same
  retention the tracker's own window histories already impose, so the
  sink changes the engine's memory class by nothing.

The sink never alters what the pipeline emits: the differential suite
holds a mined-with-store run bit-for-bit equal to the plain in-memory
run, with the store's read-back equal to both.
"""

from __future__ import annotations

from repro.geometry.bbox import BoundingBox

_INF = float("inf")
#: Stand-in for a tick missing from the position log.
_NO_POSITIONS = {}


class StoreSink:
    """Persist closed convoys into a store, one transaction per tick.

    Args:
        store: the :class:`~repro.store.sqlite.SQLiteConvoyStore` to
            write into.
        counters: optional dict receiving ``stored_convoys`` (rows newly
            written) and ``replayed_convoys`` (identity collisions — the
            idempotent-resume path) totals.
        owns_store: close the store when the sink is closed (True when
            the engine opened the store from a path on the caller's
            behalf; False when the caller handed in a live store).
    """

    def __init__(self, store, counters=None, owns_store=False):
        self.store = store
        self.counters = counters if counters is not None else {}
        self.counters.setdefault("stored_convoys", 0)
        self.counters.setdefault("replayed_convoys", 0)
        self._owns_store = owns_store
        self._positions = {}  # t -> {object_id: (x, y)}
        self._pending = []  # convoys closed since the last commit
        self._closed = False

    def observe(self, t, snapshot):
        """Record one tick's positions (for bounding-box computation)."""
        self._positions[t] = dict(snapshot)

    def write(self, convoys):
        """Buffer closed convoys for the next :meth:`commit`."""
        self._pending.extend(convoys)

    def commit(self, oldest_live_start=None):
        """Flush the buffered convoys as one transaction.

        Args:
            oldest_live_start: earliest ``t_start`` among the tracker's
                still-live chains, or None when no chain is live.  The
                position log is pruned below it — ticks older than every
                live chain can never appear in a future closure's
                interval.
        """
        if self._pending:
            # The buffer empties only once the batch is durably in the
            # store: a commit that raises keeps its convoys pending, so
            # a later retry (or the close-time final commit) still
            # persists them instead of silently dropping the tick.
            stored = self.store.add_batch(
                self._pending,
                bboxes=self._bboxes(self._pending),
            )
            self.counters["stored_convoys"] += stored
            self.counters["replayed_convoys"] += len(self._pending) - stored
            self._pending = []
        if self._positions:
            if oldest_live_start is None:
                self._positions.clear()
            else:
                for t in [t for t in self._positions
                          if t < oldest_live_start]:
                    del self._positions[t]

    def _bboxes(self, convoys):
        """Bounding box of each convoy's members over its interval, from
        the position log (None where no logged tick covers the interval —
        a store fed through :meth:`write` alone, without observation).

        Convoys closing together share most of their positions: at a
        flush, a hundred convoys formed by a dozen groups cover about a
        fifth as many distinct (member, tick) positions as the sum of
        their member × interval products.  So each member is swept once
        per interval end, backwards from that end, keeping its running
        box at every depth; a convoy's box is then the union of its
        members' running boxes at the convoy's own depth.
        """
        depth_of = {}  # (member, t_end) -> deepest interval asked for
        for convoy in convoys:
            t_end = convoy.t_end
            depth = t_end - convoy.t_start
            for object_id in convoy.objects:
                key = object_id, t_end
                if depth_of.get(key, -1) < depth:
                    depth_of[key] = depth
        positions_get = self._positions.get
        frames_of = {}  # t_end -> logged snapshots, newest first
        running_of = {}  # (member, t_end) -> running boxes by depth
        for (object_id, t_end), depth in depth_of.items():
            frames = frames_of.get(t_end)
            if frames is None or len(frames) <= depth:
                frames = frames_of[t_end] = [
                    positions_get(t) or _NO_POSITIONS
                    for t in range(t_end, t_end - depth - 1, -1)
                ]
            min_x = min_y = _INF
            max_x = max_y = -_INF
            running = running_of[object_id, t_end] = []
            for frame in frames[:depth + 1]:
                position = frame.get(object_id)
                if position is not None:
                    x, y = position
                    if x < min_x:
                        min_x = x
                    if x > max_x:
                        max_x = x
                    if y < min_y:
                        min_y = y
                    if y > max_y:
                        max_y = y
                running.append((min_x, min_y, max_x, max_y))
        boxes = []
        for convoy in convoys:
            t_end = convoy.t_end
            depth = t_end - convoy.t_start
            min_x = min_y = _INF
            max_x = max_y = -_INF
            for object_id in convoy.objects:
                low_x, low_y, high_x, high_y = (
                    running_of[object_id, t_end][depth])
                if low_x < min_x:
                    min_x = low_x
                if low_y < min_y:
                    min_y = low_y
                if high_x > max_x:
                    max_x = high_x
                if high_y > max_y:
                    max_y = high_y
            boxes.append(BoundingBox(min_x, min_y, max_x, max_y)
                         if min_x <= max_x else None)
        return boxes

    def close(self):
        """Commit anything still buffered, then release the store if
        this sink owns it.

        Idempotent and exception-safe: a second call is a no-op, and
        when the final commit fails (typically re-raising whatever
        already failed mid-tick) the store's open transaction is rolled
        back — never left dangling in the WAL — before the error
        propagates from this first close.  The store is released either
        way when this sink owns it.
        """
        if self._closed:
            return
        self._closed = True
        try:
            try:
                self.commit()
            except BaseException:
                # add_batch rolls its own transaction back, but a store
                # handed in mid-batch (or a non-SQLite backend) may not:
                # make the no-dangling-transaction guarantee locally.
                self.store.rollback()
                raise
        finally:
            self._positions.clear()
            self._pending = []
            if self._owns_store:
                self.store.close()
