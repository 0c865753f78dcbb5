"""Watermarked reorder buffer: out-of-order snapshot tolerance for `feed`.

Algorithm 1 — and therefore
:meth:`repro.streaming.engine.StreamingConvoyMiner.feed` — consumes
snapshots in strictly increasing time order; a violation raises a
documented ValueError.  Real GPS feeds are not so polite: fixes traverse
independent network paths, devices buffer while offline, and collectors
multiplex several uplinks, so ticks arrive shuffled within some bounded
skew and occasionally split (two partial reports for the same timestamp).

:class:`ReorderBuffer` restores the contract in front of the engine with
the classic watermark construction from stream processing: pending
``(time, snapshot)`` entries wait in a min-heap, and the *watermark* —
the largest timestamp seen so far minus ``allowed_lateness`` — is the
point in event time the stream promises never to revisit.  A snapshot is
released to the consumer exactly when the watermark reaches it, so any
snapshot whose timestamp lags the head of the feed by at most
``allowed_lateness`` slots into place and the released sequence is
strictly increasing.  The buffered latency is bounded by construction
(``allowed_lateness`` time units, and optionally ``max_pending``
snapshots of memory), which is the delay-conscious trade the paper's
streaming reading needs: buffer just enough to restore order, emit as
soon as the watermark permits.

Duplicate timestamps *merge*: a second push for a still-pending time
updates the pending snapshot dict in place (later fixes win per object),
so split reports reassemble before release.  Arrivals at or below the
last released timestamp are *late* beyond the watermark's promise; the
``late_policy`` decides:

* ``"raise"`` (default) — fail loudly, naming the timestamp, the last
  release, and the watermark.  The strict contract, now with slack.
* ``"drop"`` — count the snapshot in ``late_dropped`` and discard it.
  The in-order equivalence guarantee then covers exactly the non-late
  part of the feed.
* ``"amend"`` — within the lateness horizon (the late timestamp is less
  than ``allowed_lateness`` behind the last release), fold the stale
  fixes into the *earliest still-pending* snapshot for every object that
  has no fresher reading there (counted in ``late_amended``); beyond the
  horizon, drop and count.  This trades exactness for completeness —
  objects whose only report ran late still appear instead of vanishing
  for a tick — so it deliberately breaks bit-for-bit equivalence with
  the in-order run; the differential suite pins the exact policies
  (``raise``/``drop``) and the unit tests pin this one.

The buffer is engine-agnostic (it yields ticks; it never imports the
miner).  :meth:`ReorderBuffer.push` returns the ticks the arrival
released, :meth:`ReorderBuffer.drain` flushes the tail at end of stream,
and :func:`reorder_ticks` wraps any ``(t, snapshot)`` iterable into an
in-order one.  :class:`~repro.streaming.engine.StreamingConvoyMiner`
accepts a buffer (or its kwargs) via ``reorder=`` and routes ``feed`` /
``flush`` through it, sharing its counters dict so ingestion and
reordering report in one place.
"""

from __future__ import annotations

import heapq
import math

from repro.checks import check_count

#: Late-arrival policies accepted by :class:`ReorderBuffer`.
LATE_POLICIES = ("raise", "drop", "amend")

#: Counter keys a buffer maintains in its ``counters`` dict.
COUNTER_KEYS = (
    "reordered_snapshots",
    "merged_snapshots",
    "late_dropped",
    "late_amended",
    "peak_pending",
)


def check_tick_time(t):
    """Raise :class:`ValueError` unless ``t`` is an integer time point.

    Time points are the paper's discrete ``{t1, ..., tT}``.  A fractional
    time would be truncated to a tick it never named, and NaN or inf to
    no tick at all, so they are refused; so are ``True``/``False`` and
    integral floats such as ``3.0``, as the server's protocol refuses
    them.  The message names ``t``.
    """
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValueError(f"tick time t must be an int, got {t!r}")


class ReorderBuffer:
    """Bounded reordering of ``(t, snapshot)`` ticks behind a watermark.

    Args:
        allowed_lateness: watermark slack in time units (an integer
            ``>= 0``).  A
            pending snapshot at time ``t`` is released once a snapshot at
            time ``>= t + allowed_lateness`` has been seen, so any
            arrival lagging the feed's head by at most this much is
            reordered into place.  ``0`` passes an in-order feed straight
            through (and releases an out-of-order arrival immediately,
            which makes any *second* report for that time late).  May be
            None when ``max_pending`` is given: the watermark then never
            advances and only capacity pressure or :meth:`drain` release.
        max_pending: optional cap on buffered snapshots (an integer
            ``>= 1``).  When an arrival
            would leave more than this many pending, the oldest pending
            snapshots are force-released (oldest first) regardless of the
            watermark — bounding memory at the price of declaring their
            timestamps closed early.
        late_policy: what to do with arrivals at or below the last
            released timestamp — ``"raise"``, ``"drop"``, or ``"amend"``
            (see the module docstring).
        counters: optional dict receiving bookkeeping totals (the
            ``COUNTER_KEYS``); a fresh dict is created when omitted and
            is always available as :attr:`counters`.
    """

    def __init__(self, allowed_lateness=None, max_pending=None,
                 late_policy="raise", counters=None):
        if allowed_lateness is None and max_pending is None:
            raise ValueError(
                "a ReorderBuffer needs at least one release trigger: "
                "allowed_lateness and/or max_pending"
            )
        if allowed_lateness is not None:
            check_count("allowed_lateness", allowed_lateness, 0)
        if max_pending is not None:
            check_count("max_pending", max_pending, 1)
        if late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, "
                f"got {late_policy!r}"
            )
        if late_policy == "amend" and allowed_lateness is None:
            # The amend horizon is defined in terms of allowed_lateness; a
            # capacity-only buffer would silently degrade every amend to a
            # drop, so refuse the combination outright.
            raise ValueError(
                "late_policy='amend' requires allowed_lateness (the amend "
                "horizon); with max_pending only, use 'drop' or 'raise'"
            )
        self._lateness = allowed_lateness
        self._max_pending = max_pending
        self._late_policy = late_policy
        self.counters = counters if counters is not None else {}
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)
        self._pending = {}   # t -> snapshot dict (mutable until released)
        self._heap = []      # min-heap over pending times
        self._max_seen = None
        self._last_released = None

    def __len__(self):
        """Number of snapshots currently buffered."""
        return len(self._pending)

    @property
    def last_released(self):
        """Timestamp of the most recently released snapshot (or None)."""
        return self._last_released

    @property
    def watermark(self):
        """The event-time frontier ``max_seen - allowed_lateness``: every
        pending snapshot at or below it has been released, and new
        arrivals are expected to land strictly above it (``-inf`` before
        the first push or when no lateness bound was configured)."""
        if self._max_seen is None or self._lateness is None:
            return -math.inf
        return self._max_seen - self._lateness

    def push(self, t, snapshot):
        """Accept one arrival; return the ticks it released, in order.

        Args:
            t: the arrival's integer timestamp (any order, subject to the
                late policy); anything but an int raises ValueError.
            snapshot: mapping ``{object_id: (x, y)}``.  Merged into the
                pending snapshot when ``t`` is already buffered.

        Returns:
            List of ``(t, snapshot)`` ticks now past the watermark (or
            squeezed out by ``max_pending``), in strictly increasing time
            order — possibly empty.
        """
        check_tick_time(t)
        if self._last_released is not None and t <= self._last_released:
            return self._handle_late(t, snapshot)
        if t in self._pending:
            # Split report: later fixes win per object, the union rides.
            self._pending[t].update(snapshot)
            self.counters["merged_snapshots"] += 1
        else:
            self._pending[t] = dict(snapshot)
            heapq.heappush(self._heap, t)
            if self._max_seen is not None and t < self._max_seen:
                self.counters["reordered_snapshots"] += 1
        if self._max_seen is None or t > self._max_seen:
            self._max_seen = t
        if len(self._pending) > self.counters["peak_pending"]:
            self.counters["peak_pending"] = len(self._pending)
        return self._release()

    def drain(self):
        """End of stream: release every pending snapshot, in time order."""
        return self.release_all()

    def release_all(self):
        """Release every pending snapshot *now*, in time order.

        The idle-drain seam: a capacity-only buffer (``max_pending``
        without ``allowed_lateness``) has no watermark, so only arrival
        pressure forces releases — on a quiescent feed its last
        ``< max_pending`` snapshots would sit buffered forever.  A
        caller that knows the feed has gone idle (the multi-tenant
        service's dispatcher, a session-timeout sweep) calls this to
        push the tail through; the buffer stays usable afterwards, with
        the released timestamps now closed — a later arrival at or
        below them falls to the ``late_policy`` like any other late
        snapshot.  :meth:`drain` is exactly this release at end of
        stream.
        """
        released = []
        while self._heap:
            released.append(self._pop())
        return released

    # -- internals ---------------------------------------------------------

    def _handle_late(self, t, snapshot):
        if self._late_policy == "raise":
            raise ValueError(
                f"late snapshot beyond the watermark: t={t} arrived after "
                f"t={self._last_released} was already released "
                f"(watermark {self.watermark}, allowed_lateness="
                f"{self._lateness}); use late_policy='drop' (or 'amend', "
                f"with allowed_lateness set) to tolerate it"
            )
        if (
            self._late_policy == "amend"
            and self._lateness is not None
            and self._last_released - t < self._lateness
            and self._heap
        ):
            # Fold the stale fixes into the earliest pending snapshot,
            # never overriding a fresher reading for the same object.
            target = self._pending[self._heap[0]]
            for obj, xy in snapshot.items():
                target.setdefault(obj, xy)
            self.counters["late_amended"] += 1
        else:
            self.counters["late_dropped"] += 1
        return []

    def _release(self):
        released = []
        if self._lateness is not None:
            horizon = self._max_seen - self._lateness
            while self._heap and self._heap[0] <= horizon:
                released.append(self._pop())
        if self._max_pending is not None:
            while len(self._pending) > self._max_pending:
                released.append(self._pop())
        return released

    def _pop(self):
        t = heapq.heappop(self._heap)
        self._last_released = t
        return t, self._pending.pop(t)


def reorder_ticks(source, allowed_lateness=None, max_pending=None,
                  late_policy="raise", counters=None):
    """Wrap a possibly-shuffled tick iterable into an in-order one.

    Drives a :class:`ReorderBuffer` over ``source`` and yields its
    releases, draining the buffer when the source ends — the functional
    face of the buffer, for pipelines that compose iterators rather than
    push into a miner::

        for t, snapshot in reorder_ticks(jittered_feed, allowed_lateness=5):
            miner.feed(t, snapshot)

    Args / counters: as for :class:`ReorderBuffer`.
    """
    buffer = ReorderBuffer(
        allowed_lateness=allowed_lateness, max_pending=max_pending,
        late_policy=late_policy, counters=counters,
    )
    for t, snapshot in source:
        yield from buffer.push(t, snapshot)
    yield from buffer.drain()
