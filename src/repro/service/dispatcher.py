"""Fair scheduling of tenant miner steps onto a bounded worker pool.

The :class:`Dispatcher` is the service's only bridge between asyncio
and the synchronous miners.  It maintains the set of *runnable*
sessions (queued work, no step in flight, not done) and runs one
grant loop:

1. wait until some session is runnable **and** a worker slot is free;
2. grant the slot to the **least-recently-served** runnable session —
   an O(sessions) ``min`` over grant sequence numbers, which is exact
   round-robin fairness under saturation and work-conserving when only
   some tenants have input;
3. run that session's next step on the shared
   ``ThreadPoolExecutor`` via ``run_in_executor``, deliver the
   resulting event to the tenant's connection, then return the slot.

Two invariants carry the differential proof:

* **one in-flight step per session** — a session leaves the runnable
  set while its step runs, so its ticks execute in exact FIFO order
  (the service is, per tenant, the same loop as ``mine_stream``);
* **delivery before re-granting** — a step's event is written to the
  client before the session becomes runnable again, so per-tenant
  output order matches step order even under a slow reader.

A failed step (a disordered feed, a late-policy ``raise``) kills only
its own session: the miner is closed (committing completed ticks), an
``error`` event is delivered, and every other tenant keeps flowing.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor


class Dispatcher:
    """Schedule tenant sessions onto ``max_workers`` miner threads.

    Args:
        max_workers: worker pool size — the number of miner steps (all
            tenants together) that may run concurrently.
    """

    def __init__(self, max_workers=4):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.counters = {"steps": 0, "failed_steps": 0}
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-service",
        )
        self._slots = asyncio.Semaphore(self.max_workers)
        self._runnable = set()
        self._has_runnable = asyncio.Event()
        self._grants = 0
        self._steps = set()
        self._loop_task = None
        self._stopping = False

    def start(self):
        """Start the grant loop (idempotent)."""
        if self._loop_task is None:
            self._loop_task = asyncio.ensure_future(self._grant_loop())

    def notify(self, session):
        """(Re)consider ``session`` for scheduling — call after every
        enqueue and after every completed step."""
        if session.runnable:
            self._runnable.add(session)
            self._has_runnable.set()

    async def _grant_loop(self):
        while not self._stopping:
            await self._has_runnable.wait()
            await self._slots.acquire()
            if self._stopping:
                self._slots.release()
                return
            # Both gates are open; pick the least-recently-served
            # session still runnable (the wait above may have raced a
            # drain, hence the re-check).
            session = None
            if self._runnable:
                session = min(
                    self._runnable, key=lambda s: s.last_served
                )
                self._runnable.discard(session)
            if not self._runnable:
                self._has_runnable.clear()
            if session is None or not session.runnable:
                # The session drained, failed, or was closed between
                # entering the runnable set and winning a slot.
                self._slots.release()
                continue
            session.last_served = self._grants
            self._grants += 1
            session.in_flight = True
            step = asyncio.ensure_future(self._run_step(session))
            self._steps.add(step)
            step.add_done_callback(self._steps.discard)

    async def _run_step(self, session):
        loop = asyncio.get_running_loop()
        kind, t, snapshot = session.pop_step()
        event = None
        error = None
        try:
            started = time.perf_counter()
            try:
                event = await loop.run_in_executor(
                    self._pool, session.step_sync, kind, t, snapshot
                )
            finally:
                self._slots.release()
            if kind == "tick":
                session.latencies.append(time.perf_counter() - started)
            self.counters["steps"] += 1
        except Exception as exc:
            # Broad on purpose: *any* failed step (a disordered feed's
            # ValueError, a late-policy raise, a store error) must
            # fail its session and tell the client — an unhandled
            # exception here would strand the session in flight and
            # hang its tenant's flush forever.
            self.counters["failed_steps"] += 1
            error = exc
            event = {
                "type": "error",
                "tenant": session.tenant,
                "error": str(exc),
            }
        if event is not None:
            await session.deliver(event)
        if error is not None:
            # The miner may be mid-tick-inconsistent: fail the whole
            # session, committing only completed ticks.
            await loop.run_in_executor(
                None, session.abort_sync, str(error)
            )
        elif kind == "flush":
            session.finish()
        session.in_flight = False
        session.grant_credit()
        self.notify(session)

    async def wait_idle(self, session):
        """Wait until ``session`` has no queued or in-flight step (the
        safe point to close its miner from outside the dispatcher)."""
        while len(session) or session.in_flight:
            await asyncio.sleep(0.005)

    async def stop(self):
        """Stop granting, wait for in-flight steps, release the pool."""
        self._stopping = True
        self._has_runnable.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        if self._steps:
            await asyncio.gather(*self._steps, return_exceptions=True)
        self._pool.shutdown(wait=True)
