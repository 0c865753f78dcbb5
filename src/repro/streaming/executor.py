"""Pluggable executor backends for per-shard candidate advances.

The sharding layer (:mod:`repro.streaming.sharding`) partitions one
tick's candidate-matching work into per-shard batches; *where* those
batches run is this module's job.  Every backend exposes the same
two-method surface — ``map(fn, tasks)`` returning the results in task
order, and ``close()`` releasing whatever the backend holds — so the
tracker neither knows nor cares whether a batch ran inline, on a thread
pool, or in a worker process:

* :class:`SerialExecutor` — run every task inline on the calling thread.
  Zero overhead beyond the function calls; the reference backend the
  scaling bench holds the others against, and the proof that the staged
  refactor itself costs nothing.
* :class:`ThreadExecutor` — a shared ``ThreadPoolExecutor``.  Python's
  GIL serializes the pure-Python set intersections, so this backend buys
  no wall-clock on CPython today; it exists because it exercises the
  full fan-out/merge machinery with zero pickling (the cheapest way to
  test the concurrency seams) and becomes a real speedup on free-threaded
  builds.
* :class:`ProcessExecutor` — a lazily created ``ProcessPoolExecutor``.
  Task payloads cross the process boundary by pickling, so the sharding
  layer ships *chunked* work: one payload per shard batch (clusters +
  that shard's candidate jobs in a single message), submitted through
  ``Executor.map(..., chunksize=)`` so several batches share one IPC
  round trip.  This is the backend that turns shards into actual cores.

Pools are created on first use and must be released with ``close()``
(the streaming engine does so on ``flush``); a closed backend rebuilds
its pool if used again, so a backend instance can be shared across
sequential runs.

Resident mode
-------------

The ``map``-shaped backends are stateless: every tick's payload carries
the full shard batch, candidate object-sets included, so the process
path re-pickles state that barely changes between ticks.  The *resident*
transports keep a long-lived :class:`ResidentShardWorker` per shard —
holding that shard's candidate object-sets between ticks — and route
every message for a shard to *its* worker, so the per-tick payload
shrinks to cluster member-sets, job ids, and the put/drop deltas of the
apply pass (see :mod:`repro.streaming.sharding` for the protocol and the
state reconciliation that produces those deltas):

* :class:`ResidentSerialExecutor` — workers held in-process, messages
  handled inline: the reference implementation the differential suite
  holds the others against.
* :class:`ResidentThreadExecutor` — same in-process workers, shard
  batches fanned out on a thread pool.
* :class:`ResidentProcessExecutor` — one single-worker process pool per
  shard (the only way a ``concurrent.futures`` pool can guarantee shard
  affinity), built from an explicit multiprocessing context (``spawn``
  by default, so worker state never depends on fork-inherited
  interpreter state), each worker process named after its shard.

Resident transports expose ``generation(shard)`` — an incarnation
number that changes whenever the shard's worker may have lost its state
(first creation, ``restart``, a crash, ``close``) — so the tracker
knows when to re-seed a worker over the ``init`` message instead of
shipping an incremental delta.  A worker process dying mid-run surfaces
as :class:`ShardWorkerCrashed` (never a hang): the broken pool is torn
down, ``close()`` still succeeds, and the next use rebuilds the pool
under a fresh generation.
"""

from __future__ import annotations

from repro.core.candidates import match_candidates

#: Names accepted by :func:`resolve_executor` and
#: :func:`resolve_resident_executor`.
BACKENDS = ("serial", "thread", "process")


class ShardWorkerCrashed(RuntimeError):
    """A resident shard worker process died mid-run.

    Raised (promptly — the pool's futures fail the moment the process
    dies, so a crash can never hang the stream) in place of the raw
    ``BrokenProcessPool``, naming the shard whose worker was lost.  The
    broken pool is already torn down when this propagates: ``close()``
    on the backend still succeeds, and the next run on the same backend
    instance rebuilds the pool under a fresh generation, which makes the
    tracker re-seed the worker's state.
    """

    def __init__(self, shard, detail):
        super().__init__(
            f"resident worker for shard {shard} crashed ({detail}); the "
            f"shard's pool has been torn down — close the miner, or rerun "
            f"on this backend to restart the worker"
        )
        self.shard = shard


class ResidentProtocolError(RuntimeError):
    """A resident worker received a message inconsistent with its state
    (job or drop for an unknown chain, step before init) — always a bug
    in the parent's reconciliation, never recoverable data loss."""


def _name_worker_process(name):
    """Pool initializer: name the worker process for ps/log readability."""
    import multiprocessing

    multiprocessing.current_process().name = name


def _resolve_mp_context(spec):
    """Turn an mp-context spec (name, context object, or None) into a
    multiprocessing context; the default is the platform-independent
    ``spawn``, so worker behavior never depends on fork-inherited
    interpreter state (lazily imported modules, open handles, ...)."""
    import multiprocessing

    if spec is None:
        spec = "spawn"
    if isinstance(spec, str):
        return multiprocessing.get_context(spec)
    return spec


class ResidentShardWorker:
    """One shard's resident state plus its message interpreter.

    The worker holds ``chain id -> candidate object-set`` between ticks
    and answers the three protocol messages (plain picklable tuples):

    * ``("init", min_objects, entries)`` — replace the state wholesale
      with ``entries`` (``(chain_id, objects)`` pairs); returns
      ``("ok", population)``.
    * ``("step", members, ops, jobs)`` — apply the put/drop ``ops``
      (the parent's apply-pass delta), then run
      :func:`~repro.core.candidates.match_candidates` over ``jobs``
      (``(pos, chain_id, scan)`` triples resolved against the resident
      state) and return ``(pos, match_indexes)`` pairs — match *indexes
      only*; the parent re-derives the few winning intersections
      itself, so cluster-sized sets never travel back.
    * ``("snapshot",)`` — return a copy of the resident state, for
      rebalance/close and the differential suite's state checks.

    ``("probe",)`` additionally reports ``(pid, process name,
    population)`` as a health check.
    """

    def __init__(self):
        self._objects = {}
        self._m = None

    def handle(self, message):
        tag = message[0]
        if tag == "step":
            return self._step(message[1], message[2], message[3])
        if tag == "init":
            return self._init(message[1], message[2])
        if tag == "snapshot":
            return dict(self._objects)
        if tag == "probe":
            import multiprocessing
            import os

            return (
                os.getpid(),
                multiprocessing.current_process().name,
                len(self._objects),
            )
        raise ResidentProtocolError(f"unknown resident message {tag!r}")

    def _init(self, min_objects, entries):
        self._m = min_objects
        self._objects = {chain_id: objects for chain_id, objects in entries}
        return ("ok", len(self._objects))

    def _step(self, members, ops, jobs):
        objects = self._objects
        for op in ops:
            if op[0] == "put":
                objects[op[1]] = op[2]
            elif op[0] == "drop":
                if objects.pop(op[1], None) is None:
                    raise ResidentProtocolError(
                        f"drop for unknown chain {op[1]}"
                    )
            else:
                raise ResidentProtocolError(f"unknown delta op {op[0]!r}")
        if not jobs:
            return ()
        if self._m is None:
            raise ResidentProtocolError("step before init: worker has no state")
        try:
            kernel_jobs = [
                (pos, objects[chain_id], scan) for pos, chain_id, scan in jobs
            ]
        except KeyError as exc:
            raise ResidentProtocolError(
                f"job references unknown chain {exc.args[0]}"
            ) from None
        return tuple(
            (pos, tuple(index for index, _common in matches))
            for pos, matches in match_candidates(members, kernel_jobs, self._m)
        )


class SerialExecutor:
    """Run every task inline, in order, on the calling thread."""

    name = "serial"

    def map(self, fn, tasks):
        """Apply ``fn`` to each task; return the results in task order."""
        return [fn(task) for task in tasks]

    def close(self):
        """Nothing to release."""

    def __repr__(self):
        return "SerialExecutor()"


class ThreadExecutor:
    """Fan tasks out across a shared thread pool.

    Args:
        max_workers: pool size (default: the ``ThreadPoolExecutor``
            default, ``min(32, cpu_count + 4)``).
    """

    name = "thread"

    def __init__(self, max_workers=None):
        self._max_workers = max_workers
        self._pool = None

    def map(self, fn, tasks):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-shard",
            )
        return list(self._pool.map(fn, tasks))

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self):
        return f"ThreadExecutor(max_workers={self._max_workers!r})"


class ProcessExecutor:
    """Fan tasks out across a lazily created process pool.

    Payloads are pickled per chunk: ``chunksize`` tasks travel in one
    IPC message (the "chunked pickling" of the sharded design — a task
    is already a whole shard batch, so the default of 1 means one
    message per shard; raise it when shards outnumber workers).

    Workers are started from an explicit multiprocessing context —
    ``spawn`` by default, never the platform default: under ``fork`` a
    worker inherits whatever interpreter state the parent accumulated
    (lazily imported numpy, RNG state, open handles), so the same match
    kernel could behave differently per platform.  A spawned worker
    re-imports from scratch and receives only plain data in the task,
    which is exactly what a remote worker would do.
    Workers are named ``repro-shard-worker`` for ps/log readability.

    Args:
        max_workers: pool size (default: ``os.cpu_count()``).
        chunksize: tasks pickled per IPC message (``>= 1``).
        mp_context: multiprocessing context or start-method name
            (default ``"spawn"``).
    """

    name = "process"

    def __init__(self, max_workers=None, chunksize=1, mp_context=None):
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self._max_workers = max_workers
        self._chunksize = int(chunksize)
        self._mp_context = mp_context
        self._pool = None

    @property
    def alive(self):
        """Whether a pool is currently held (health-check seam)."""
        return self._pool is not None

    def map(self, fn, tasks):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=_resolve_mp_context(self._mp_context),
                initializer=_name_worker_process,
                initargs=("repro-shard-worker",),
            )
        return list(self._pool.map(fn, tasks, chunksize=self._chunksize))

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self):
        return (
            f"ProcessExecutor(max_workers={self._max_workers!r}, "
            f"chunksize={self._chunksize})"
        )


def _run_resident_batch(shard, messages):
    """Handle one shard's messages inside a worker process.

    Module-level (picklable by reference) and backed by a module-global
    worker registry: each :class:`ResidentProcessExecutor` pool serves
    exactly one shard with exactly one process, so the registry in any
    worker process only ever holds that process's own shard — state
    persists across submissions because the process does.
    """
    worker = _PROCESS_RESIDENT_WORKERS.get(shard)
    if worker is None:
        worker = _PROCESS_RESIDENT_WORKERS.setdefault(
            shard, ResidentShardWorker()
        )
    return [worker.handle(message) for message in messages]


#: Per-process registry backing :func:`_run_resident_batch`.
_PROCESS_RESIDENT_WORKERS = {}


class ResidentSerialExecutor:
    """Resident workers held in-process, messages handled inline.

    The reference implementation of the resident transport surface:
    ``run(batches)`` takes ``(shard, messages)`` pairs and returns each
    shard's responses in batch order, ``generation(shard)`` reports the
    worker's incarnation (bumped whenever its state may have been
    lost), ``restart(shard)`` deliberately discards one worker (the
    rebalancer's building block, and the differential suite's
    worker-restart lever), and ``close()`` discards them all.  A closed
    backend rebuilds workers if used again — under fresh generations,
    so the tracker re-seeds them.
    """

    name = "serial"
    #: Marks the resident transport surface (run/generation/restart).
    resident = True

    def __init__(self):
        self._workers = {}
        self._gens = {}

    @property
    def alive(self):
        """Whether any shard worker currently holds state."""
        return bool(self._workers)

    def _worker(self, shard):
        worker = self._workers.get(shard)
        if worker is None:
            worker = self._workers[shard] = ResidentShardWorker()
            self._gens[shard] = self._gens.get(shard, -1) + 1
        return worker

    def generation(self, shard):
        """The shard worker's incarnation number (creates it if absent)."""
        self._worker(shard)
        return self._gens[shard]

    def run(self, batches):
        """Handle each ``(shard, messages)`` batch; responses in order."""
        return [
            [self._worker(shard).handle(message) for message in messages]
            for shard, messages in batches
        ]

    def probe(self, shard):
        """Health check: ``(pid, name, population)`` for a shard."""
        return self._worker(shard).handle(("probe",))

    def restart(self, shard):
        """Discard one shard's worker; the next use re-creates it under a
        new generation (so the tracker re-seeds its state)."""
        self._workers.pop(shard, None)

    def close(self):
        """Discard every worker (idempotent)."""
        self._workers.clear()

    def __repr__(self):
        return f"{type(self).__name__}()"


class ResidentThreadExecutor(ResidentSerialExecutor):
    """Resident in-process workers with shard batches fanned out on a
    thread pool.  One batch per shard per tick means no two threads ever
    touch the same worker concurrently; like :class:`ThreadExecutor`
    this buys no CPython wall-clock but exercises the concurrency seams
    with zero pickling.

    Args:
        max_workers: pool size (default: the ``ThreadPoolExecutor``
            default).
    """

    name = "thread"

    def __init__(self, max_workers=None):
        super().__init__()
        self._max_workers = max_workers
        self._pool = None

    def run(self, batches):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-resident",
            )
        # Workers are created on the calling thread: the pool threads
        # only ever touch fully constructed, per-shard-exclusive state.
        work = [(self._worker(shard), list(messages))
                for shard, messages in batches]
        futures = [
            self._pool.submit(
                lambda worker, messages: [worker.handle(m) for m in messages],
                worker, messages,
            )
            for worker, messages in work
        ]
        return [future.result() for future in futures]

    def close(self):
        super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ResidentProcessExecutor:
    """One single-worker, lazily created process pool per shard.

    A shared ``ProcessPoolExecutor`` cannot route a task to a chosen
    worker, and resident state is only sound if every message for a
    shard reaches the *same* process — so each shard gets its own
    one-process pool, started from an explicit multiprocessing context
    (``spawn`` by default) with the worker process named
    ``repro-resident-shard-N``.

    A worker process dying mid-run raises :class:`ShardWorkerCrashed`
    (naming the shard) instead of the raw ``BrokenProcessPool``; the
    broken pool is torn down on the spot, so ``close()`` still succeeds
    and the next run rebuilds the shard's pool under a fresh generation.

    Args:
        mp_context: multiprocessing context or start-method name
            (default ``"spawn"``).
    """

    name = "process"
    resident = True

    def __init__(self, mp_context=None):
        self._mp_context = mp_context
        self._pools = {}
        self._gens = {}

    @property
    def alive(self):
        """Whether any shard pool is currently held."""
        return bool(self._pools)

    def _pool(self, shard):
        pool = self._pools.get(shard)
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=1,
                mp_context=_resolve_mp_context(self._mp_context),
                initializer=_name_worker_process,
                initargs=(f"repro-resident-shard-{shard}",),
            )
            self._pools[shard] = pool
            self._gens[shard] = self._gens.get(shard, -1) + 1
        return pool

    def generation(self, shard):
        """The shard pool's incarnation number (creates it if absent)."""
        self._pool(shard)
        return self._gens[shard]

    def run(self, batches):
        """Submit each shard's messages to its own pool; gather in order."""
        from concurrent.futures.process import BrokenProcessPool

        futures = [
            (shard, self._pool(shard).submit(
                _run_resident_batch, shard, list(messages)
            ))
            for shard, messages in batches
        ]
        results = []
        for shard, future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                self._discard(shard)
                raise ShardWorkerCrashed(shard, exc) from exc
        return results

    def probe(self, shard):
        """Health check: ``(pid, name, population)`` for a shard."""
        return self.run([(shard, [("probe",)])])[0][0]

    def _discard(self, shard):
        pool = self._pools.pop(shard, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def restart(self, shard):
        """Gracefully retire one shard's worker process; the next use
        re-creates the pool under a new generation."""
        pool = self._pools.pop(shard, None)
        if pool is not None:
            pool.shutdown(wait=True)

    def close(self):
        """Shut every shard pool down (idempotent; survives crashes)."""
        for shard in list(self._pools):
            self._discard(shard)

    def __repr__(self):
        return f"ResidentProcessExecutor(mp_context={self._mp_context!r})"


def resolve_executor(spec):
    """Turn an executor spec into a backend instance.

    Args:
        spec: ``None`` (serial), one of the :data:`BACKENDS` names, or a
            ready-made backend — any object with ``map(fn, tasks)`` and
            ``close()`` is accepted as-is, so callers can inject a
            custom pool (pinned workers, an async bridge, ...).

    Returns:
        The backend instance.

    Raises:
        ValueError: for unknown names or objects missing the surface.
    """
    if spec is None or spec == "serial":
        return SerialExecutor()
    if spec == "thread":
        return ThreadExecutor()
    if spec == "process":
        return ProcessExecutor()
    if callable(getattr(spec, "map", None)) and callable(
        getattr(spec, "close", None)
    ):
        return spec
    raise ValueError(
        f"executor must be None, one of {BACKENDS}, or an object with "
        f"map()/close() methods, got {spec!r}"
    )


def resolve_resident_executor(spec):
    """Turn an executor spec into a *resident* transport instance.

    Args:
        spec: ``None`` (serial), one of the :data:`BACKENDS` names, or a
            ready-made resident transport — any object with
            ``run(batches)``, ``generation(shard)``, and ``close()`` is
            accepted as-is.

    Returns:
        The resident transport instance.

    Raises:
        ValueError: for unknown names or objects missing the surface.
    """
    if spec is None or spec == "serial":
        return ResidentSerialExecutor()
    if spec == "thread":
        return ResidentThreadExecutor()
    if spec == "process":
        return ResidentProcessExecutor()
    if (
        callable(getattr(spec, "run", None))
        and callable(getattr(spec, "generation", None))
        and callable(getattr(spec, "close", None))
    ):
        return spec
    raise ValueError(
        f"resident executor must be None, one of {BACKENDS}, or an object "
        f"with run()/generation()/close() methods, got {spec!r}"
    )
