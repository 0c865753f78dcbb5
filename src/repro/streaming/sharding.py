"""Sharded candidate tracking: fan one tick's matching work across shards.

Algorithm 1's per-tick candidate step is a join — every live candidate
against every cluster — and PR 3 already partitioned it implicitly: a
candidate records the stable id of its *support* cluster, and because
snapshot clusters are disjoint, candidates supported by different
clusters never compete for the same extension.  This module makes that
partition explicit and executes it in parallel:

* live candidates are routed to shards by their support-cluster id
  (memoized rendezvous hashing, so a chain stays on one shard for as
  long as its support survives and adding a shard moves only ``1/n`` of
  the keys); candidates without a support id — the classic
  :meth:`~repro.core.candidates.CandidateTracker.advance` path, and
  chains seeded from appearing or boundary clusters before their first
  delta step — are spread round-robin by live-list position;
* each shard's batch of cluster scans runs as one task on a pluggable
  executor backend (:mod:`repro.streaming.executor`): inline, thread
  pool, or process pool with chunked pickling;
* the per-shard match results merge back through the tracker's ordered
  apply pass, which replays survivors, seeds, and reports strictly in
  live-list order — so the emissions are **bit for bit** the unsharded
  tracker's, proven tick-for-tick by
  ``tests/streaming/test_sharded_equivalence.py``.

What crosses the executor boundary is only the pure matching kernel
(:func:`repro.core.candidates.match_candidates` over cluster member
sets and candidate object sets): splices stay O(1) in the owning
tracker, window histories never leave the parent process, and all state
mutation happens in the deterministic apply pass.  That keeps the
process path's pickling cost proportional to the tick's *working set*
(object ids under scan), not to the accumulated chain histories.

Resident mode
-------------

The stateless fan-out above still re-pickles every scanned candidate's
object set every tick.  With ``resident=True`` the tracker instead keeps
each shard's object sets *inside* a long-lived worker
(:class:`repro.streaming.executor.ResidentShardWorker`, reached over a
resident transport from :mod:`repro.streaming.executor`) and speaks a
three-message protocol:

* ``init`` seeds (or wholesale replaces) one shard's state from the
  parent's authoritative live list — sent whenever the transport reports
  a new worker *generation* (first use, restart, crash recovery), and
  the seam a future rebalancer uses to move a shard;
* ``step`` ships only what changed: the tick's cluster member sets, the
  shard's job *ids* (``(pos, chain_id, scan)`` — no object sets), and
  the put/drop delta the previous apply pass produced.  Workers return
  match *indexes only*; the parent re-derives the winning intersections
  from its own authoritative sets;
* ``snapshot`` drains a shard's state back (rebalance/close, and the
  differential suite's state checks).

Chains get stable ids from the apply-pass provenance the base tracker
records (``_collect_provenance``): a splice or full-member-set extension
continues the chain under its id; narrowed extensions and seeds become
new chains (one ``put`` each); chains that die become ``drop``s.
Support-keyed chains route by the same memoized rendezvous as stateless
mode (a support change migrates the chain: ``drop`` at the old home,
``put`` at the new); support-less chains route by ``chain_id % shards``
— stable, where stateless mode's live-list position round-robin would
thrash residency.  Emissions stay **bit for bit** identical to the
stateless and unsharded trackers; the differential suite proves it
across executors, pipelines, and mid-run worker restarts.
"""

from __future__ import annotations

import hashlib
import pickle

from repro.core.candidates import CandidateTracker, match_candidates
from repro.streaming.executor import (
    resolve_executor,
    resolve_resident_executor,
)

#: Counter keys a sharded tracker adds to its ``counters`` dict.
COUNTER_KEYS = (
    "shard_steps",
    "sharded_candidates",
    "max_shard_batch",
    "route_cache_resets",
    "resident_inits",
)


def _stable_hash(key):
    """A process-stable 64-bit hash (``hash()`` is salted per run)."""
    digest = hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_shard(key, n_shards):
    """Deterministic highest-random-weight (rendezvous) shard choice.

    Every observer computes the same winner for a key with no shared
    routing table, and resizing from ``n`` to ``n + 1`` shards reassigns
    only the keys the new shard wins (~``1/(n+1)`` of them) — the
    property that will let a future rebalancer grow the shard set
    without reshuffling every live chain.

    Args:
        key: any ``repr``-stable routing key (support-cluster ids here).
        n_shards: number of shards (``>= 1``).

    Returns:
        The winning shard index in ``[0, n_shards)``.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return 0
    best_shard = 0
    best_weight = -1
    for shard in range(n_shards):
        weight = _stable_hash((shard, key))
        if weight > best_weight:
            best_shard = shard
            best_weight = weight
    return best_shard


def _match_shard(task):
    """One shard batch: run the pure kernel over this shard's jobs.

    Module-level (hence picklable by reference) so process backends can
    ship it; the payload is one chunk — the step's cluster member sets
    and the shard's candidate jobs — pickled as a single message.
    """
    members, jobs, min_objects = task
    return match_candidates(members, jobs, min_objects)


class ShardedCandidateTracker(CandidateTracker):
    """A :class:`~repro.core.candidates.CandidateTracker` whose per-tick
    matching work is partitioned across shards and executed on a backend.

    Everything observable — survivor order, reports, window histories,
    the shared counter keys (``advance_steps``, ``delta_steps``,
    ``spliced_candidates``, ``reintersected_candidates``) — is identical
    to the unsharded tracker; the subclass overrides only the
    :meth:`~repro.core.candidates.CandidateTracker._match_live` seam and
    adds the :data:`COUNTER_KEYS` bookkeeping.

    Args:
        min_objects, min_lifetime, paper_semantics, counters:
            as for :class:`~repro.core.candidates.CandidateTracker`.
        shards: number of partitions (``>= 1``; 1 still routes every
            batch through the backend, which is how the scaling bench
            isolates pure layer overhead).
        executor: backend spec forwarded to
            :func:`~repro.streaming.executor.resolve_executor` (or, with
            ``resident=True``, to
            :func:`~repro.streaming.executor.resolve_resident_executor`)
            — ``None``/``"serial"``, ``"thread"``, ``"process"``, or a
            ready-made backend object.
        resident: keep each shard's candidate object-sets inside a
            long-lived worker and ship per-tick deltas instead of full
            shard batches (see the module docstring's protocol).

    Call :meth:`close` (the streaming engine does, on ``flush``) to
    release pooled backends.
    """

    def __init__(self, min_objects, min_lifetime, shards,
                 executor="serial", paper_semantics=False, counters=None,
                 resident=False):
        super().__init__(
            min_objects, min_lifetime, paper_semantics=paper_semantics,
            counters=counters,
        )
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._n_shards = shards
        self._resident = bool(resident)
        if self._resident:
            self._backend = resolve_resident_executor(executor)
            # The apply-pass narration drives chain-id assignment.
            self._collect_provenance = True
            self._chains = []   # chain id per live position
            self._homes = []    # home shard per live position
            self._next_chain = 0
            self._pending_ops = {}  # shard -> [("put", id, objs)|("drop", id)]
            self._seen_gen = {}     # shard -> last worker generation seeded
        else:
            self._backend = resolve_executor(executor)
        self._route_cache = {}  # support id -> shard (memoized rendezvous)
        self._byte_accounting = False
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)

    @property
    def shards(self):
        """Number of shards the tracker partitions candidates across."""
        return self._n_shards

    @property
    def executor(self):
        """The executor backend running the per-shard batches."""
        return self._backend

    @property
    def resident(self):
        """Whether shard state lives in long-lived workers."""
        return self._resident

    def enable_byte_accounting(self):
        """Count pickled payload bytes crossing the executor boundary.

        Adds ``shipped_bytes`` (requests) and ``result_bytes``
        (responses) to :attr:`counters`, measured as
        ``len(pickle.dumps(payload))`` per tick — the honest IPC metric
        on a 1-core container, and identical in shape for resident and
        stateless mode so the scaling bench can compare them.  Off by
        default: the extra pickling would double the stateless process
        path's serialization work.
        """
        self._byte_accounting = True
        self.counters.setdefault("shipped_bytes", 0)
        self.counters.setdefault("result_bytes", 0)

    def _shard_for(self, pos, support):
        """Route one candidate: support-keyed rendezvous, else round-robin."""
        if support is None:
            return pos % self._n_shards
        shard = self._route_cache.get(support)
        if shard is None:
            if len(self._route_cache) > max(1024, 8 * self.live_count):
                # Support ids are never reused, so dead entries only
                # accumulate — but the sweep must spare the routes live
                # candidates still use: dropping those too would force a
                # rendezvous recompute burst for the whole live set on
                # the very next tick (high-churn thrash).
                live = {c.support for c in self._candidates}
                live.discard(None)
                self._route_cache = {
                    cid: home for cid, home in self._route_cache.items()
                    if cid in live
                }
                self.counters["route_cache_resets"] += 1
            shard = rendezvous_shard(support, self._n_shards)
            self._route_cache[support] = shard
        return shard

    def _match_live(self, members, jobs):
        """Partition the step's scans into shard batches and execute them."""
        if self._resident:
            return self._match_live_resident(members, jobs)
        if not jobs:
            return []
        candidates = self._candidates
        buckets = [[] for _ in range(self._n_shards)]
        for job in jobs:
            pos = job[0]
            buckets[self._shard_for(pos, candidates[pos].support)].append(job)
        tasks = [(members, bucket, self._m) for bucket in buckets if bucket]
        self.counters["shard_steps"] += 1
        self.counters["sharded_candidates"] += len(jobs)
        biggest = max(len(bucket) for bucket in buckets)
        if biggest > self.counters["max_shard_batch"]:
            self.counters["max_shard_batch"] = biggest
        if self._byte_accounting:
            self.counters["shipped_bytes"] += len(
                pickle.dumps(tasks, pickle.HIGHEST_PROTOCOL)
            )
        raw = self._backend.map(_match_shard, tasks)
        if self._byte_accounting:
            self.counters["result_bytes"] += len(
                pickle.dumps(raw, pickle.HIGHEST_PROTOCOL)
            )
        results = []
        for part in raw:
            results.extend(part)
        return results

    # ------------------------------------------------------------------
    # Resident mode: chain-id bookkeeping, delta shipping, reconciliation
    # ------------------------------------------------------------------

    def _home_for(self, chain_id, support):
        """A chain's home shard: rendezvous on its support when it has
        one, else stable ``chain_id % shards`` (live-list position would
        shift every tick and thrash worker residency)."""
        if support is None:
            return chain_id % self._n_shards
        return self._shard_for(0, support)

    def _shard_entries(self, shard):
        """The authoritative ``(chain_id, objects)`` state of one shard."""
        return [
            (chain, candidate.objects)
            for chain, home, candidate in zip(
                self._chains, self._homes, self._candidates
            )
            if home == shard
        ]

    def _queue_op(self, shard, op):
        self._pending_ops.setdefault(shard, []).append(op)

    def _shard_messages(self, shard, members=None, jobs=()):
        """Build one shard's message batch, handling (re)seeding.

        When the transport reports a generation the tracker has not
        seeded (first use, restart, crash recovery), pending deltas are
        discarded and a full ``init`` is sent instead — the worker's
        state is gone, so the only sound move is wholesale replacement
        from the parent's authoritative live list.
        """
        messages = []
        generation = self._backend.generation(shard)
        if self._seen_gen.get(shard) != generation:
            self._pending_ops.pop(shard, None)
            messages.append(("init", self._m, self._shard_entries(shard)))
            self._seen_gen[shard] = generation
            self.counters["resident_inits"] += 1
            ops = ()
        else:
            ops = tuple(self._pending_ops.pop(shard, ()))
        if ops or jobs:
            messages.append(("step", members or (), ops, tuple(jobs)))
        return messages

    def _match_live_resident(self, members, jobs):
        """Ship per-shard step messages; reconstruct matches from indexes."""
        candidates = self._candidates
        chains = self._chains
        homes = self._homes
        buckets = {}
        for pos, _objects, scan in jobs:
            buckets.setdefault(homes[pos], []).append(
                (pos, chains[pos], scan)
            )
        batches = []
        unmap = {}  # shard -> shipped-index -> global cluster index
        for shard in sorted(set(buckets) | set(self._pending_ops)):
            bucket = buckets.get(shard, ())
            # An ops-only batch (pending puts/drops, no jobs) needs no
            # cluster sets at all; jobs without scan lists need them all.
            shard_members = members if bucket else ()
            if bucket and all(job[2] is not None for job in bucket):
                # Every job names its scan list, so the shard only needs
                # those clusters: ship the subset under compact indexes
                # (the delta path's dirty set is usually a small slice of
                # the tick — this is most of resident mode's byte win).
                used = sorted({
                    index for _pos, _chain, scan in bucket for index in scan
                })
                if len(used) < len(members):
                    remap = {old: new for new, old in enumerate(used)}
                    shard_members = [members[index] for index in used]
                    bucket = [
                        (pos, chain, tuple(remap[i] for i in scan))
                        for pos, chain, scan in bucket
                    ]
                    unmap[shard] = used
            messages = self._shard_messages(
                shard, members=shard_members, jobs=bucket
            )
            if messages:
                batches.append((shard, messages))
        self.counters["shard_steps"] += 1
        self.counters["sharded_candidates"] += len(jobs)
        biggest = max(
            (len(bucket) for bucket in buckets.values()), default=0
        )
        if biggest > self.counters["max_shard_batch"]:
            self.counters["max_shard_batch"] = biggest
        if not batches:
            return []
        if self._byte_accounting:
            self.counters["shipped_bytes"] += len(
                pickle.dumps(batches, pickle.HIGHEST_PROTOCOL)
            )
        responses = self._backend.run(batches)
        if self._byte_accounting:
            self.counters["result_bytes"] += len(
                pickle.dumps(responses, pickle.HIGHEST_PROTOCOL)
            )
        results = []
        for (shard, messages), shard_responses in zip(batches, responses):
            if messages[-1][0] != "step" or not messages[-1][3]:
                continue  # init/flush-only batch: nothing to merge
            used = unmap.get(shard)
            for pos, indexes in shard_responses[-1]:
                if used is not None:
                    indexes = [used[index] for index in indexes]
                objects = candidates[pos].objects
                # Workers return match *indexes*; the winning
                # intersections are re-derived from the parent's own
                # authoritative sets, so they never cross the boundary.
                results.append(
                    (pos,
                     [(index, objects & members[index]) for index in indexes])
                )
        return results

    def _reconcile(self):
        """Replay the apply pass's provenance into chain ids and deltas.

        Consumes :attr:`last_provenance` (one event per survivor, in the
        new live-list order): splices and full-member-set extensions
        carry their chain id forward (a support change migrates the
        chain — ``drop`` at the old home, ``put`` at the new); narrowed
        extensions and seeds become new chains (``put``); parents with
        no carried survivor died (``drop``).  The resulting per-shard
        ops ship with the *next* step message — the step that ran this
        tick matched against the pre-apply state, which is exactly what
        the workers held.
        """
        provenance = self.last_provenance
        self.last_provenance = None
        old_chains = self._chains
        old_homes = self._homes
        candidates = self._candidates
        new_chains = []
        new_homes = []
        carried = set()
        for position, event in enumerate(provenance):
            candidate = candidates[position]
            kind = event[0]
            if kind == "splice":
                # Unchanged support, unchanged objects: same id, same home.
                parent = event[1]
                chain = old_chains[parent]
                home = old_homes[parent]
                carried.add(parent)
            elif kind == "extend" and event[2] and event[1] not in carried:
                # Full member set preserved: the chain continues under
                # its id (at most one such survivor per parent — the
                # survivor key (objects, t_start) is unique).  A support
                # change moves it to a new home.
                parent = event[1]
                chain = old_chains[parent]
                home = self._home_for(chain, candidate.support)
                carried.add(parent)
                if home != old_homes[parent]:
                    self._queue_op(old_homes[parent], ("drop", chain))
                    self._queue_op(
                        home, ("put", chain, candidate.objects)
                    )
            else:
                # Narrowed extension or fresh seed: a new chain.
                chain = self._next_chain
                self._next_chain += 1
                home = self._home_for(chain, candidate.support)
                self._queue_op(home, ("put", chain, candidate.objects))
            new_chains.append(chain)
            new_homes.append(home)
        for parent, (chain, home) in enumerate(zip(old_chains, old_homes)):
            if parent not in carried:
                self._queue_op(home, ("drop", chain))
        self._chains = new_chains
        self._homes = new_homes

    def _drop_positions(self, keep):
        """Queue drops for every live position not in ``keep`` and shrink
        the chain bookkeeping to the survivors (prune/flush paths)."""
        new_chains = []
        new_homes = []
        for position, (chain, home) in enumerate(
            zip(self._chains, self._homes)
        ):
            if position in keep:
                new_chains.append(chain)
                new_homes.append(home)
            else:
                self._queue_op(home, ("drop", chain))
        self._chains = new_chains
        self._homes = new_homes

    def advance(self, clusters, window_start, window_end):
        closed = super().advance(clusters, window_start, window_end)
        if self._resident and self.last_provenance is not None:
            self._reconcile()
        return closed

    def advance_delta(self, clusters, delta, window_start, window_end):
        # delta=None delegates to self.advance, whose override already
        # reconciled (and consumed the provenance) — hence the guard.
        closed = super().advance_delta(
            clusters, delta, window_start, window_end
        )
        if self._resident and self.last_provenance is not None:
            self._reconcile()
        return closed

    def prune_longer_than(self, max_lifetime):
        if not self._resident:
            return super().prune_longer_than(max_lifetime)
        before = {
            id(candidate): position
            for position, candidate in enumerate(self._candidates)
        }
        closed = super().prune_longer_than(max_lifetime)
        self._drop_positions(
            {before[id(candidate)] for candidate in self._candidates}
        )
        return closed

    def flush(self):
        closed = super().flush()
        if self._resident:
            self._drop_positions(set())
        return closed

    def snapshot_shard(self, shard):
        """Drain one shard's resident state back to the parent.

        Flushes the shard's pending delta first (seeding the worker if
        its generation changed), then returns the worker's
        ``{chain_id: objects}`` dict — the rebalancer's read side, and
        what the differential suite checks against
        :meth:`expected_shard_state`.
        """
        if not self._resident:
            raise RuntimeError("snapshot_shard requires resident=True")
        messages = self._shard_messages(shard)
        messages.append(("snapshot",))
        return self._backend.run([(shard, messages)])[0][-1]

    def expected_shard_state(self, shard):
        """The parent's authoritative view of one shard's state — what
        :meth:`snapshot_shard` must return once pending deltas land."""
        if not self._resident:
            raise RuntimeError("expected_shard_state requires resident=True")
        return dict(self._shard_entries(shard))

    def close(self):
        """Release the executor backend (idempotent)."""
        self._backend.close()
