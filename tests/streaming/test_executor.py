"""Unit tests for the executor backends and the sharding primitives."""

import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import match_candidates, match_candidates_pairwise
from repro.streaming.executor import (
    BACKENDS,
    ProcessExecutor,
    ResidentProcessExecutor,
    ResidentProtocolError,
    ResidentSerialExecutor,
    ResidentShardWorker,
    ResidentThreadExecutor,
    SerialExecutor,
    ShardWorkerCrashed,
    ThreadExecutor,
    resolve_executor,
    resolve_resident_executor,
)
from repro.streaming.sharding import rendezvous_shard

#: Spawned workers re-import this module and must see the import-time
#: value; a fork-started worker would inherit the parent's mutation.
_SPAWN_CANARY = "import-time"


def _double(x):
    """Module-level so the process backend can pickle it by reference."""
    return 2 * x


def _boom(_x):
    raise RuntimeError("worker failure")


def _worker_identity(_task):
    """Report the worker's process name and the module canary."""
    return multiprocessing.current_process().name, _SPAWN_CANARY


class TestBackendsBehaveIdentically:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_map_preserves_task_order(self, name):
        backend = resolve_executor(name)
        try:
            assert backend.map(_double, [3, 1, 2, 7]) == [6, 2, 4, 14]
            # A second map on the same backend reuses the pool.
            assert backend.map(_double, [5]) == [10]
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_task_list(self, name):
        backend = resolve_executor(name)
        try:
            assert backend.map(_double, []) == []
        finally:
            backend.close()

    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_worker_exception_propagates(self, name):
        backend = resolve_executor(name)
        try:
            with pytest.raises(RuntimeError, match="worker failure"):
                backend.map(_boom, [1])
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_close_is_idempotent_and_reusable(self, name):
        backend = resolve_executor(name)
        backend.map(_double, [1])
        backend.close()
        backend.close()
        # A closed pooled backend lazily rebuilds its pool on reuse.
        assert backend.map(_double, [4]) == [8]
        backend.close()

    def test_match_kernel_crosses_the_process_boundary(self):
        """The actual shard payload shape survives pickling round trips."""
        members = [frozenset({"a", "b", "c"}), frozenset({"d", "e"})]
        jobs = [(0, frozenset({"a", "b"}), None),
                (1, frozenset({"d", "e"}), (1,))]
        backend = ProcessExecutor(max_workers=1)
        try:
            parts = backend.map(_kernel_task, [(members, jobs, 2)])
        finally:
            backend.close()
        assert parts == [match_candidates(members, jobs, 2)]


def _kernel_task(task):
    members, jobs, m = task
    return match_candidates(members, jobs, m)


class TestResolveExecutor:
    def test_none_and_serial_resolve_to_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_names_resolve(self):
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_custom_backend_passes_through(self):
        class Custom:
            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

            def close(self):
                pass

        custom = Custom()
        assert resolve_executor(custom) is custom

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            resolve_executor("gpu")
        with pytest.raises(ValueError, match="executor"):
            resolve_executor(42)

    def test_process_chunksize_validated(self):
        with pytest.raises(ValueError, match="chunksize"):
            ProcessExecutor(chunksize=0)


class TestProcessExecutorContext:
    def test_workers_are_spawned_and_named(self):
        """The pool pins an explicit spawn context (never the platform
        default) and names its workers: a worker must report the
        module's import-time canary — a fork child would inherit the
        parent's mutation — and the initializer-set process name."""
        global _SPAWN_CANARY
        before = _SPAWN_CANARY
        _SPAWN_CANARY = "parent-mutated"
        backend = ProcessExecutor(max_workers=1)
        try:
            [(name, canary)] = backend.map(_worker_identity, [None])
        finally:
            backend.close()
            _SPAWN_CANARY = before
        assert name == "repro-shard-worker"
        assert canary == "import-time"

    def test_explicit_context_accepted(self):
        backend = ProcessExecutor(max_workers=1, mp_context="spawn")
        try:
            assert backend.map(_double, [21]) == [42]
        finally:
            backend.close()

    def test_alive_tracks_pool_lifetime(self):
        backend = ProcessExecutor(max_workers=1)
        assert not backend.alive
        backend.map(_double, [1])
        assert backend.alive
        backend.close()
        assert not backend.alive


def _batches(shards=(0, 1)):
    """One init + one step per shard: the protocol's real message shapes."""
    members = [frozenset({"a", "b", "c"}), frozenset({"d", "e", "f"})]
    out = []
    for shard in shards:
        out.append((shard, [
            ("init", 2,
             [(10 + shard, frozenset({"a", "b", "x"})),
              (20 + shard, frozenset({"d", "e"}))]),
            ("step", members,
             (("put", 30 + shard, frozenset({"a", "c"})),
              ("drop", 20 + shard)),
             ((0, 10 + shard, None), (1, 30 + shard, (0,)))),
        ]))
    return out


#: Expected step responses for :func:`_batches` (shard-independent).
_EXPECTED_STEP = ((0, (0,)), (1, (0,)))


def random_worker_ops(rng, steps=40):
    """A random put/drop delta sequence: ``(ops, state after ops)`` pairs
    over int and str chain ids."""
    state = {}
    sequence = []
    next_chain = 0
    for _ in range(steps):
        ops = []
        for _ in range(rng.randrange(0, 4)):
            if state and rng.random() < 0.35:
                victim = rng.choice(sorted(state, key=str))
                del state[victim]
                ops.append(("drop", victim))
            else:
                chain = f"c{next_chain}" if rng.random() < 0.5 else next_chain
                next_chain += 1
                objects = frozenset(rng.sample(range(60), rng.randrange(1, 12)))
                state[chain] = objects
                ops.append(("put", chain, objects))
        sequence.append((ops, dict(state)))
    return sequence


class TestResidentShardWorker:
    def test_protocol_round_trip(self):
        worker = ResidentShardWorker()
        [(_, messages)] = _batches(shards=(0,))
        assert worker.handle(messages[0]) == ("ok", 2)
        assert worker.handle(messages[1]) == _EXPECTED_STEP
        assert worker.handle(("snapshot",)) == {
            10: frozenset({"a", "b", "x"}),
            30: frozenset({"a", "c"}),
        }
        pid, name, population = worker.handle(("probe",))
        assert pid == os.getpid()
        assert population == 2

    def test_init_replaces_state_wholesale(self):
        worker = ResidentShardWorker()
        worker.handle(("init", 2, [(1, frozenset({"a", "b"}))]))
        worker.handle(("init", 2, [(2, frozenset({"c", "d"}))]))
        assert worker.handle(("snapshot",)) == {2: frozenset({"c", "d"})}

    def test_strict_validation(self):
        worker = ResidentShardWorker()
        with pytest.raises(ResidentProtocolError, match="before init"):
            worker.handle(("step", [frozenset({"a", "b"})], (),
                           ((0, 1, None),)))
        worker.handle(("init", 2, []))
        with pytest.raises(ResidentProtocolError, match="unknown chain"):
            worker.handle(("step", (), (("drop", 7),), ()))
        with pytest.raises(ResidentProtocolError, match="unknown chain"):
            worker.handle(("step", [frozenset({"a", "b"})], (),
                           ((0, 99, None),)))
        with pytest.raises(ResidentProtocolError, match="unknown delta op"):
            worker.handle(("step", (), (("merge", 1, 2),), ()))
        with pytest.raises(ResidentProtocolError, match="unknown resident"):
            worker.handle(("rebalance",))


    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_state_tracks_random_deltas(self, rng):
        worker = ResidentShardWorker()
        worker.handle(("init", 2, []))
        for ops, expected in random_worker_ops(rng):
            assert worker.handle(("step", [], ops, [])) == ()
            assert worker.handle(("snapshot",)) == expected
            assert worker.handle(("probe",))[2] == len(expected)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_step_answers_like_the_pairwise_join(self, rng):
        """A step resolves its jobs against the state its own ops left
        and answers with the matching cluster indexes, in scan order."""
        worker = ResidentShardWorker()
        worker.handle(("init", 2, []))
        for ops, state in random_worker_ops(rng, steps=20):
            members = [
                frozenset(rng.sample(range(60), rng.randrange(1, 12)))
                for _ in range(rng.randrange(0, 16))
            ]
            jobs = []
            for pos, chain in enumerate(sorted(state, key=str)):
                if members and rng.random() < 0.5:
                    scan = tuple(rng.sample(
                        range(len(members)),
                        rng.randrange(0, len(members) + 1),
                    ))
                else:
                    scan = None
                jobs.append((pos, chain, scan))
            expected = match_candidates_pairwise(
                members,
                [(pos, state[chain], scan) for pos, chain, scan in jobs],
                2,
            )
            assert worker.handle(("step", members, ops, jobs)) == tuple(
                (pos, tuple(index for index, _common in matches))
                for pos, matches in expected
            )


class TestResidentTransports:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_transports_agree_on_the_protocol(self, name):
        backend = resolve_resident_executor(name)
        try:
            responses = backend.run(_batches())
        finally:
            backend.close()
        assert responses == [
            [("ok", 2), _EXPECTED_STEP],
            [("ok", 2), _EXPECTED_STEP],
        ]

    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_state_persists_across_runs(self, name):
        backend = resolve_resident_executor(name)
        try:
            backend.run([(0, [("init", 2, [(1, frozenset({"a", "b"}))])])])
            [[snapshot]] = backend.run([(0, [("snapshot",)])])
            assert snapshot == {1: frozenset({"a", "b"})}
        finally:
            backend.close()

    @pytest.mark.parametrize("name", ["serial", "thread"])
    def test_generation_bumps_on_restart_and_close(self, name):
        backend = resolve_resident_executor(name)
        try:
            gen = backend.generation(3)
            assert backend.generation(3) == gen
            backend.restart(3)
            assert backend.generation(3) == gen + 1
            backend.close()
            assert backend.generation(3) == gen + 2
        finally:
            backend.close()

    def test_resolve_resident_executor(self):
        assert isinstance(resolve_resident_executor(None),
                          ResidentSerialExecutor)
        assert isinstance(resolve_resident_executor("thread"),
                          ResidentThreadExecutor)
        assert isinstance(resolve_resident_executor("process"),
                          ResidentProcessExecutor)

        class Custom:
            def run(self, batches):
                return []

            def generation(self, shard):
                return 0

            def close(self):
                pass

        custom = Custom()
        assert resolve_resident_executor(custom) is custom
        # A map-shaped (stateless) backend is not a resident transport.
        with pytest.raises(ValueError, match="resident executor"):
            resolve_resident_executor(SerialExecutor())
        with pytest.raises(ValueError, match="resident executor"):
            resolve_resident_executor("gpu")


class TestResidentProcessExecutor:
    """The spawned per-shard pools: state residency and crash
    semantics.  One class so the expensive pool startups stay few."""

    def test_state_resides_in_a_named_spawned_worker(self):
        backend = ResidentProcessExecutor()
        try:
            backend.run([(0, [("init", 2, [(1, frozenset({"a", "b"}))])])])
            pid, name, population = backend.probe(0)
            # Real process residency, not an in-process fallback.
            assert pid != os.getpid()
            assert name == "repro-resident-shard-0"
            assert population == 1
            # Same worker, same state, next round trip.
            [[snapshot]] = backend.run([(0, [("snapshot",)])])
            assert snapshot == {1: frozenset({"a", "b"})}
        finally:
            backend.close()
        assert not backend.alive

    def test_worker_crash_is_named_and_recoverable(self):
        backend = ResidentProcessExecutor()
        try:
            gen = backend.generation(0)
            backend.run([(0, [("init", 2, [(1, frozenset({"a", "b"}))])])])
            pid, _name, _population = backend.probe(0)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            with pytest.raises(ShardWorkerCrashed, match="shard 0") as info:
                backend.run([(0, [("snapshot",)])])
            # Promptly, not a hang (generous CI allowance).
            assert time.monotonic() < deadline
            assert info.value.shard == 0
            # The broken pool is gone; close still succeeds.
            backend.close()
            # A fresh use rebuilds the pool under a new generation, so
            # the tracker knows to re-seed the worker's state.
            assert backend.generation(0) > gen
            responses = backend.run(_batches(shards=(0,)))
            assert responses == [[("ok", 2), _EXPECTED_STEP]]
        finally:
            backend.close()


class TestRendezvousShard:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for key in range(50):
                shard = rendezvous_shard(key, n)
                assert 0 <= shard < n
                assert shard == rendezvous_shard(key, n)

    def test_spreads_keys(self):
        hit = {rendezvous_shard(key, 4) for key in range(100)}
        assert hit == {0, 1, 2, 3}

    def test_minimal_movement_on_resize(self):
        """Growing n -> n+1 only moves keys the new shard wins."""
        keys = list(range(300))
        before = {key: rendezvous_shard(key, 4) for key in keys}
        after = {key: rendezvous_shard(key, 5) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Every moved key must have moved *to* the new shard.
        assert all(after[key] == 4 for key in moved)
        # And roughly 1/5 of keys move (loose bound against regressions).
        assert len(moved) < len(keys) // 2

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            rendezvous_shard("key", 0)
