"""Offline/streaming equivalence: replaying a database through the
streaming engine must reproduce offline ``cmc()`` exactly.

Both paths drive the same engine core, so the equality asserted here is
the refactoring's contract: identical convoys (same object sets, same
intervals, same discovery order) under both candidate-semantics modes, on
random databases, on a paper-like dataset, and on databases whose objects
appear and disappear mid-stream.  The counters additionally certify the
streaming cost model: one clustering pass per fed snapshot, never a
full-history recompute.
"""

import pytest

from repro.core.cmc import cmc
from repro.datasets import synthetic_dataset, taxi_dataset
from repro.streaming import mine_stream, replay_database
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory

SEMANTICS = (False, True)


def random_database(seed, alive_fraction=(1.0, 1.0), keep_probability=1.0):
    """A seeded random database with planted co-movement episodes."""
    return synthetic_dataset(
        f"rand{seed}",
        seed,
        n_objects=35,
        t_domain=50,
        eps=5.0,
        m=3,
        k=6,
        episode_count=5,
        episode_size=(3, 5),
        alive_fraction=alive_fraction,
        keep_probability=keep_probability,
    )


def assert_stream_matches_offline(spec, paper_semantics):
    counters = {}
    offline = cmc(
        spec.database, spec.m, spec.k, spec.eps,
        paper_semantics=paper_semantics,
    )
    streamed = mine_stream(
        replay_database(spec.database), spec.m, spec.k, spec.eps,
        paper_semantics=paper_semantics, counters=counters,
    )
    assert streamed == offline
    return counters


class TestRandomDatabases:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_replay_equals_offline(self, seed, paper_semantics):
        spec = random_database(seed)
        counters = assert_stream_matches_offline(spec, paper_semantics)
        # Every object is alive for the whole domain, so every snapshot is
        # clustered: exactly one clustering call per fed snapshot.
        assert counters["snapshots"] == spec.database.time_domain_length
        assert counters["clustering_calls"] == counters["snapshots"]

    @pytest.mark.parametrize("seed", [7, 19])
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_midstream_appearance_and_disappearance(self, seed, paper_semantics):
        """Objects joining/leaving mid-stream don't break the equivalence."""
        spec = random_database(
            seed, alive_fraction=(0.2, 0.8), keep_probability=0.7
        )
        lifetimes = {(tr.start_time, tr.end_time) for tr in spec.database}
        assert len(lifetimes) > 1, "dataset must stagger object lifetimes"
        counters = assert_stream_matches_offline(spec, paper_semantics)
        # Snapshots with < m alive objects are not clustered, but no
        # snapshot is ever clustered twice.
        assert counters["clustering_calls"] <= counters["snapshots"]


class TestPaperLikeDataset:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_taxi_like_replay_equals_offline(self, paper_semantics):
        spec = taxi_dataset(scale=0.1)
        assert_stream_matches_offline(spec, paper_semantics)


class TestHandMadeEdgeCases:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_convoy_interrupted_by_sparse_snapshot(self, paper_semantics):
        """A mid-domain tick with < m alive objects splits the convoy."""
        # a rides the whole domain; b leaves after t=4 and c only appears
        # at t=7, so t=5..6 have a single alive object (< m).
        db = TrajectoryDatabase(
            [
                Trajectory("a", [(float(t), 0.0, t) for t in range(12)]),
                Trajectory("b", [(float(t), 1.0, t) for t in range(5)]),
                Trajectory("c", [(float(t), 1.0, t) for t in range(7, 12)]),
            ]
        )
        offline = cmc(db, 2, 3, 2.0, paper_semantics=paper_semantics)
        streamed = mine_stream(
            replay_database(db), 2, 3, 2.0, paper_semantics=paper_semantics
        )
        assert streamed == offline
        intervals = sorted(c.interval for c in streamed)
        assert intervals == [(0, 4), (7, 11)]
