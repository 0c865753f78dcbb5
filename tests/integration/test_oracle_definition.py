"""Every convoy miner against the paper's definition, not against each other.

:func:`tests.oracle.oracle_convoys` answers a query by enumerating object
subsets and tick intervals against Definition 3.  Hypothesis draws tiny
trajectory databases (at most 8 objects and 12 ticks) in the shapes the
streaming suites exercise — whole ticks with no object, ticks with fewer
than ``m`` objects, objects that come and go, sparse samples that need
virtual points — and every miner's normalized answer must equal the
oracle's exactly: ``cmc()``, the three CuTS variants, and
:func:`~repro.streaming.mine_stream` over ``replay_database`` with the
full and incremental clusterers, with and without a store, and behind a
reorder buffer fed a jittered copy of the stream.

``paper_semantics=True`` reproduces Algorithm 1's seeding rule, which
misses convoys by design; there the misses are counted and reported, and
only soundness is asserted.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cmc import cmc
from repro.core.convoy import Convoy
from repro.core.cuts import cuts
from repro.core.verification import normalize_convoys
from repro.store import SQLiteConvoyStore
from repro.streaming import jitter_ticks, mine_stream, replay_database
from repro.trajectory import Trajectory, TrajectoryDatabase
from tests.oracle import MAX_OBJECTS, MAX_TICKS, oracle_convoys

#: Input shapes: every object alive throughout; whole ticks with no
#: object; lifetimes of one to three ticks, so most ticks hold fewer
#: than m objects; random lifetimes (turnover); random lifetimes sampled
#: at a few ticks only, so the snapshots carry virtual points.
SHAPES = ("steady", "gaps", "below-m", "turnover", "sparse")

#: The bounded disorder of the jittered copies; a reorder buffer with
#: this lateness restores it losslessly.
JITTER = 3


def draw_query(integers, shape):
    """One ``(database, m, k, eps, seed)`` query of the given shape.

    ``integers(lo, hi)`` draws an integer in ``[lo, hi]``: a Hypothesis
    draw in the properties, a seeded RNG in the divergence count.
    Objects ride with one of two groups that move east together, on one
    of three grid rows, or stray far from everything, so groups form,
    break and re-form at exact ``eps`` distances.
    """
    last = integers(2 if shape == "gaps" else 0, MAX_TICKS - 1)
    n_objects = integers(2, MAX_OBJECTS)
    m, k = integers(2, 3), integers(1, 4)
    eps = (1.0, 1.5)[integers(0, 1)]
    gap_start = integers(1, last - 1) if shape == "gaps" else None
    gap_end = integers(gap_start, last - 1) if shape == "gaps" else None
    trajectories = []
    for index in range(n_objects):
        if shape == "steady":
            start, end = 0, last
        elif shape == "gaps":
            # Each object lives wholly on one side of the gap, so no
            # object is alive there; the first two take opposite sides.
            if (index if index < 2 else integers(0, 1)) == 0:
                start = integers(0, gap_start - 1)
                end = integers(start, gap_start - 1)
            else:
                start = integers(gap_end + 1, last)
                end = integers(start, last)
        elif shape == "below-m":
            start = integers(0, last)
            end = min(last, start + integers(0, 2))
        else:
            start = integers(0, last)
            end = integers(start, last)
        times = range(start, end + 1)
        if shape == "sparse":
            times = [t for t in times
                     if t in (start, end) or integers(0, 2) == 0]
        group = integers(0, 1)
        points = []
        for t in times:
            place = integers(0, 5)
            if place == 0:
                points.append((100.0 + 10.0 * index, 50.0, t))
            else:
                points.append((20.0 * group + t, float(place % 3), t))
        trajectories.append(Trajectory(f"o{index}", points))
    return TrajectoryDatabase(trajectories), m, k, eps, integers(0, 999)


@st.composite
def queries(draw, shape):
    return draw_query(
        lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)), shape
    )


def stream_answer(clusterer, store=False, jittered=False):
    def answer(database, m, k, eps, seed):
        # A live feed sends nothing at a tick where no object reported,
        # so the miner must sever chains across the skipped time points
        # (cmc() feeds those ticks as empty snapshots instead).
        ticks = [tick for tick in replay_database(database) if tick[1]]
        reorder = None
        if jittered:
            ticks = list(jitter_ticks(ticks, JITTER, seed=seed))
            reorder = {"allowed_lateness": JITTER}
        if not store:
            return mine_stream(ticks, m, k, eps, clusterer=clusterer,
                               reorder=reorder)
        with SQLiteConvoyStore(":memory:") as convoy_store:
            convoys = mine_stream(ticks, m, k, eps, clusterer=clusterer,
                                  reorder=reorder, store=convoy_store)
            assert normalize_convoys(convoy_store.all_convoys()) == (
                normalize_convoys(convoys)
            )
        return convoys
    return answer


def cuts_answer(variant):
    def answer(database, m, k, eps, seed):
        return cuts(database, m, k, eps, variant=variant).convoys
    return answer


MINERS = {
    "cmc": lambda database, m, k, eps, seed: cmc(database, m, k, eps),
    "cuts": cuts_answer("cuts"),
    "cuts+": cuts_answer("cuts+"),
    "cuts*": cuts_answer("cuts*"),
    "stream-full": stream_answer("full"),
    "stream-incremental": stream_answer("incremental"),
    "stream-full-store": stream_answer("full", store=True),
    "stream-incremental-store": stream_answer("incremental", store=True),
    "reorder-full": stream_answer("full", jittered=True),
    "reorder-incremental": stream_answer("incremental", jittered=True),
}


@pytest.mark.parametrize("miner", sorted(MINERS))
@pytest.mark.parametrize("shape", SHAPES)
def test_answer_is_the_definition(shape, miner):
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(query=queries(shape))
    def check(query):
        database, m, k, eps, seed = query
        want = oracle_convoys(database, m, k, eps)
        got = normalize_convoys(MINERS[miner](database, m, k, eps, seed))
        assert got == want

    check()


class TestAlgorithm1:
    def test_misses_a_group_that_grows(self):
        """a and b travel together for six ticks and c joins them at
        t=2: the cluster {a, b, c} extends the {a, b} chain, so
        Algorithm 1 never seeds it and misses ({a, b, c}, [2, 5])."""
        database = TrajectoryDatabase([
            Trajectory("a", [(t, 0.0, t) for t in range(6)]),
            Trajectory("b", [(t, 1.0, t) for t in range(6)]),
            Trajectory("c", [(t, 50.0 if t < 2 else 2.0, t)
                             for t in range(6)]),
        ])
        want = [Convoy({"a", "b"}, 0, 5), Convoy({"a", "b", "c"}, 2, 5)]
        assert oracle_convoys(database, 2, 3, 1.5) == want
        assert normalize_convoys(cmc(database, 2, 3, 1.5)) == want
        assert normalize_convoys(
            cmc(database, 2, 3, 1.5, paper_semantics=True)
        ) == want[:1]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sound_and_misses_counted(self, shape, record_property):
        """Every convoy Algorithm 1 reports holds by the definition (an
        oracle convoy dominates it); where its answer differs from the
        oracle's is counted and reported, not asserted away."""
        rng = random.Random(f"algorithm-1-{shape}")
        diverged = missed = 0
        for _ in range(60):
            database, m, k, eps, _seed = draw_query(rng.randint, shape)
            want = oracle_convoys(database, m, k, eps)
            got = normalize_convoys(
                cmc(database, m, k, eps, paper_semantics=True)
            )
            for convoy in got:
                assert any(other.dominates(convoy) for other in want)
            missed += len(set(want) - set(got))
            diverged += got != want
        record_property("queries", 60)
        record_property("queries_diverged", diverged)
        record_property("convoys_missed", missed)
        print(f"{shape}: Algorithm 1 diverged from the definition on "
              f"{diverged} of 60 queries, missing {missed} convoy(s)")


class TestOracle:
    def test_quickstart_query(self):
        database = TrajectoryDatabase([
            Trajectory("a", [(0, 0, t) for t in range(10)]),
            Trajectory("b", [(0, 1, t) for t in range(10)]),
            Trajectory("c", [(9, 9, t) for t in range(10)]),
        ])
        assert oracle_convoys(database, 2, 5, 2.0) == [
            Convoy({"a", "b"}, 0, 9)
        ]

    def test_density_connected_chain_is_one_group(self):
        """a and c are two eps apart but b connects them: the three are
        one density-connected group, not three pairs."""
        database = TrajectoryDatabase([
            Trajectory(name, [(x, 0.0, t) for t in range(3)])
            for name, x in (("a", 0.0), ("b", 1.0), ("c", 2.0))
        ])
        assert oracle_convoys(database, 2, 3, 1.0) == [
            Convoy({"a", "b", "c"}, 0, 2)
        ]

    def test_empty_database(self):
        assert oracle_convoys(TrajectoryDatabase(), 2, 2, 1.0) == []

    def test_refuses_inputs_beyond_enumeration(self):
        database = TrajectoryDatabase([
            Trajectory(f"o{i}", [(0.0, float(i), 0)])
            for i in range(MAX_OBJECTS + 1)
        ])
        with pytest.raises(ValueError, match="at most 8 objects"):
            oracle_convoys(database, 2, 1, 1.0)
