"""A simplified trajectory is an index cut of its own trajectory.

:class:`SimplifiedTrajectory` holds the trajectory and the kept sample
indices and builds ``points`` only when they are read; the filter's join
reads its segments straight off the kept indices.  The reference here is
the materialized form the simplifiers returned before: a tuple of
:class:`TrajectoryPoint` per kept sample, and chords built from
consecutive points (:func:`tests.filter_reference.chords`).
"""

import random
from dataclasses import dataclass

import pytest

from repro.clustering.spatial_join import segment_records
from repro.core.cuts import VARIANTS, cuts
from repro.simplification import (
    SIMPLIFIERS,
    SimplifiedTrajectory,
    simplification_report,
)
from repro.simplification.tree import SplitTree
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory
from tests.filter_reference import chords


@dataclass(frozen=True)
class Materialized:
    """The materialized simplified trajectory: kept points as tuples."""

    object_id: object
    points: tuple
    tolerances: tuple
    delta: float
    original_size: int

    def __len__(self):
        return len(self.points)


def materialized(trajectory, kept, tolerances, delta):
    """Copy the kept samples out, one :class:`TrajectoryPoint` each."""
    return Materialized(
        trajectory.object_id,
        tuple(trajectory[i] for i in kept),
        tuple(tolerances),
        delta,
        len(trajectory),
    )


def point_bits(points):
    return [(p.x.hex(), p.y.hex(), p.t) for p in points]


def chord_bits(chords):
    return [
        (start[0].hex(), start[1].hex(), end[0].hex(), end[1].hex(),
         float(t_start).hex(), float(t_end).hex(), tolerance.hex())
        for start, end, t_start, t_end, tolerance in chords
    ]


def record_chords(simplified):
    """The chords the filter's join reads off the kept indices."""
    t_lo, t_hi = simplified.tau
    [records], _present = segment_records(
        [simplified], t_lo, t_hi, t_hi - t_lo + 1, 1.0
    )
    return [((r[0], r[1]), (r[2], r[3]), r[4], r[5], r[6]) for r in records]


def walk(rng, n, step=3.0, t0=0):
    x = y = 0.0
    points = []
    for t in range(t0, t0 + n):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        points.append((x, y, t))
    return points


def assert_same_as_materialized(got, trajectory):
    want = materialized(trajectory, got.kept, got.tolerances, got.delta)
    assert got.object_id == want.object_id
    assert len(got) == len(want)
    assert got.original_size == want.original_size
    assert point_bits(got.points) == point_bits(want.points)
    assert [t.hex() for t in got.tolerances] == [
        t.hex() for t in want.tolerances
    ]
    assert chord_bits(record_chords(got)) == chord_bits(chords(want))
    assert got.tau == (want.points[0].t, want.points[-1].t)
    return want


@pytest.mark.parametrize("name", sorted(SIMPLIFIERS))
class TestIndexFormEqualsMaterialized:
    def test_seeded_walks(self, name):
        rng = random.Random(31)
        simplifier = SIMPLIFIERS[name]
        trajectories = [
            Trajectory(f"o{i}", walk(rng, rng.randint(3, 120)))
            for i in range(12)
        ]
        for delta in (0.0, 0.7, 2.5, 9.0):
            got = [simplifier(tr, delta) for tr in trajectories]
            want = [assert_same_as_materialized(s, tr)
                    for s, tr in zip(got, trajectories)]
            assert simplification_report(got) == simplification_report(want)

    def test_one_and_two_samples(self, name):
        simplifier = SIMPLIFIERS[name]
        for points in ([(3.0, 4.0, 7)], [(0.0, 0.0, 0), (5.0, 5.0, 3)]):
            trajectory = Trajectory("o", points)
            for delta in (0.0, 1.0):
                got = simplifier(trajectory, delta)
                assert got.kept == list(range(len(points)))
                want = assert_same_as_materialized(got, trajectory)
                assert simplification_report([got]) == (
                    simplification_report([want])
                )

    def test_longer_than_two_byte_keys(self, name):
        """Past 65,536 samples the split tree's keys take four bytes;
        kept indices above 65,535 read the right samples."""
        rng = random.Random(4)
        trajectory = Trajectory("o", walk(rng, 70_000, step=1.0))
        got = SIMPLIFIERS[name](trajectory, 30.0)
        assert max(got.kept[:-1]) > 65_535
        want = assert_same_as_materialized(got, trajectory)
        assert simplification_report([got]) == simplification_report([want])


class TestEquality:
    def test_equal_cuts_compare_equal(self):
        rng = random.Random(2)
        points = walk(rng, 40)
        a = SIMPLIFIERS["dp*"](Trajectory("o", points), 1.0)
        b = SIMPLIFIERS["dp*"](Trajectory("o", points), 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != SIMPLIFIERS["dp*"](Trajectory("o", points), 2.0)
        assert a != SIMPLIFIERS["dp*"](Trajectory("p", points), 1.0)

    def test_points_are_built_once(self):
        trajectory = Trajectory("o", walk(random.Random(3), 30))
        simplified = SIMPLIFIERS["dp"](trajectory, 1.0)
        assert simplified.points is simplified.points

    def test_empty_and_mismatched_cuts_are_refused(self):
        trajectory = Trajectory("o", [(0.0, 0.0, 0), (1.0, 0.0, 1)])
        with pytest.raises(ValueError, match="empty"):
            SimplifiedTrajectory(trajectory, [], [0.0], 0.0)
        with pytest.raises(ValueError, match="tolerances"):
            SimplifiedTrajectory(trajectory, [0, 1], [0.0, 0.0], 0.0)


class TestWarmQuery:
    def database(self):
        rng = random.Random(21)
        return TrajectoryDatabase(
            Trajectory(f"o{i}", walk(rng, 60, step=1.5, t0=rng.randint(0, 5)))
            for i in range(16)
        )

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_second_query_reads_no_points_and_walks_no_tree(
        self, monkeypatch, variant
    ):
        """δ selection is warm after its first call, and the filter's
        records read the trajectory's columns at the kept indices: a
        second query on one database neither re-walks a DP tree for its
        split deviations nor materializes a kept point."""
        database = self.database()
        first = cuts(database, 2, 4, 3.0, variant=variant)
        walks = []
        reads = []
        split_deviations = SplitTree.split_deviations
        points = SimplifiedTrajectory.points.fget

        def counted_walk(tree):
            walks.append(tree)
            return split_deviations(tree)

        def counted_points(simplified):
            reads.append(simplified)
            return points(simplified)

        monkeypatch.setattr(SplitTree, "split_deviations", counted_walk)
        monkeypatch.setattr(SimplifiedTrajectory, "points",
                            property(counted_points))
        for eps in (3.0, 2.2, 4.5):
            second = cuts(database, 2, 4, eps, variant=variant)
        assert walks == []
        assert reads == []
        again = cuts(database, 2, 4, 3.0, variant=variant)
        assert (again.convoys, again.delta, again.lam) == (
            first.convoys, first.delta, first.lam
        )
        assert second.delta > 0
