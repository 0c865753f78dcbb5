"""Tests for TrajectoryPoint."""

from repro.trajectory.point import TrajectoryPoint


def test_fields_and_xy():
    p = TrajectoryPoint(1.5, -2.0, 7)
    assert p.x == 1.5
    assert p.y == -2.0
    assert p.t == 7
    assert p.xy == (1.5, -2.0)


def test_is_a_tuple():
    # NamedTuple semantics: unpackable, hashable, comparable.
    x, y, t = TrajectoryPoint(1, 2, 3)
    assert (x, y, t) == (1, 2, 3)
    assert hash(TrajectoryPoint(1, 2, 3)) == hash((1, 2, 3))
