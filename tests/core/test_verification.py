"""Tests for convoy validation, normalization, and the Fig 19 metrics."""

import pytest

from repro.core.convoy import Convoy
from repro.core.verification import (
    convoy_sets_equal,
    false_negative_rate,
    false_positive_rate,
    is_valid_convoy,
    normalize_convoys,
)
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def db_of(*specs):
    return TrajectoryDatabase(Trajectory(oid, pts) for oid, pts in specs)


def parallel_pair_db():
    return db_of(
        ("a", [(t, 0, t) for t in range(10)]),
        ("b", [(t, 1, t) for t in range(10)]),
        ("far", [(t, 100, t) for t in range(10)]),
    )


class TestIsValidConvoy:
    def test_valid(self):
        db = parallel_pair_db()
        assert is_valid_convoy(db, Convoy(["a", "b"], 0, 9), 2, 5, 2.0)

    def test_too_small(self):
        db = parallel_pair_db()
        assert not is_valid_convoy(db, Convoy(["a", "b"], 0, 9), 3, 5, 2.0)

    def test_too_short(self):
        db = parallel_pair_db()
        assert not is_valid_convoy(db, Convoy(["a", "b"], 0, 2), 2, 5, 2.0)

    def test_not_connected(self):
        db = parallel_pair_db()
        assert not is_valid_convoy(db, Convoy(["a", "far"], 0, 9), 2, 5, 2.0)

    def test_member_not_alive_through_interval(self):
        db = db_of(
            ("a", [(t, 0, t) for t in range(10)]),
            ("b", [(t, 1, t) for t in range(5)]),
        )
        assert not is_valid_convoy(db, Convoy(["a", "b"], 0, 9), 2, 3, 2.0)
        assert is_valid_convoy(db, Convoy(["a", "b"], 0, 4), 2, 3, 2.0)

    def test_empty_database_holds_no_convoy(self):
        """The snapshot sweep yields no tick for an empty database, so a
        loop over its ticks alone would accept any convoy there."""
        convoy = Convoy(["a", "b"], 0, 4)
        assert not is_valid_convoy(TrajectoryDatabase(), convoy, 2, 2, 1.0)

    def test_interval_past_the_domain_is_invalid(self):
        db = parallel_pair_db()
        assert not is_valid_convoy(db, Convoy(["a", "b"], 5, 12), 2, 5, 2.0)
        assert not is_valid_convoy(db, Convoy(["a", "b"], -3, 4), 2, 5, 2.0)


class TestNormalization:
    def test_removes_exact_duplicates(self):
        c = Convoy(["a", "b"], 0, 9)
        assert normalize_convoys([c, c, c]) == [c]

    def test_removes_dominated(self):
        big = Convoy(["a", "b", "c"], 0, 10)
        frag = Convoy(["a", "b"], 2, 8)
        assert normalize_convoys([frag, big]) == [big]

    def test_keeps_incomparable(self):
        long_small = Convoy(["a", "b"], 0, 10)
        short_big = Convoy(["a", "b", "c"], 3, 6)
        result = normalize_convoys([long_small, short_big])
        assert set(result) == {long_small, short_big}

    def test_deterministic_order(self):
        convoys = [
            Convoy(["b", "c"], 5, 9),
            Convoy(["a", "b"], 0, 4),
            Convoy(["a", "c"], 2, 7),
        ]
        assert normalize_convoys(convoys) == normalize_convoys(
            list(reversed(convoys))
        )

    def test_empty(self):
        assert normalize_convoys([]) == []

    def test_sets_equal(self):
        a = [Convoy(["a", "b"], 0, 9), Convoy(["a", "b"], 2, 5)]
        b = [Convoy(["a", "b"], 0, 9)]
        assert convoy_sets_equal(a, b)
        assert not convoy_sets_equal(a, [Convoy(["a", "b"], 0, 8)])


class TestQualityRates:
    def test_false_positive_rate(self):
        db = parallel_pair_db()
        reported = [
            Convoy(["a", "b"], 0, 9),     # valid
            Convoy(["a", "far"], 0, 9),   # invalid (not connected)
        ]
        assert false_positive_rate(reported, db, 2, 5, 2.0) == pytest.approx(50.0)

    def test_false_positive_rate_empty(self):
        db = parallel_pair_db()
        assert false_positive_rate([], db, 2, 5, 2.0) == 0.0

    def test_false_negative_rate(self):
        exact = [Convoy(["a", "b"], 0, 9), Convoy(["c", "d"], 0, 9)]
        reported = [Convoy(["a", "b", "x"], 0, 9)]  # covers the first only
        assert false_negative_rate(reported, exact) == pytest.approx(50.0)

    def test_false_negative_partial_interval_is_a_miss(self):
        exact = [Convoy(["a", "b"], 0, 9)]
        reported = [Convoy(["a", "b"], 0, 5)]
        assert false_negative_rate(reported, exact) == pytest.approx(100.0)

    def test_false_negative_rate_empty_exact(self):
        assert false_negative_rate([Convoy(["a"], 0, 1)], []) == 0.0
