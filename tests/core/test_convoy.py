"""Tests for the Convoy result type."""

import pytest

from repro.core.convoy import Convoy


class TestConstruction:
    def test_basic_fields(self):
        c = Convoy(["a", "b"], 3, 9)
        assert c.objects == frozenset({"a", "b"})
        assert c.interval == (3, 9)
        assert c.size == 2
        assert c.lifetime == 7

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            Convoy(["a"], 9, 3)

    def test_empty_objects_rejected(self):
        with pytest.raises(ValueError):
            Convoy([], 0, 1)

    def test_single_instant_convoy(self):
        c = Convoy(["a", "b"], 5, 5)
        assert c.lifetime == 1

    def test_immutable(self):
        c = Convoy(["a"], 0, 1)
        with pytest.raises(Exception):
            c.t_start = 7


class TestEqualityAndHashing:
    def test_equal_regardless_of_member_order(self):
        assert Convoy(["a", "b"], 0, 5) == Convoy(["b", "a"], 0, 5)

    def test_hashable(self):
        assert len({Convoy(["a"], 0, 5), Convoy(["a"], 0, 5)}) == 1

    def test_different_interval_not_equal(self):
        assert Convoy(["a"], 0, 5) != Convoy(["a"], 0, 6)

    def test_sort_key_is_deterministic(self):
        convoys = [
            Convoy(["b"], 1, 3),
            Convoy(["a"], 0, 9),
            Convoy(["a", "b"], 1, 3),
        ]
        once = sorted(convoys, key=lambda c: c.sort_key())
        twice = sorted(list(reversed(convoys)), key=lambda c: c.sort_key())
        assert once == twice


class TestDominance:
    def test_dominates_subset_in_time_and_objects(self):
        big = Convoy(["a", "b", "c"], 0, 10)
        small = Convoy(["a", "b"], 2, 8)
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_self_domination(self):
        c = Convoy(["a", "b"], 0, 10)
        assert c.dominates(c)

    def test_disjoint_intervals_never_dominate(self):
        a = Convoy(["a", "b"], 0, 5)
        b = Convoy(["a", "b"], 6, 10)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_incomparable_object_sets(self):
        a = Convoy(["a", "b"], 0, 10)
        b = Convoy(["a", "c"], 2, 8)
        assert not a.dominates(b)


def test_repr_is_readable():
    c = Convoy(["b", "a"], 2, 4)
    assert repr(c) == "Convoy([a, b], t=[2, 4])"
