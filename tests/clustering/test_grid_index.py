"""Tests for the uniform grid index."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.grid_index import GridIndex, block_reach, bucket_side

coord = st.floats(min_value=-200, max_value=200, allow_nan=False)


class TestConstruction:
    def test_rejects_non_positive_cell(self):
        with pytest.raises(ValueError):
            GridIndex(0)
        with pytest.raises(ValueError):
            GridIndex(-1)

    def test_bulk_load(self):
        index = GridIndex(1.0, {"a": (0, 0), "b": (5, 5)})
        assert len(index) == 2
        assert "a" in index

    def test_duplicate_id_rejected(self):
        index = GridIndex(1.0, {"a": (0, 0)})
        with pytest.raises(ValueError):
            index.insert("a", (1, 1))

    def test_location_of(self):
        index = GridIndex(1.0, {"a": (3, 4)})
        assert index.location_of("a") == (3, 4)


class TestNeighborQueries:
    def test_includes_self(self):
        index = GridIndex(1.0, {"a": (0, 0)})
        assert index.neighbors_of("a", 1.0) == ["a"]

    def test_boundary_distance_included(self):
        index = GridIndex(1.0, {"a": (0, 0), "b": (1.0, 0)})
        assert set(index.neighbors_of("a", 1.0)) == {"a", "b"}

    def test_just_outside_excluded(self):
        index = GridIndex(1.0, {"a": (0, 0), "b": (1.0001, 0)})
        assert set(index.neighbors_of("a", 1.0)) == {"a"}

    def test_negative_radius_rejected(self):
        index = GridIndex(1.0, {"a": (0, 0)})
        with pytest.raises(ValueError):
            index.neighbors_within((0, 0), -1)

    def test_radius_larger_than_cell(self):
        index = GridIndex(1.0, {"a": (0, 0), "b": (4.5, 0), "c": (6, 0)})
        assert set(index.neighbors_of("a", 5.0)) == {"a", "b"}

    def test_radius_smaller_than_cell(self):
        index = GridIndex(10.0, {"a": (0, 0), "b": (2, 0), "c": (9, 0)})
        assert set(index.neighbors_of("a", 3.0)) == {"a", "b"}

    def test_negative_coordinates(self):
        index = GridIndex(1.0, {"a": (-5.5, -5.5), "b": (-5.0, -5.5)})
        assert set(index.neighbors_of("a", 0.6)) == {"a", "b"}

    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=60),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.5, max_value=30),
    )
    def test_matches_brute_force(self, pts, cell, radius):
        """The index returns exactly the brute-force e-neighbourhood."""
        points = {i: p for i, p in enumerate(pts)}
        index = GridIndex(cell, points)
        query = pts[0]
        expected = {
            i
            for i, (x, y) in points.items()
            if math.hypot(x - query[0], y - query[1]) <= radius
        }
        assert set(index.neighbors_within(query, radius)) == expected

    def test_large_random_consistency(self):
        rng = random.Random(42)
        points = {
            i: (rng.uniform(-100, 100), rng.uniform(-100, 100))
            for i in range(500)
        }
        index = GridIndex(7.0, points)
        for probe in range(20):
            qid = rng.randrange(500)
            qx, qy = points[qid]
            expected = {
                i
                for i, (x, y) in points.items()
                if math.hypot(x - qx, y - qy) <= 7.0
            }
            assert set(index.neighbors_of(qid, 7.0)) == expected


def brute_force_neighbors(points, query, radius):
    qx, qy = query
    return {
        item_id
        for item_id, (x, y) in points.items()
        if math.hypot(x - qx, y - qy) <= radius
    }


class TestEdgeCases:
    """Degenerate geometry the streaming per-tick indexes must survive."""

    def test_points_exactly_on_cell_boundaries(self):
        """Coordinates that are exact multiples of cell_size land in a
        definite cell and are still found from the adjacent cells."""
        points = {
            "origin": (0.0, 0.0),
            "east": (1.0, 0.0),
            "corner": (1.0, 1.0),
            "far": (2.0, 0.0),
            "west_edge": (-1.0, 0.0),
        }
        index = GridIndex(1.0, points)
        for item_id in points:
            assert set(index.neighbors_of(item_id, 1.0)) == \
                brute_force_neighbors(points, points[item_id], 1.0)

    def test_negative_boundary_coordinates(self):
        """floor-division cell mapping: -1.0 // 1.0 is -1, not 0 — points
        on negative cell boundaries must not shift a cell."""
        points = {
            "a": (-2.0, -2.0),
            "b": (-1.0, -2.0),
            "c": (-2.0, -1.0),
            "d": (-0.5, -0.5),
        }
        index = GridIndex(1.0, points)
        for item_id, location in points.items():
            for radius in (0.5, 1.0, 1.5):
                assert set(index.neighbors_of(item_id, radius)) == \
                    brute_force_neighbors(points, location, radius)

    def test_duplicate_positions_distinct_ids(self):
        """Several objects can report the same location (a parked fleet);
        all of them must appear in each other's neighbourhood."""
        points = {f"p{i}": (3.5, -2.5) for i in range(5)}
        points["q"] = (3.5, -1.6)
        index = GridIndex(1.0, points)
        assert set(index.neighbors_of("p0", 0.0)) == {f"p{i}" for i in range(5)}
        assert set(index.neighbors_of("q", 1.0)) == set(points)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_cell_size_equals_eps_matches_brute_force(self, seed):
        """The engine's natural configuration (cell_size == eps): query
        results are exactly the brute-force e-neighbourhood on random sets
        that include cell-aligned and duplicated points."""
        rng = random.Random(seed)
        eps = 2.5
        points = {}
        for i in range(120):
            roll = rng.random()
            if roll < 0.2:  # snap onto the grid lines
                x = eps * rng.randint(-8, 8)
                y = eps * rng.randint(-8, 8)
            elif roll < 0.3 and points:  # duplicate an earlier position
                x, y = points[rng.randrange(len(points))]
            else:
                x = rng.uniform(-20, 20)
                y = rng.uniform(-20, 20)
            points[i] = (x, y)
        index = GridIndex(eps, points)
        for qid in range(0, 120, 7):
            assert set(index.neighbors_of(qid, eps)) == \
                brute_force_neighbors(points, points[qid], eps)


class TestMutations:
    """The remove/move API the incremental clusterer drives every tick."""

    def test_remove_absent_id_raises_cleanly(self):
        index = GridIndex(1.0, {"a": (0, 0)})
        with pytest.raises(KeyError, match="ghost"):
            index.remove("ghost")
        index.remove("a")
        with pytest.raises(KeyError, match="'a'"):
            index.remove("a")  # double remove is absent too
        assert len(index) == 0

    def test_move_absent_id_raises_cleanly(self):
        index = GridIndex(1.0)
        with pytest.raises(KeyError):
            index.move("ghost", (1.0, 1.0))

    def test_removed_point_disappears_from_queries(self):
        index = GridIndex(1.0, {"a": (0, 0), "b": (0.5, 0)})
        index.remove("b")
        assert "b" not in index
        assert set(index.neighbors_of("a", 1.0)) == {"a"}

    def test_reinsert_after_remove(self):
        index = GridIndex(1.0, {"a": (0, 0), "b": (0.5, 0)})
        index.remove("a")
        index.insert("a", (5.0, 5.0))
        assert index.location_of("a") == (5.0, 5.0)
        assert set(index.neighbors_within((5.0, 5.0), 0.1)) == {"a"}
        assert set(index.neighbors_within((0.0, 0.0), 1.0)) == {"b"}

    def test_move_across_cell_boundary_and_back(self):
        index = GridIndex(1.0, {"a": (0.5, 0.5), "b": (0.6, 0.5)})
        index.move("a", (3.5, 0.5))       # leaves the 3x3 block around b
        assert set(index.neighbors_of("b", 1.0)) == {"b"}
        assert set(index.neighbors_of("a", 1.0)) == {"a"}
        index.move("a", (0.5, 0.5))       # and back to the original cell
        assert set(index.neighbors_of("b", 1.0)) == {"a", "b"}
        assert index.location_of("a") == (0.5, 0.5)

    def test_move_within_cell_updates_distance_filtering(self):
        index = GridIndex(2.0, {"a": (0.1, 0.1), "b": (1.9, 0.1)})
        assert set(index.neighbors_of("a", 1.0)) == {"a"}
        index.move("b", (0.9, 0.1))       # same cell, now within radius
        assert set(index.neighbors_of("a", 1.0)) == {"a", "b"}

    def test_move_onto_negative_boundary(self):
        index = GridIndex(1.0, {"a": (0.5, 0.5), "b": (-0.5, 0.5)})
        index.move("a", (-1.0, 0.5))      # exact negative cell boundary
        assert set(index.neighbors_of("b", 0.5)) == {"a", "b"}

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_interleaved_mutations_match_brute_force_oracle(self, seed):
        """Random insert/move/remove interleavings: queries always equal
        the brute-force e-neighbourhood of the surviving points."""
        rng = random.Random(seed)
        index = GridIndex(2.0)
        points = {}
        next_id = 0
        for step in range(300):
            op = rng.random()
            if op < 0.4 or not points:
                xy = (rng.uniform(-15, 15), rng.uniform(-15, 15))
                points[next_id] = xy
                index.insert(next_id, xy)
                next_id += 1
            elif op < 0.7:
                target = rng.choice(sorted(points))
                xy = (rng.uniform(-15, 15), rng.uniform(-15, 15))
                points[target] = xy
                index.move(target, xy)
            else:
                target = rng.choice(sorted(points))
                del points[target]
                index.remove(target)
            if step % 10 == 0 and points:
                assert len(index) == len(points)
                probe = points[rng.choice(sorted(points))]
                radius = rng.choice([0.5, 2.0, 5.0])
                assert set(index.neighbors_within(probe, radius)) == \
                    brute_force_neighbors(points, probe, radius)

    def test_empty_buckets_are_reclaimed(self):
        """Long-lived streaming indexes must not accumulate ghost cells as
        points drift across the grid."""
        index = GridIndex(1.0, {"a": (0.5, 0.5)})
        for step in range(1, 200):
            index.move("a", (0.5 + step, 0.5))
        assert len(index._cells) == 1
        index.remove("a")
        assert len(index._cells) == 0


class TestNonFiniteCoordinates:
    """Regression: NaN/inf coordinates used to corrupt cell hashing (NaN //
    cell_size is NaN, int(NaN) raises far from the insert; inf overflows) —
    they are now rejected up front with a clear error."""

    @pytest.mark.parametrize("bad", [
        (math.nan, 0.0), (0.0, math.nan),
        (math.inf, 0.0), (0.0, -math.inf),
    ])
    def test_insert_rejects_non_finite(self, bad):
        index = GridIndex(1.0, {"a": (0, 0)})
        with pytest.raises(ValueError, match="finite"):
            index.insert("bad", bad)
        # the rejected point must leave no trace
        assert "bad" not in index
        assert len(index) == 1
        assert set(index.neighbors_within((0.0, 0.0), 2.0)) == {"a"}

    @pytest.mark.parametrize("bad", [
        (math.nan, 0.0), (math.inf, math.inf),
    ])
    def test_move_rejects_non_finite_and_keeps_old_position(self, bad):
        index = GridIndex(1.0, {"a": (1.5, 1.5)})
        with pytest.raises(ValueError, match="finite"):
            index.move("a", bad)
        assert index.location_of("a") == (1.5, 1.5)
        assert set(index.neighbors_of("a", 0.5)) == {"a"}

    def test_bulk_load_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            GridIndex(1.0, {"a": (0, 0), "b": (math.nan, 1.0)})


def predicate_neighbors(points, query, radius):
    """Ids within ``radius`` of ``query`` under the squared-distance
    predicate the grid itself evaluates."""
    qx, qy = query
    radius2 = radius * radius
    return {
        item_id
        for item_id, (x, y) in points.items()
        if (x - qx) * (x - qx) + (y - qy) * (y - qy) <= radius2
    }


def as_sets(neighbors):
    return {item_id: set(found) for item_id, found in neighbors.items()}


def scattered_points(rng, cell, count=150):
    """Uniform points mixed with grid-line and duplicated positions."""
    points = {}
    for i in range(count):
        roll = rng.random()
        if roll < 0.2:
            xy = (cell * rng.randint(-6, 6), cell * rng.randint(-6, 6))
        elif roll < 0.3 and points:
            xy = points[rng.randrange(len(points))]
        else:
            xy = (rng.uniform(-12, 12), rng.uniform(-12, 12))
        points[i] = xy
    return points


class TestAllNeighbors:
    """The per-cell batch pass: every point's disk at once, each pair
    tested once from the earlier of its two cells."""

    def test_empty_index(self):
        assert GridIndex(1.0).all_neighbors(1.0) == {}

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GridIndex(1.0, {"a": (0, 0)}).all_neighbors(-0.5)

    def test_isolated_points_list_only_themselves(self):
        index = GridIndex(1.0, {"a": (0, 0), "b": (5, 5), "c": (0.5, 0)})
        assert as_sets(index.all_neighbors(1.0)) == {
            "a": {"a", "c"}, "b": {"b"}, "c": {"a", "c"},
        }

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5])
    def test_matches_per_point_queries(self, ratio):
        """Radii below, at, and several rings beyond the cell size: the
        forward half of the block covers every pair of the whole block."""
        cell = 2.0
        points = scattered_points(random.Random(int(ratio * 10)), cell)
        index = GridIndex(cell, points)
        radius = ratio * cell
        got = as_sets(index.all_neighbors(radius))
        assert got == {
            item_id: set(index.neighbors_of(item_id, radius))
            for item_id in points
        }
        assert got == {
            item_id: predicate_neighbors(points, xy, radius)
            for item_id, xy in points.items()
        }

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), max_size=60),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_matches_brute_force(self, pts, cell, ratio):
        points = dict(enumerate(pts))
        radius = ratio * cell
        assert as_sets(GridIndex(cell, points).all_neighbors(radius)) == {
            item_id: predicate_neighbors(points, xy, radius)
            for item_id, xy in points.items()
        }

    def test_follows_mutations(self):
        """The incremental clusterer's full pass runs on an index it has
        been moving point by point; the pass sees the current state."""
        rng = random.Random(5)
        index = GridIndex(1.5)
        points = {}
        for step in range(200):
            op = rng.random()
            if op < 0.4 or not points:
                xy = (rng.uniform(-8, 8), rng.uniform(-8, 8))
                points[step] = xy
                index.insert(step, xy)
            elif op < 0.75:
                target = rng.choice(sorted(points))
                points[target] = (rng.uniform(-8, 8), rng.uniform(-8, 8))
                index.move(target, points[target])
            else:
                target = rng.choice(sorted(points))
                del points[target]
                index.remove(target)
            if step % 25 == 0:
                assert as_sets(index.all_neighbors(1.5)) == {
                    item_id: predicate_neighbors(points, xy, 1.5)
                    for item_id, xy in points.items()
                }

    def test_each_neighbour_listed_once(self):
        """A pair is recorded once on each side, for same-cell pairs,
        duplicate positions and pairs across cells alike."""
        points = {i: (0.25 * (i % 3), 0.0) for i in range(9)}
        points[9] = (1.2, 0.3)
        points[10] = (-0.9, -0.9)
        index = GridIndex(1.0, points)
        for radius in (0.0, 1.0, 2.5):
            for found in index.all_neighbors(radius).values():
                assert len(found) == len(set(found))


class TestBucketGeometry:
    def test_block_reach_is_one_up_to_cell_size(self):
        for radius in (0.0, 1e-9, 0.5, 1.0):
            assert block_reach(radius, 1.0) == 1
        # The engine's configuration, radius == cell_size: a 3x3 block.
        assert block_reach(10.0, 10.0) == 1

    def test_block_reach_counts_rings_beyond(self):
        assert block_reach(math.nextafter(1.0, 2.0), 1.0) == 2
        assert block_reach(2.0, 1.0) == 2
        assert block_reach(2.5, 1.0) == 3
        assert block_reach(7.0, 2.0) == 4

    def test_bucket_side_is_a_hair_wider(self):
        for cell in (1e-3, 0.3, 1.0, 10.0, 1e6):
            assert cell < bucket_side(cell) <= cell * (1 + 1e-12)
        # Buckets are keyed on that side: a point on the k * cell_size
        # line still falls in bucket k - 1.
        index = GridIndex(10.0)
        assert index._cell_of((10.0, 20.0)) == (0, 1)
        assert index._cell_of((bucket_side(10.0), 0.0)) == (1, 0)
