"""Tests for the vectorized numeric backend.

Three layers of proof, each run twice — with numpy and with the
``array('d')``/memoryview fallback (``numeric.np`` monkeypatched to
None, the exact seam the kernels consult at call time):

* unit tests for :class:`PositionStore` and :class:`VectorGridIndex`
  (swap-remove bookkeeping, GridIndex-identical single-query answers);
* hypothesis oracle properties — batched neighbourhood queries equal
  the O(N²) scan, vector cell ids equal the scalar bucketing, and
  ``dbscan(backend="vector")`` equals ``dbscan_brute_force``;
* an import-shim test reloading the module with ``numpy`` masked out of
  ``sys.modules``, pinning that a numpy-less host imports cleanly.
"""

import importlib
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.numeric as numeric
from repro.clustering.dbscan import dbscan, dbscan_brute_force
from repro.clustering.grid_index import GridIndex
from repro.clustering.numeric import (
    NUMERIC_BACKENDS,
    PositionStore,
    VectorGridIndex,
    validate_backend,
)

coord = st.floats(min_value=-200, max_value=200, allow_nan=False)


@pytest.fixture(params=["numpy", "fallback"])
def numeric_mode(request, monkeypatch):
    """Run a test against both kernel modes of the vector backend."""
    if request.param == "fallback":
        monkeypatch.setattr(numeric, "np", None)
    elif numeric.np is None:
        pytest.skip("numpy not installed")
    return request.param


class TestBackendNames:
    def test_names(self):
        assert NUMERIC_BACKENDS == ("python", "vector")

    def test_validate_accepts_none_as_python(self):
        assert validate_backend(None) == "python"
        assert validate_backend("vector") == "vector"

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="fortran"):
            validate_backend("fortran")


class TestPositionStore:
    def test_add_get_len(self):
        store = PositionStore()
        store.add("a", 1.5, -2.0)
        store.add("b", 3.0, 4.0)
        assert len(store) == 2
        assert "a" in store and "c" not in store
        assert store.get("a") == (1.5, -2.0)
        assert store.ids() == ["a", "b"]

    def test_duplicate_add_rejected(self):
        store = PositionStore()
        store.add("a", 0.0, 0.0)
        with pytest.raises(ValueError, match="duplicate"):
            store.add("a", 1.0, 1.0)

    def test_swap_remove_keeps_columns_dense(self):
        store = PositionStore()
        for i in range(5):
            store.add(f"o{i}", float(i), float(-i))
        store.remove("o1")  # o4 swaps into row 1
        assert len(store) == 4
        assert store.get("o4") == (4.0, -4.0)
        assert store.row_of("o4") == 1
        xs, ys = store.columns()
        assert list(xs) == [0.0, 4.0, 2.0, 3.0]
        assert list(ys) == [0.0, -4.0, -2.0, -3.0]

    def test_remove_last_row(self):
        store = PositionStore()
        store.add("a", 1.0, 2.0)
        store.remove("a")
        assert len(store) == 0
        with pytest.raises(KeyError):
            store.remove("a")

    def test_set_overwrites_in_place(self):
        store = PositionStore()
        store.add("a", 1.0, 2.0)
        store.set("a", 9.0, 8.0)
        assert store.get("a") == (9.0, 8.0)
        assert len(store) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_churn_matches_dict(self, rng):
        """The store under random add/remove/set equals a plain dict."""
        store = PositionStore()
        reference = {}
        for step in range(120):
            op = rng.random()
            if op < 0.5 or not reference:
                key = f"k{rng.randrange(40)}"
                x, y = rng.uniform(-9, 9), rng.uniform(-9, 9)
                if key in reference:
                    store.set(key, x, y)
                else:
                    store.add(key, x, y)
                reference[key] = (x, y)
            else:
                key = rng.choice(sorted(reference))
                store.remove(key)
                del reference[key]
        assert len(store) == len(reference)
        assert {k: store.get(k) for k in store.ids()} == reference


class TestVectorGridIndexUnit:
    def test_rejects_non_positive_cell(self, numeric_mode):
        with pytest.raises(ValueError):
            VectorGridIndex(0)

    def test_matches_grid_index_single_queries(self, numeric_mode):
        points = {f"o{i}": (i * 0.7, -i * 0.3) for i in range(30)}
        scalar = GridIndex(2.5, points)
        vector = VectorGridIndex(2.5, points)
        for o, xy in points.items():
            assert (
                set(vector.neighbors_within(xy, 2.5))
                == set(scalar.neighbors_within(xy, 2.5))
            )
            assert set(vector.neighbors_of(o, 2.5)) == set(
                scalar.neighbors_of(o, 2.5)
            )

    def test_insert_remove_move_contract(self, numeric_mode):
        index = VectorGridIndex(1.0, {"a": (0, 0)})
        with pytest.raises(ValueError):
            index.insert("a", (1, 1))
        with pytest.raises(ValueError):
            index.insert("b", (math.nan, 0))
        with pytest.raises(KeyError):
            index.remove("missing")
        with pytest.raises(KeyError):
            index.move("missing", (0, 0))
        index.insert("b", (5, 5))
        index.move("b", (0.5, 0.0))
        assert set(index.neighbors_within((0, 0), 1.0)) == {"a", "b"}
        index.remove("a")
        assert set(index.neighbors_within((0, 0), 1.0)) == {"b"}
        assert index.location_of("b") == (0.5, 0.0)

    def test_boundary_distance_included(self, numeric_mode):
        index = VectorGridIndex(1.0, {"a": (0, 0), "b": (1.0, 0)})
        assert set(index.neighbors_of("a", 1.0)) == {"a", "b"}
        index2 = VectorGridIndex(1.0, {"a": (0, 0), "b": (1.0001, 0)})
        assert set(index2.neighbors_of("a", 1.0)) == {"a"}

    def test_negative_radius_rejected(self, numeric_mode):
        index = VectorGridIndex(1.0, {"a": (0, 0)})
        with pytest.raises(ValueError):
            index.neighbors_within_batch([(0, 0)], -1)

    def test_empty_index_batch(self, numeric_mode):
        index = VectorGridIndex(1.0)
        assert index.neighbors_within_batch([(0, 0), (5, 5)], 2.0) == [[], []]
        assert index.all_neighbors(2.0) == {}

    def test_all_neighbors_covers_every_point(self, numeric_mode):
        points = {f"o{i}": (i % 7 * 1.3, i // 7 * 1.1) for i in range(25)}
        index = VectorGridIndex(2.0, points)
        answer = index.all_neighbors(2.0)
        assert set(answer) == set(points)
        for o, neighbors in answer.items():
            assert o in neighbors  # distance zero to itself


class TestVectorGridIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=0, max_size=40),
        st.lists(st.tuples(coord, coord), min_size=1, max_size=10),
        st.floats(min_value=0.1, max_value=50),
    )
    def test_batch_queries_match_brute_force(self, locs, queries, radius):
        points = {i: xy for i, xy in enumerate(locs)}
        index = VectorGridIndex(radius, points)
        results = index.neighbors_within_batch(queries, radius)
        r2 = radius * radius
        for (qx, qy), found in zip(queries, results):
            expected = {
                i for i, (x, y) in points.items()
                if (x - qx) ** 2 + (y - qy) ** 2 <= r2
            }
            assert set(found) == expected
            assert len(found) == len(set(found))  # no duplicate ids

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.floats(min_value=0.05, max_value=40),
    )
    def test_bulk_cell_ids_match_scalar_floor_divide(self, locs, cell):
        """The vectorized floor-divide bucketing must agree with the
        scalar bucketing of GridIndex for every coordinate — the
        invariant that makes the two grids interchangeable."""
        points = {i: xy for i, xy in enumerate(locs)}
        index = VectorGridIndex(cell, points)
        scalar = GridIndex(cell)
        for i, (x, y) in points.items():
            scalar_cell = scalar._cell_of((x, y))
            assert index._cell_of((x, y)) == scalar_cell
            bucket = index._cells[scalar_cell]
            assert i in bucket

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=60),
            st.tuples(coord, coord), min_size=0, max_size=40,
        ),
        st.floats(min_value=0.5, max_value=30),
        st.integers(min_value=1, max_value=6),
    )
    def test_vector_dbscan_matches_brute_force(self, points, eps, min_pts):
        assert dbscan(points, eps, min_pts, backend="vector") == (
            dbscan_brute_force(points, eps, min_pts)
        )


class TestFallbackParity:
    """The two kernel modes (numpy / memoryview) must agree bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=0, max_size=30),
        st.floats(min_value=0.5, max_value=20),
    )
    def test_neighborhoods_agree(self, locs, eps):
        if numeric.np is None:
            pytest.skip("numpy not installed")
        points = {i: xy for i, xy in enumerate(locs)}
        with_numpy = VectorGridIndex(eps, points).all_neighbors(eps)
        saved = numeric.np
        try:
            numeric.np = None
            without = VectorGridIndex(eps, points).all_neighbors(eps)
        finally:
            numeric.np = saved
        assert {k: set(v) for k, v in with_numpy.items()} == (
            {k: set(v) for k, v in without.items()}
        )


class TestImportShim:
    def test_module_imports_without_numpy(self):
        """A numpy-less interpreter must import the module cleanly and
        land on the fallback kernels (ImportError branch, not call-time
        monkeypatching)."""
        saved_numeric = sys.modules.pop("repro.clustering.numeric")
        saved_numpy = {
            name: sys.modules[name]
            for name in list(sys.modules)
            if name == "numpy" or name.startswith("numpy.")
        }
        for name in saved_numpy:
            del sys.modules[name]
        sys.modules["numpy"] = None  # import numpy raises ImportError
        try:
            shimmed = importlib.import_module("repro.clustering.numeric")
            assert shimmed.np is None
            assert not shimmed.have_numpy()
            index = shimmed.VectorGridIndex(
                1.0, {"a": (0, 0), "b": (0.5, 0), "c": (9, 9)}
            )
            assert set(index.neighbors_within((0, 0), 1.0)) == {"a", "b"}
        finally:
            del sys.modules["numpy"]
            sys.modules.update(saved_numpy)
            sys.modules["repro.clustering.numeric"] = saved_numeric
