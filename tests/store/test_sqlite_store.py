"""Unit suite for :class:`~repro.store.sqlite.SQLiteConvoyStore`.

Every indexed query is held equal to a brute-force in-memory answer over
a seeded random population — ``alive_in`` additionally against its own
``force_scan=True`` plan (same SQL predicate, indexes disabled), which
is the equality the benchmark's speedup claim rests on.  The suite also
pins the operational contract: idempotent upserts, one-transaction
batches that roll back atomically, persistence across reopen, the
schema-version guard, and the planner actually *using* the accelerator
indexes (``EXPLAIN QUERY PLAN``, so an index regression fails a test
instead of a benchmark).
"""

import random
import sqlite3

import pytest

import repro.store.sqlite as sqlite_backend
from repro.core.convoy import Convoy
from repro.geometry.bbox import BoundingBox
from repro.store import (
    SCHEMA_VERSION,
    SQLiteConvoyStore,
    convoy_identity,
    open_store,
    rank_key,
)


def make_population(seed, n, with_boxes=True):
    """A seeded random convoy population with distinct identities."""
    rng = random.Random(seed)
    convoys, bboxes, seen = [], [], set()
    while len(convoys) < n:
        t_start = rng.randrange(0, 400)
        t_end = t_start + rng.randrange(0, 60)
        size = rng.randrange(2, 7)
        ids = rng.sample(range(100), size)
        if rng.random() < 0.3:
            ids = [f"o{i}" for i in ids]
        convoy = Convoy(ids, t_start, t_end)
        if convoy_identity(convoy) in seen:
            continue
        seen.add(convoy_identity(convoy))
        convoys.append(convoy)
        if with_boxes and rng.random() < 0.9:
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            bboxes.append(BoundingBox(x, y, x + rng.uniform(0, 80),
                                      y + rng.uniform(0, 80)))
        else:
            bboxes.append(None)
    return convoys, bboxes


def canonical(convoys):
    """The (t_start, t_end, identity) order every list query returns."""
    return sorted(convoys, key=lambda c: (c.t_start, c.t_end,
                                          convoy_identity(c)))


@pytest.fixture
def population():
    return make_population(seed=11, n=120)


@pytest.fixture
def store(tmp_path, population):
    convoys, bboxes = population
    with SQLiteConvoyStore(tmp_path / "convoys.db") as s:
        assert s.add_batch(convoys, bboxes) == len(convoys)
        yield s


class TestWrites:
    def test_add_is_idempotent(self, tmp_path):
        convoy = Convoy({"a", "b"}, 0, 4)
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            assert store.add(convoy) is True
            assert store.add(convoy) is False
            assert store.add(Convoy({"b", "a"}, 0, 4)) is False
            assert store.count() == 1

    def test_add_batch_counts_only_new_rows(self, store, population):
        convoys, bboxes = population
        assert store.add_batch(convoys, bboxes) == 0
        assert store.count() == len(convoys)

    def test_replay_does_not_overwrite_bbox(self, tmp_path):
        # First write wins: a replayed emission (same identity) must not
        # clobber the stored row, bbox included.
        convoy = Convoy({"a", "b"}, 0, 4)
        box = BoundingBox(0.0, 0.0, 2.0, 3.0)
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            store.add(convoy, box)
            store.add(convoy, BoundingBox(9.0, 9.0, 10.0, 10.0))
            assert store.bbox_of(convoy) == box

    def test_batch_rolls_back_atomically(self, tmp_path):
        store = SQLiteConvoyStore(tmp_path / "c.db")
        with pytest.raises(RuntimeError, match="boom"):
            with store.batch():
                store.add(Convoy({"a", "b"}, 0, 4))
                raise RuntimeError("boom")
        assert store.count() == 0
        with store.batch():
            store.add(Convoy({"a", "b"}, 0, 4))
            store.add(Convoy({"c", "d"}, 1, 6))
        assert store.count() == 2
        store.close()

    def test_batches_do_not_nest(self, tmp_path):
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            with store.batch():
                with pytest.raises(RuntimeError, match="nest"):
                    with store.batch():
                        pass

    def test_rejects_unencodable_member_ids(self, tmp_path):
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            with pytest.raises(TypeError, match="str or int"):
                store.add(Convoy({("tuple",), "a"}, 0, 4))
            assert store.count() == 0

    def test_batch_rejects_bool_after_equal_int(self, tmp_path):
        # Ids are encoded once per batch; True == 1 must still be
        # rejected rather than reuse the encoding of 1.
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            with pytest.raises(TypeError, match="str or int"):
                store.add_batch([Convoy({1, 2}, 0, 4),
                                 Convoy({True, 3}, 0, 4)])
            assert store.count() == 0

    def test_rolled_back_batch_leaves_no_stale_bound(self, tmp_path):
        # The abandoned batch raised max_lifetime in the writer's view
        # only; the retry must still commit it, or readers narrowing
        # by the committed bound miss the long convoy.
        long_lived = Convoy({"a", "b"}, 10, 60)
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            store.add(Convoy({"a", "b"}, 0, 2))
            with pytest.raises(RuntimeError, match="abandoned"):
                with store.batch():
                    store.add(long_lived)
                    raise RuntimeError("abandoned tick")
            assert store.add(long_lived) is True
            assert store.alive_in(55, 55) == [long_lived]
            with SQLiteConvoyStore(tmp_path / "c.db") as reader:
                assert reader.alive_in(55, 55) == [long_lived]


class TestAliveIn:
    @pytest.mark.parametrize("window", [
        (0, 500), (100, 150), (37, 37), (450, 460), (-50, -1), (0, 0),
    ])
    def test_matches_brute_force_and_forced_scan(self, store, population,
                                                 window):
        convoys, _ = population
        t1, t2 = window
        expected = canonical(
            c for c in convoys if c.t_start <= t2 and c.t_end >= t1
        )
        assert store.alive_in(t1, t2) == expected
        assert store.alive_in(t1, t2, force_scan=True) == expected

    def test_rejects_reversed_window(self, store):
        with pytest.raises(ValueError, match="reversed"):
            store.alive_in(10, 5)

    def test_empty_store_answers_empty(self, tmp_path):
        with SQLiteConvoyStore(tmp_path / "empty.db") as store:
            assert store.alive_in(0, 100) == []
            assert store.alive_in(0, 100, force_scan=True) == []

    def test_indexed_plan_uses_the_interval_index(self, store):
        plan = " ".join(
            row[3] for row in store._con.execute(
                "EXPLAIN QUERY PLAN SELECT t_start, t_end, members_json"
                " FROM convoys WHERE t_start >= ? AND t_start <= ?"
                " AND t_end >= ? ORDER BY t_start, t_end, identity",
                (0, 100, 0),
            )
        )
        assert "idx_convoys_interval" in plan
        assert "SCAN" not in plan.replace("SCAN convoys USING", "")


class TestContaining:
    def test_matches_brute_force(self, store, population):
        convoys, _ = population
        for object_id in (0, 17, "o17", 99, "o3", "missing"):
            expected = canonical(
                c for c in convoys if object_id in c.objects
            )
            assert store.containing(object_id) == expected

    def test_id_type_is_significant(self, tmp_path):
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            store.add(Convoy({5, "b"}, 0, 4))
            store.add(Convoy({"5", "c"}, 0, 4))
            assert store.containing(5) == [Convoy({5, "b"}, 0, 4)]
            assert store.containing("5") == [Convoy({"5", "c"}, 0, 4)]


class TestIntersecting:
    @pytest.mark.parametrize("box", [
        BoundingBox(0, 0, 600, 600),
        BoundingBox(200, 200, 320, 260),
        BoundingBox(0, 0, 1, 1),
        BoundingBox(900, 900, 950, 950),
    ])
    def test_matches_brute_force(self, store, population, box):
        convoys, bboxes = population
        expected = canonical(
            c for c, b in zip(convoys, bboxes)
            if b is not None
            and b.min_x <= box.max_x and b.max_x >= box.min_x
            and b.min_y <= box.max_y and b.max_y >= box.min_y
        )
        assert store.intersecting(box) == expected

    def test_boxless_store_answers_empty(self, tmp_path):
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            store.add(Convoy({"a", "b"}, 0, 4))
            assert store.intersecting(BoundingBox(0, 0, 10, 10)) == []


class TestTopK:
    @pytest.mark.parametrize("by", ["size", "duration"])
    @pytest.mark.parametrize("k", [None, 0, 1, 7, 1000])
    def test_matches_in_memory_rank(self, store, population, by, k):
        convoys, _ = population
        expected = sorted(convoys, key=lambda c: rank_key(c, by))
        if k is not None:
            expected = expected[:k]
        assert list(store.top_k(by=by, k=k)) == expected

    @pytest.mark.parametrize("by", ["size", "duration"])
    def test_alive_window_restricts_the_rank(self, store, population, by):
        convoys, _ = population
        t1, t2 = 120, 180
        expected = sorted(
            (c for c in convoys if c.t_start <= t2 and c.t_end >= t1),
            key=lambda c: rank_key(c, by),
        )
        assert list(store.top_k(by=by, alive=(t1, t2))) == expected
        assert list(store.top_k(by=by, k=3, alive=(t1, t2))) == expected[:3]

    def test_is_lazy(self, store):
        # Pulling one result must not enumerate the store: the generator
        # yields before any cursor is exhausted.
        iterator = store.top_k(by="size")
        first = next(iterator)
        assert first.size == max(c.size for c in store.all_convoys())
        iterator.close()

    def test_segment_boundaries_do_not_split_the_rank(self, tmp_path):
        # Convoys straddling many coarse segments still merge into one
        # global order (tiny segments force a genuinely k-way merge).
        convoys, bboxes = make_population(seed=5, n=60)
        with SQLiteConvoyStore(tmp_path / "c.db", segment_length=4) as s:
            s.add_batch(convoys, bboxes)
            for by in ("size", "duration"):
                expected = sorted(convoys, key=lambda c: rank_key(c, by))
                assert list(s.top_k(by=by)) == expected

    def test_rejects_unknown_dimension_and_bad_k(self, store):
        with pytest.raises(ValueError, match="'size' or 'duration'"):
            store.top_k(by="area")
        with pytest.raises(ValueError, match="k must be"):
            store.top_k(k=-1)
        with pytest.raises(ValueError, match="reversed"):
            store.top_k(alive=(10, 5))

    def test_rank_plan_uses_a_rank_index_without_sorting(self, store):
        plan = " ".join(
            row[3] for row in store._con.execute(
                "EXPLAIN QUERY PLAN SELECT size, lifetime, t_start, t_end,"
                " identity, members_json FROM convoys WHERE segment = ?"
                " ORDER BY size DESC, lifetime DESC, t_start, t_end,"
                " identity",
                (0,),
            )
        )
        assert "idx_convoys_rank_size" in plan
        assert "TEMP B-TREE" not in plan


class TestCrossConnectionReads:
    """A long-lived reader must narrow its queries by the bounds other
    connections committed, not by the bounds it saw when it opened."""

    def test_reader_sees_bounds_written_after_it_opened(self, tmp_path):
        path = tmp_path / "shared.db"
        first = Convoy(["a", "b", "c"], 0, 10)
        later = Convoy(["d", "e", "f"], 10, 60)
        with SQLiteConvoyStore(path) as writer, \
                SQLiteConvoyStore(path) as early:
            writer.add(first, BoundingBox(0.0, 0.0, 5.0, 5.0))
            assert early.count() == 1
            assert early.alive_in(5, 5) == [first]
            assert list(early.top_k(k=3)) == [first]
            assert early.intersecting(BoundingBox(4.0, 4.0, 6.0, 6.0)) == [
                first
            ]
            with SQLiteConvoyStore(path) as late:
                writer.add(later, BoundingBox(40.0, 0.0, 90.0, 5.0))
                for reader in (early, late):
                    assert reader.alive_in(55, 55) == [later]
                    assert list(reader.top_k(by="duration", k=1)) == [later]
                    assert list(reader.top_k(alive=(55, 60))) == [later]
                    assert reader.intersecting(
                        BoundingBox(85.0, 0.0, 86.0, 1.0)
                    ) == [later]

    def test_width_bound_never_reads_below_the_stored_width(self, tmp_path):
        # SQLite parses this width's repr text one ulp low; a query box
        # touching the stored box's right edge must still find it.
        width = 1980.787984371476
        convoy = Convoy({"a", "b"}, 0, 2)
        with SQLiteConvoyStore(tmp_path / "c.db") as store:
            store.add(convoy, BoundingBox(0.0, 0.0, width, 1.0))
            touching = BoundingBox(width, 0.0, width + 1.0, 1.0)
            assert store.intersecting(touching) == [convoy]

    def test_reader_plans_stay_on_the_indexes(self, store):
        """The bounds subqueries keep the range scans index-served."""
        for sql, index in (
            (f"SELECT 1 FROM convoys WHERE t_start >= ? - "
             f"{sqlite_backend._meta_bound('max_lifetime')} + 1"
             " AND t_start <= ? AND t_end >= ?", "idx_convoys_interval"),
            (f"SELECT 1 FROM convoys WHERE min_x >= ? - "
             f"{sqlite_backend._meta_bound('max_width', 'REAL')}"
             " AND min_x <= ?", "idx_convoys_bbox"),
        ):
            plan = " ".join(
                row[3] for row in store._con.execute(
                    "EXPLAIN QUERY PLAN " + sql, (0,) * sql.count("?")
                )
            )
            assert "SEARCH convoys USING" in plan and index in plan


class TestWholeStoreViews:
    def test_all_convoys_is_canonical_order(self, store, population):
        convoys, _ = population
        assert store.all_convoys() == canonical(convoys)

    def test_count(self, store, population):
        assert store.count() == len(population[0])

    def test_bbox_of(self, store, population):
        convoys, bboxes = population
        for convoy, box in zip(convoys, bboxes):
            assert store.bbox_of(convoy) == box
        assert store.bbox_of(Convoy({"nope"}, 0, 1)) is None


class TestLifecycle:
    def test_reopen_preserves_everything(self, tmp_path, population):
        convoys, bboxes = population
        path = tmp_path / "persist.db"
        with SQLiteConvoyStore(path, segment_length=16) as store:
            store.add_batch(convoys, bboxes)
        with open_store(path) as store:
            assert store.segment_length == 16  # stored value wins
            assert store.all_convoys() == canonical(convoys)
            assert store.add_batch(convoys, bboxes) == 0
            for by in ("size", "duration"):
                assert list(store.top_k(by=by)) == sorted(
                    convoys, key=lambda c: rank_key(c, by)
                )

    def test_schema_version_guard(self, tmp_path):
        path = tmp_path / "future.db"
        with SQLiteConvoyStore(path) as store:
            store._con.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        with pytest.raises(ValueError, match="schema version"):
            SQLiteConvoyStore(path)

    def test_foreign_files_are_refused_untouched(self, tmp_path):
        foreign = tmp_path / "other.db"
        con = sqlite3.connect(foreign)
        con.execute("CREATE TABLE notes (body TEXT)")
        con.execute("INSERT INTO notes VALUES ('keep me')")
        con.commit()

        def state():
            return (
                con.execute("SELECT * FROM sqlite_master").fetchall(),
                con.execute("PRAGMA journal_mode").fetchone(),
            )

        before = state()
        assert before[1] == ("delete",)
        with pytest.raises(ValueError, match="not a convoy store"):
            SQLiteConvoyStore(foreign)
        assert state() == before
        con.close()

        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"not a convoy store\n" * 64)
        with pytest.raises(ValueError, match="garbage.db.*file is not a "
                           "database"):
            SQLiteConvoyStore(garbage)
        assert garbage.read_bytes() == b"not a convoy store\n" * 64

    def test_closed_store_raises(self, tmp_path):
        store = SQLiteConvoyStore(tmp_path / "c.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            store.count()
        with pytest.raises(RuntimeError, match="closed"):
            store.add(Convoy({"a", "b"}, 0, 4))

    def test_rejects_bad_segment_length(self, tmp_path):
        with pytest.raises(ValueError, match="segment_length"):
            SQLiteConvoyStore(tmp_path / "c.db", segment_length=0)

    def test_memory_store_works(self):
        with SQLiteConvoyStore(":memory:") as store:
            store.add(Convoy({"a", "b"}, 0, 4))
            assert store.count() == 1
