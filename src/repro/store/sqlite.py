"""SQLite backend of the :class:`~repro.store.base.ConvoyStore` interface.

Storage shape (the accelerator-table pattern: interval answers live in
indexed columns next to the payload, so every query is an index range
walk, never a scan):

::

    convoys                                convoy_members
    ---------------------------------      -----------------------
    convoy_id   INTEGER PRIMARY KEY        object_id  TEXT
    identity    TEXT UNIQUE  <- upsert     convoy_id  INTEGER
    t_start     INTEGER  \\                 PRIMARY KEY (object_id,
    t_end       INTEGER   } interval                    convoy_id)
    segment     INTEGER  /  accelerator
    size        INTEGER  \\  rank
    lifetime    INTEGER  /  accelerator
    members_json TEXT    <- read-back payload (no join needed)
    min_x/min_y/max_x/max_y REAL  <- bbox accelerator (nullable)

    store_meta: schema_version, segment_length, and the transactional
    aggregate bounds (max_lifetime, max_width, max_height, min_t, max_t)
    the query planner's narrowing tricks rely on.

Why the queries are index-served:

* **alive_in(t1, t2)** — interval intersection (``t_start <= t2 AND
  t_end >= t1``) cannot be answered by one B-tree range alone, but the
  store knows the longest lifetime it ever stored (``max_lifetime``,
  maintained in the same transaction as every insert), so any convoy
  alive at ``t1`` must have ``t_start > t1 - max_lifetime``.  Adding
  that bound turns the predicate into a *two-sided* range on the
  ``(t_start, t_end, identity)`` index — the classic bounded-extent
  interval trick.  The same trick bounds ``intersecting(bbox)`` along x
  via ``max_width``.
* **top_k(by=size|duration)** — rows carry a coarse time ``segment``
  (``t_start // segment_length``) and two per-segment rank indexes
  (``(segment, size DESC, ...)`` / ``(segment, lifetime DESC, ...)``).
  ``top_k`` opens one sorted cursor per candidate segment and lazily
  **heap-merges** them (ranked enumeration): each ``next()`` pops one
  heap root and advances one cursor, so the k-th result is produced
  after O((#segments + k) log #segments) work and *nothing* is ever
  materialized or sorted wholesale.  A time-window restriction simply
  drops the non-overlapping segments before the merge starts.

Durability: the database runs in WAL mode with ``synchronous=NORMAL``
— every committed tick batch survives a killed process (WAL replay on
reopen); a crash mid-commit rolls back to the previous tick boundary,
and the identity upsert makes replaying the stream from the start
converge on exactly the same rows.  One writer at a time is assumed
(WAL readers are concurrent); multi-writer coordination is the
PostgreSQL backend's job.
"""

from __future__ import annotations

import heapq
import operator
import os
import sqlite3
from itertools import chain, repeat

from repro.geometry.bbox import BoundingBox
from repro.store.base import (
    ConvoyStore,
    convoy_identity,
    encode_object_id,
    rank_key,
    row_to_convoy,
)

SCHEMA_VERSION = 1

#: Default coarse-segment width (time points) for the top-k rank indexes.
DEFAULT_SEGMENT_LENGTH = 64

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS convoys (
    convoy_id    INTEGER PRIMARY KEY,
    identity     TEXT NOT NULL UNIQUE,
    t_start      INTEGER NOT NULL,
    t_end        INTEGER NOT NULL,
    segment      INTEGER NOT NULL,
    size         INTEGER NOT NULL,
    lifetime     INTEGER NOT NULL,
    members_json TEXT NOT NULL,
    min_x REAL, min_y REAL, max_x REAL, max_y REAL
);
CREATE INDEX IF NOT EXISTS idx_convoys_interval
    ON convoys (t_start, t_end, identity);
CREATE INDEX IF NOT EXISTS idx_convoys_rank_size
    ON convoys (segment, size DESC, lifetime DESC, t_start, t_end, identity);
CREATE INDEX IF NOT EXISTS idx_convoys_rank_duration
    ON convoys (segment, lifetime DESC, size DESC, t_start, t_end, identity);
CREATE INDEX IF NOT EXISTS idx_convoys_bbox
    ON convoys (min_x);
CREATE TABLE IF NOT EXISTS convoy_members (
    object_id TEXT NOT NULL,
    convoy_id INTEGER NOT NULL REFERENCES convoys(convoy_id)
        ON DELETE CASCADE,
    PRIMARY KEY (object_id, convoy_id)
) WITHOUT ROWID;
"""

_ROW_FIELDS = "t_start, t_end, members_json"

#: Member rows per multi-row INSERT.  One statement carrying many rows
#: costs about a third less per row than ``executemany``, whose per-row
#: bind and step round trip dominates a two-column row; 2 × 250
#: parameters stay under the 999 that older SQLite builds allow.
_MEMBER_ROWS_PER_INSERT = 250

#: Id types whose encodings a batch may reuse by equality: exactly
#: ``str`` and ``int`` (``True == 1``, so a bool must never hit a cached
#: int; subclasses and rejected types take the uncached path).
_PLAIN_ID_TYPES = frozenset((str, int))


#: Relative widening of a REAL bound read in SQL.  The bounds are stored
#: as Python ``repr`` text, and SQLite's text-to-REAL conversion can land
#: one ulp below the float that text was written from (about 1 value in
#: 10^4).  A narrowing bound may only err wide, so a REAL bound is read
#: times 1 + 2**-40, far above those ulps and far below any real extent.
_REAL_BOUND_SLACK = 1 + 2**-40


def _meta_bound(key, kind="INTEGER"):
    """A scalar subquery reading one aggregate bound from ``store_meta``.

    Readers evaluate the bounds inside the statement that reads the
    rows, so a store opened before another connection's writes still
    narrows by the bounds those writes committed (NULL on a store that
    never stored the bound, which matches no row).  A ``REAL`` bound is
    widened by :data:`_REAL_BOUND_SLACK`.
    """
    bound = (
        f"(SELECT CAST(value AS {kind}) FROM store_meta WHERE key = '{key}')"
    )
    if kind == "REAL":
        return f"({bound} * {_REAL_BOUND_SLACK!r})"
    return bound


class SQLiteConvoyStore(ConvoyStore):
    """A :class:`~repro.store.base.ConvoyStore` over one SQLite file.

    Args:
        path: database file path (created on first open), or
            ``":memory:"`` for an ephemeral store (tests; WAL does not
            apply there).
        segment_length: coarse-segment width for the top-k rank indexes,
            in time points.  Fixed at database creation; reopening an
            existing store keeps its stored value and ignores this
            argument.
    """

    def __init__(self, path, segment_length=DEFAULT_SEGMENT_LENGTH):
        if segment_length < 1:
            raise ValueError(
                f"segment_length must be >= 1, got {segment_length}"
            )
        self.path = os.fspath(path) if not isinstance(path, str) else path
        # Explicit transaction control: the connection stays in
        # autocommit and every write path wraps itself in BEGIN/COMMIT,
        # so a tick batch is exactly one WAL commit.
        # check_same_thread=False: callers may open a store on one
        # thread and step it from another (the ingestion service runs
        # miner steps on a worker pool).  Access is still serialized —
        # every user of a store (sink, session, CLI) runs one operation
        # at a time — and the sqlite3 module itself is compiled
        # thread-safe, so only the same-thread *handoff* is relaxed.
        self._con = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=False
        )
        self._con.execute("PRAGMA foreign_keys = ON")
        if self.path != ":memory:":
            self._con.execute("PRAGMA journal_mode = WAL")
            # NORMAL loses at most OS-buffer durability on *power* loss;
            # a killed process never loses a committed transaction, and
            # consistency is unconditional.
            self._con.execute("PRAGMA synchronous = NORMAL")
            self._con.execute("PRAGMA busy_timeout = 10000")
        self._closed = False
        self._in_batch = False
        self._con.executescript(_SCHEMA)
        self._meta = self._read_meta()
        version = int(self._meta.get("schema_version", SCHEMA_VERSION))
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"convoy store {self.path!r} has schema version {version}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        if "schema_version" not in self._meta:
            self._write_meta(
                schema_version=SCHEMA_VERSION,
                segment_length=int(segment_length),
            )
        self.segment_length = int(self._meta["segment_length"])

    # -- metadata ----------------------------------------------------

    def _read_meta(self):
        return dict(self._con.execute("SELECT key, value FROM store_meta"))

    def _roll_back(self):
        """ROLLBACK the open transaction, and with it the bounds it
        wrote: the cached meta must match what is committed, or a
        retried batch would skip widening a bound that never landed."""
        self._con.execute("ROLLBACK")
        self._meta = self._read_meta()

    def _write_meta(self, **updates):
        """Upsert meta keys (inside the caller's transaction, if any)."""
        rows = [(key, str(value)) for key, value in updates.items()]
        self._con.executemany(
            "INSERT INTO store_meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            rows,
        )
        self._meta.update(rows)

    def _meta_number(self, key, parse):
        raw = self._meta.get(key)
        return None if raw is None else parse(raw)

    # -- writing -----------------------------------------------------

    def add(self, convoy, bbox=None):
        return self.add_batch([convoy], [bbox]) == 1

    def add_batch(self, convoys, bboxes=None):
        self._check_open()
        if bboxes is None:
            pairs = [(convoy, None) for convoy in convoys]
        else:
            pairs = list(zip(convoys, bboxes))
        if not pairs:
            return 0
        if self._in_batch:
            return self._insert(pairs)
        self._con.execute("BEGIN IMMEDIATE")
        try:
            stored = self._insert(pairs)
        except BaseException:
            self._roll_back()
            raise
        self._con.execute("COMMIT")
        return stored

    def batch(self):
        """Context manager grouping many :meth:`add` calls into one
        transaction (the write-through sink's per-tick commit unit)."""
        return _Batch(self)

    def _insert(self, pairs):
        """Insert ``(convoy, bbox)`` pairs; returns how many were new.

        Convoys closing in one tick share most of their members, so
        each distinct id is encoded once per call; the member rows of
        every new convoy go in through multi-row INSERTs, and the
        aggregate bounds widen once for the whole call.
        """
        encoded = {}  # plain str/int id -> its encoding
        member_rows = []
        stored = []
        execute = self._con.execute
        for convoy, bbox in pairs:
            objects = convoy.objects
            if _PLAIN_ID_TYPES.issuperset(map(type, objects)):
                for object_id in objects:
                    if object_id not in encoded:
                        encoded[object_id] = encode_object_id(object_id)
                texts = sorted(map(encoded.__getitem__, objects))
            else:
                # Subclasses encode uncached; rejected types raise here.
                texts = sorted(map(encode_object_id, objects))
            # The identity and payload texts of convoy_identity /
            # encode_members, from one encoding pass.
            members_json = "[" + ",".join(texts) + "]"
            identity = f"{convoy.t_start}:{convoy.t_end}:{members_json}"
            if bbox is None:
                box_cols = (None, None, None, None)
            else:
                box_cols = (bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y)
            cursor = execute(
                "INSERT INTO convoys (identity, t_start, t_end, segment, size,"
                " lifetime, members_json, min_x, min_y, max_x, max_y)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(identity) DO NOTHING",
                (identity, convoy.t_start, convoy.t_end,
                 convoy.t_start // self.segment_length, convoy.size,
                 convoy.lifetime, members_json, *box_cols),
            )
            if cursor.rowcount != 1:
                continue  # identity already stored: the idempotent path
            member_rows += zip(texts, repeat(cursor.lastrowid))
            stored.append((convoy, bbox))
        for lo in range(0, len(member_rows), _MEMBER_ROWS_PER_INSERT):
            chunk = member_rows[lo:lo + _MEMBER_ROWS_PER_INSERT]
            execute(
                "INSERT OR IGNORE INTO convoy_members (object_id, convoy_id)"
                " VALUES " + ", ".join(["(?, ?)"] * len(chunk)),
                list(chain.from_iterable(chunk)),
            )
        if stored:
            self._bump_bounds(stored)
        return len(stored)

    def _bump_bounds(self, stored):
        """Maintain the aggregate bounds the narrowing tricks rely on
        (same transaction as the insert, so they are never stale)."""
        updates = {}

        def widen(key, value, parse, wider):
            current = self._meta_number(key, parse)
            if current is None or wider(value, current):
                updates[key] = value

        widen("max_lifetime", max(c.lifetime for c, _ in stored), int,
              operator.gt)
        widen("min_t", min(c.t_start for c, _ in stored), int, operator.lt)
        widen("max_t", max(c.t_end for c, _ in stored), int, operator.gt)
        boxes = [bbox for _, bbox in stored if bbox is not None]
        if boxes:
            widen("max_width", max(b.width for b in boxes), float,
                  operator.gt)
            widen("max_height", max(b.height for b in boxes), float,
                  operator.gt)
        if updates:
            self._write_meta(**updates)

    # -- reading -----------------------------------------------------

    def alive_in(self, t1, t2, force_scan=False):
        """Convoys whose closed interval intersects ``[t1, t2]``.

        ``force_scan=True`` bypasses every index (``NOT INDEXED`` +
        external sort) — the benchmark's honest full-scan baseline, kept
        on the query itself so both plans answer literally the same SQL
        predicate.
        """
        self._check_open()
        if t2 < t1:
            raise ValueError(f"alive_in window reversed: [{t1}, {t2}]")
        if force_scan:
            rows = self._con.execute(
                f"SELECT {_ROW_FIELDS} FROM convoys NOT INDEXED"
                " WHERE t_end >= ? AND t_start <= ?"
                " ORDER BY t_start, t_end, identity",
                (t1, t2),
            )
            return [row_to_convoy(*row) for row in rows]
        # Bounded-extent narrowing: alive at t1 implies
        # t_start > t1 - max_lifetime, so the predicate is a two-sided
        # range on the (t_start, t_end, identity) index.
        rows = self._con.execute(
            f"SELECT {_ROW_FIELDS} FROM convoys"
            f" WHERE t_start >= ? - {_meta_bound('max_lifetime')} + 1"
            " AND t_start <= ? AND t_end >= ?"
            " ORDER BY t_start, t_end, identity",
            (t1, t2, t1),
        )
        return [row_to_convoy(*row) for row in rows]

    def containing(self, object_id):
        self._check_open()
        rows = self._con.execute(
            f"SELECT c.{_ROW_FIELDS.replace(', ', ', c.')}"
            " FROM convoy_members m"
            " JOIN convoys c ON c.convoy_id = m.convoy_id"
            " WHERE m.object_id = ?"
            " ORDER BY c.t_start, c.t_end, c.identity",
            (encode_object_id(object_id),),
        )
        return [row_to_convoy(*row) for row in rows]

    def intersecting(self, bbox):
        self._check_open()
        # Same bounded-extent trick along x: an intersecting box has
        # min_x <= query.max_x and min_x >= query.min_x - max_width,
        # served by the (min_x) index; y and the exact x overlap are
        # residual filters.  No box ever stored: max_width is NULL.
        rows = self._con.execute(
            f"SELECT {_ROW_FIELDS} FROM convoys"
            " WHERE min_x IS NOT NULL"
            f" AND min_x >= ? - {_meta_bound('max_width', 'REAL')}"
            " AND min_x <= ?"
            " AND max_x >= ? AND min_y <= ? AND max_y >= ?"
            " ORDER BY t_start, t_end, identity",
            (bbox.min_x, bbox.max_x, bbox.min_x, bbox.max_y, bbox.min_y),
        )
        return [row_to_convoy(*row) for row in rows]

    def top_k(self, by="size", k=None, alive=None):
        """Lazily enumerate the k highest-ranked convoys (ranked-
        enumeration heap merge over the per-segment rank indexes; see
        the module docstring).  ``k=None`` streams the full ranking."""
        self._check_open()
        if by == "size":
            order = "size DESC, lifetime DESC, t_start, t_end, identity"
        elif by == "duration":
            order = "lifetime DESC, size DESC, t_start, t_end, identity"
        else:
            raise ValueError(
                f"top_k ranks by 'size' or 'duration', got {by!r}"
            )
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0 or None, got {k}")
        # The segment range needs the bounds before any cursor opens, so
        # they are read fresh here (writes by other connections count);
        # the alive filter still reads max_lifetime inside its own rows'
        # statement.
        min_t, max_t, max_lifetime = self._con.execute(
            f"SELECT {_meta_bound('min_t')}, {_meta_bound('max_t')},"
            f" {_meta_bound('max_lifetime')}"
        ).fetchone()
        if min_t is None or k == 0:
            return iter(())
        where = ""
        params = ()
        lo_t, hi_t = min_t, max_t
        if alive is not None:
            t1, t2 = alive
            if t2 < t1:
                raise ValueError(f"alive window reversed: [{t1}, {t2}]")
            where = (
                f" AND t_start >= ? - {_meta_bound('max_lifetime')} + 1"
                " AND t_start <= ? AND t_end >= ?"
            )
            params = (t1, t2, t1)
            lo_t = max(lo_t, t1 - max_lifetime + 1)
            hi_t = min(hi_t, t2)
            if hi_t < lo_t:
                return iter(())
        segments = range(lo_t // self.segment_length,
                         hi_t // self.segment_length + 1)
        return self._merge_segments(segments, order, where, params, by, k)

    def _merge_segments(self, segments, order, where, params, by, k):
        """The lazy k-way merge: one sorted index cursor per segment,
        one heap pop (plus one cursor advance) per yielded convoy."""
        cursors = []
        try:
            heap = []
            for seg_pos, segment in enumerate(segments):
                cursor = self._con.execute(
                    "SELECT size, lifetime, t_start, t_end, identity,"
                    " members_json FROM convoys"
                    f" WHERE segment = ?{where} ORDER BY {order}",
                    (segment, *params),
                )
                cursors.append(cursor)
                row = cursor.fetchone()
                if row is not None:
                    heap.append((self._merge_key(row, by), seg_pos, row))
            heapq.heapify(heap)
            yielded = 0
            while heap and (k is None or yielded < k):
                _key, seg_pos, row = heap[0]
                convoy = row_to_convoy(row[2], row[3], row[5])
                next_row = cursors[seg_pos].fetchone()
                if next_row is None:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(
                        heap,
                        (self._merge_key(next_row, by), seg_pos, next_row),
                    )
                yield convoy
                yielded += 1
        finally:
            for cursor in cursors:
                cursor.close()

    @staticmethod
    def _merge_key(row, by):
        """The heap ordering key — precisely
        :func:`~repro.store.base.rank_key` built from row fields."""
        size, lifetime, t_start, t_end, identity, _members = row
        if by == "size":
            return (-size, -lifetime, t_start, t_end, identity)
        return (-lifetime, -size, t_start, t_end, identity)

    def all_convoys(self):
        self._check_open()
        rows = self._con.execute(
            f"SELECT {_ROW_FIELDS} FROM convoys"
            " ORDER BY t_start, t_end, identity"
        )
        return [row_to_convoy(*row) for row in rows]

    def count(self):
        self._check_open()
        (n,) = self._con.execute("SELECT COUNT(*) FROM convoys").fetchone()
        return n

    def bbox_of(self, convoy):
        self._check_open()
        row = self._con.execute(
            "SELECT min_x, min_y, max_x, max_y FROM convoys"
            " WHERE identity = ?",
            (convoy_identity(convoy),),
        ).fetchone()
        if row is None or row[0] is None:
            return None
        return BoundingBox(*row)

    # -- lifecycle ---------------------------------------------------

    def rollback(self):
        """Abandon any open explicit transaction (idempotent; safe on a
        closed store).  Covers the error paths the happy-path writers
        cannot: a :meth:`batch` abandoned without ``__exit__``, or a
        caller unwinding past a raised commit — either would otherwise
        leave the WAL transaction open, blocking every later writer
        until the connection died."""
        if self._closed:
            return
        self._in_batch = False
        if self._con.in_transaction:
            self._roll_back()

    def close(self):
        if not self._closed:
            # Never leave a WAL transaction dangling: anything still
            # open at close time is an abandoned error-path batch.
            self.rollback()
            self._closed = True
            self._con.close()

    def _check_open(self):
        if self._closed:
            raise RuntimeError(f"convoy store {self.path!r} is closed")


class _Batch:
    """One explicit transaction around many :meth:`add` calls."""

    def __init__(self, store):
        self._store = store

    def __enter__(self):
        store = self._store
        store._check_open()
        if store._in_batch:
            raise RuntimeError("convoy store batches do not nest")
        store._con.execute("BEGIN IMMEDIATE")
        store._in_batch = True
        return store

    def __exit__(self, exc_type, exc_value, traceback):
        store = self._store
        store._in_batch = False
        if exc_type is None:
            store._con.execute("COMMIT")
        else:
            store._roll_back()
        return False


def open_store(path, **kwargs):
    """Open (creating if needed) the SQLite convoy store at ``path``.

    The seam a PostgreSQL backend plugs into later: callers that accept
    a *path or store* (the miner, the CLI) funnel through here, so a
    connection-URL dispatch lands in exactly one place.
    """
    return SQLiteConvoyStore(path, **kwargs)


# Re-exported for callers that already hold a rank ordering and want to
# verify it (the differential suite does).
__all__ = [
    "DEFAULT_SEGMENT_LENGTH",
    "SCHEMA_VERSION",
    "SQLiteConvoyStore",
    "open_store",
    "rank_key",
]
