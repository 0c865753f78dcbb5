"""Persistent convoy storage with indexed time-window queries.

Mined convoys stop being an in-memory list here:
:class:`~repro.store.sqlite.SQLiteConvoyStore` persists every closed
convoy into an interval-indexed accelerator table and answers the
questions a serving layer needs from indexes instead of scans —

* :meth:`~repro.store.sqlite.SQLiteConvoyStore.alive_in` — which convoys
  were alive in ``[t1, t2]`` (bounded-extent interval narrowing);
* :meth:`~repro.store.sqlite.SQLiteConvoyStore.containing` — which
  convoys an object belongs to (membership index);
* :meth:`~repro.store.sqlite.SQLiteConvoyStore.intersecting` — which
  convoys' bounding boxes intersect a query box;
* :meth:`~repro.store.sqlite.SQLiteConvoyStore.top_k` — the k largest /
  longest-lived convoys, enumerated lazily by a ranked-enumeration
  heap merge over per-segment rank indexes (no materialize-then-sort).

The streaming engine writes through as it mines
(``StreamingConvoyMiner(store=...)`` → :class:`~repro.store.sink.StoreSink`:
one transaction per tick, WAL-crash-safe, idempotent on convoy identity
so a restarted stream resumes without duplicates), and the ``query``
CLI subcommand serves the stored answers back.
"""

from repro.store.base import (
    TOP_K_KEYS,
    convoy_identity,
    decode_object_id,
    encode_members,
    encode_object_id,
    rank_key,
)
from repro.store.sink import StoreSink
from repro.store.sqlite import (
    DEFAULT_SEGMENT_LENGTH,
    SCHEMA_VERSION,
    SQLiteConvoyStore,
    open_store,
)

__all__ = [
    "DEFAULT_SEGMENT_LENGTH",
    "SCHEMA_VERSION",
    "TOP_K_KEYS",
    "StoreSink",
    "SQLiteConvoyStore",
    "convoy_identity",
    "decode_object_id",
    "encode_members",
    "encode_object_id",
    "open_store",
    "rank_key",
]
