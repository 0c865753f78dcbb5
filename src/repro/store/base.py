"""The pluggable convoy-store interface and its canonical encodings.

Mined convoys used to exist only as an in-memory list: nothing survived
the process, and "which convoys were alive in ``[t1, t2]``?" was a full
scan.  A :class:`ConvoyStore` persists every closed
:class:`~repro.core.convoy.Convoy` and answers the time-window,
membership, spatial, and top-k questions a serving layer needs — from
indexes, not scans.

The interface is deliberately **PostgreSQL-shaped**: every method maps
onto plain relational operations (two tables, B-tree indexes, one
metadata map, ``INSERT ... ON CONFLICT DO NOTHING``), so a PostgreSQL
backend is a dialect port of :class:`~repro.store.sqlite.SQLiteConvoyStore`,
not a redesign.  Nothing in the contract leans on SQLite-only features.

Canonical encodings
-------------------

Object ids cross the storage boundary, and the differential proof
requires the read-back convoys to be *bit for bit* the mined ones — the
id's Python type included.  :func:`encode_object_id` therefore maps ids
through JSON (``5`` and ``"5"`` stay distinct) and rejects types JSON
cannot round-trip exactly, instead of silently stringifying them.

A convoy's *identity* — the idempotent-upsert key that makes a restarted
stream resume without duplicates — is the canonical text of everything a
:class:`~repro.core.convoy.Convoy` compares by: interval plus the sorted
encoded member ids.  Two emissions of the same convoy (a crash-replayed
prefix, a re-fed tick) collide on it and collapse to one stored row.
"""

from __future__ import annotations

import json

from repro.core.convoy import Convoy

#: Ranking dimensions ``top_k`` accepts.
TOP_K_KEYS = ("size", "duration")


def check_object_id(object_id):
    """Reject an object id that :func:`encode_object_id` cannot encode.

    Only types JSON round-trips exactly are accepted (``str`` and
    ``int`` — what the CSV loader and the synthetic sources produce);
    anything else raises ``TypeError`` so a lossy stringification can
    never masquerade as persistence.
    """
    if isinstance(object_id, bool) or not isinstance(object_id, (str, int)):
        raise TypeError(
            "convoy store object ids must be str or int (JSON round-trips "
            f"them exactly), got {type(object_id).__name__}: {object_id!r}"
        )


def encode_object_id(object_id):
    """Encode one object id as canonical text, preserving its type
    (ids :func:`check_object_id` rejects raise ``TypeError``)."""
    check_object_id(object_id)
    return json.dumps(object_id)


def decode_object_id(text):
    """Invert :func:`encode_object_id`."""
    return json.loads(text)


def encode_members(objects):
    """The member set as one canonical JSON-array text.

    Elements are the :func:`encode_object_id` encodings in sorted order,
    so the text is deterministic, unambiguous (encoded ids may themselves
    contain commas), and decodes with one ``json.loads``.
    """
    return "[" + ",".join(sorted(encode_object_id(o) for o in objects)) + "]"


def convoy_identity(convoy):
    """The convoy's canonical identity text (the idempotent-upsert key).

    Deterministic in everything :class:`~repro.core.convoy.Convoy`
    compares by: the closed interval and the member set.  Member ids are
    sorted by their *encoded* text so mixed ``str``/``int`` id sets
    still order deterministically.
    """
    return f"{convoy.t_start}:{convoy.t_end}:{encode_members(convoy.objects)}"


def rank_key(convoy, by):
    """The deterministic ``top_k`` ordering key (ascending sort).

    Primary dimension descending (``size`` ties broken by duration and
    vice versa), then the canonical interval/identity ascending — the
    exact order every backend's ``top_k`` must stream in, so ranked
    enumeration is comparable across backends and against an in-memory
    sort in the differential suite.
    """
    if by not in TOP_K_KEYS:
        raise ValueError(f"top_k ranks by one of {TOP_K_KEYS}, got {by!r}")
    if by == "size":
        primary = (-convoy.size, -convoy.lifetime)
    else:
        primary = (-convoy.lifetime, -convoy.size)
    return primary + (convoy.t_start, convoy.t_end, convoy_identity(convoy))


class ConvoyStore:
    """Abstract persistent store of mined convoys.

    Writing:

    * :meth:`add` — persist one convoy (idempotent on its identity);
    * :meth:`add_batch` — persist many in one transaction (the
      write-through sink calls this once per tick, so a crash leaves a
      clean tick-prefix of the stream);

    Reading (all from indexes, never a scan):

    * :meth:`alive_in` — convoys whose closed interval intersects
      ``[t1, t2]``;
    * :meth:`containing` — convoys a given object is a member of;
    * :meth:`intersecting` — convoys whose bounding box intersects a
      query :class:`~repro.geometry.bbox.BoundingBox`;
    * :meth:`top_k` — lazily enumerate the k highest-ranked convoys by
      size or duration (ranked-enumeration heap merge: results stream
      without materializing the full sort);
    * :meth:`all_convoys`, :meth:`count` — whole-store views for
      verification and monitoring.

    List-returning queries yield :class:`~repro.core.convoy.Convoy` in
    the canonical ``(t_start, t_end, identity)`` order; ``top_k`` yields
    in :func:`rank_key` order.
    """

    def add(self, convoy, bbox=None):
        """Persist one convoy; return True if newly stored, False if its
        identity was already present (the idempotent replay path)."""
        raise NotImplementedError

    def add_batch(self, convoys, bboxes=None):
        """Persist many convoys in one transaction; return the number
        newly stored.  ``bboxes``, when given, is a parallel iterable of
        per-convoy :class:`~repro.geometry.bbox.BoundingBox` (or None)."""
        raise NotImplementedError

    def alive_in(self, t1, t2):
        """Convoys whose interval intersects the closed ``[t1, t2]``."""
        raise NotImplementedError

    def containing(self, object_id):
        """Convoys that ``object_id`` is a member of."""
        raise NotImplementedError

    def intersecting(self, bbox):
        """Convoys whose stored bounding box intersects ``bbox``
        (convoys stored without a box never match)."""
        raise NotImplementedError

    def top_k(self, by="size", k=None, alive=None):
        """Lazily yield the top-``k`` convoys by ``by`` (``k=None``
        enumerates all), optionally restricted to those alive in the
        closed window ``alive=(t1, t2)``."""
        raise NotImplementedError

    def all_convoys(self):
        """Every stored convoy, in canonical order."""
        raise NotImplementedError

    def count(self):
        """Number of stored convoys (O(1)-ish; for monitoring)."""
        raise NotImplementedError

    def bbox_of(self, convoy):
        """The stored bounding box of ``convoy`` (None when it was
        stored without one, or is not stored at all)."""
        raise NotImplementedError

    def rollback(self):
        """Abandon any open explicit transaction (idempotent; a no-op
        when nothing is open or the store is closed).  The error-path
        escape hatch: a failed mid-tick commit must never leave the
        backend's transaction dangling.  Backends without explicit
        transactions may keep the default no-op."""
        return None

    def close(self):
        """Release the backend's resources (idempotent), rolling back
        any transaction still open."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False


def row_to_convoy(t_start, t_end, members_json):
    """Rebuild a :class:`~repro.core.convoy.Convoy` from stored fields.

    ``members_json`` is the JSON-array text of :func:`encode_members` —
    backends store it alongside the per-member index rows so read-back
    needs no join.
    """
    return Convoy(json.loads(members_json), t_start, t_end)
