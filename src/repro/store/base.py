"""The convoy store's canonical encodings.

Mined convoys used to exist only as an in-memory list: nothing survived
the process, and "which convoys were alive in ``[t1, t2]``?" was a full
scan.  :class:`~repro.store.sqlite.SQLiteConvoyStore` persists every
closed :class:`~repro.core.convoy.Convoy` and answers the time-window,
membership, spatial, and top-k questions a serving layer needs — from
indexes, not scans.  This module holds what crosses its storage
boundary.

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
    exact order the store's ``top_k`` streams in, so ranked enumeration
    is comparable against an in-memory sort in the differential suite.
    """
    if by not in TOP_K_KEYS:
        raise ValueError(f"top_k ranks by one of {TOP_K_KEYS}, got {by!r}")
    if by == "size":
        primary = (-convoy.size, -convoy.lifetime)
    else:
        primary = (-convoy.lifetime, -convoy.size)
    return primary + (convoy.t_start, convoy.t_end, convoy_identity(convoy))


def row_to_convoy(t_start, t_end, members_json):
    """Rebuild a :class:`~repro.core.convoy.Convoy` from stored fields.

    ``members_json`` is the JSON-array text of :func:`encode_members` —
    the store keeps it alongside the per-member index rows so read-back
    needs no join.
    """
    return Convoy(json.loads(members_json), t_start, t_end)
