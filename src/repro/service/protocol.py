"""The newline-delimited-JSON ingestion protocol.

One JSON object per line, UTF-8, ``\\n``-terminated — the same framing
``stream --json`` readers already speak, applied to a live socket.  The
client drives; every server line is a reaction to client input.

Client -> server
----------------

* ``{"type": "hello", "tenant": T, "config": {...}}`` — open tenant
  ``T``'s session.  ``config`` holds the
  :class:`~repro.streaming.engine.StreamingConvoyMiner` keyword
  arguments that are JSON-representable (``m``, ``k``, ``eps``,
  ``paper_semantics``, ``window``, ``clusterer`` as ``"full"`` /
  ``"incremental"``, ``reorder`` as the buffer's kwargs dict,
  ``shards``, ``executor``, ``resident``, ``backend``, and ``store`` as
  a server-side SQLite path) plus two service-level knobs: ``max_queue``
  (this tenant's ingestion high-water mark) and ``tick_delay`` (seconds
  slept per tick inside the worker step — a load-shaping knob for
  benchmarks and tests).
* ``{"type": "feed", "tenant": T, "ticks": [[t, snapshot], ...]}`` — a
  batch of snapshots.  Each snapshot is a list of ``[object_id, x, y]``
  triples: a *list*, not an object, because JSON object keys are always
  strings and the differential proof needs integer object ids to
  round-trip as integers.
* ``{"type": "drain", "tenant": T}`` — force the tenant's reorder
  buffer to release everything pending *now* (the idle-drain seam for
  capacity-only buffers on quiescent feeds); a no-op without a buffer.
* ``{"type": "flush", "tenant": T}`` — end of feed: flush the miner,
  close the session, answer with ``flushed``.
* ``{"type": "bye"}`` — close the connection (sessions still open are
  closed *without* flushing, committing completed ticks only).

Server -> client
----------------

* ``{"type": "ready", "tenant": T}`` — session open.
* ``{"type": "closed", "tenant": T, "t": t, "convoys": [...]}`` — the
  step at time ``t`` closed these convoys (sent only when non-empty).
* ``{"type": "flushed", "tenant": T, "convoys": [...], "counters":
  {...}, "service": {...}}`` — the final answer, shaped like the
  ``stream --json`` artifact: ``convoys`` is the *complete* normalized
  answer (not just the tail), ``counters`` is the miner's counter dict
  bit-for-bit (service bookkeeping never leaks into it), and
  ``service`` is the per-tenant service-side bookkeeping (queue peaks,
  throttle counts, step totals).  ``clusterer_counters`` appears when
  the tenant ran an incremental clusterer, as in the CLI artifact.
* ``{"type": "error", "tenant": T?, "error": "..."}`` — a rejected
  message (unknown tenant, bad config, disordered feed...).  Errors
  scoped to a tenant fail that session; protocol-level errors (a
  non-JSON line) fail the connection.

Convoys travel as ``{"objects": [...], "t_start": a, "t_end": b}`` with
members sorted by their canonical store encoding, so mixed int/str id
sets serialize deterministically and decode to equal
:class:`~repro.core.convoy.Convoy` values.
"""

from __future__ import annotations

import json

from repro.core.convoy import Convoy
from repro.store.base import check_object_id, encode_object_id


class ProtocolError(ValueError):
    """A line or payload that violates the wire contract."""


#: Per-line stream buffer limit (bytes) for both ends of the socket.
#: asyncio's 64 KiB ``readline`` default truncates a single large
#: ``feed`` batch (or a big ``flushed`` reply) and kills the connection
#: with no useful diagnostic; NDJSON frames scale with batch size, so
#: server and client raise the limit together.
STREAM_LIMIT = 2 ** 22

#: Message types a client may send.
CLIENT_TYPES = ("hello", "feed", "drain", "flush", "bye")

#: Message types the server emits.
SERVER_TYPES = ("ready", "closed", "flushed", "error")


def encode(message):
    """One protocol message as a ``\\n``-terminated JSON line (bytes)."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode(line):
    """Invert :func:`encode`; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}") from None
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolError(
            f"protocol messages are objects with a 'type', got {message!r}"
        )
    return message


def encode_snapshot(snapshot):
    """A ``{object_id: (x, y)}`` snapshot as ``[id, x, y]`` triples.

    Triples are ordered by the id's canonical store encoding so the
    wire form is deterministic regardless of dict insertion order.
    """
    return [
        [object_id, position[0], position[1]]
        for object_id, position in sorted(
            snapshot.items(), key=lambda item: encode_object_id(item[0])
        )
    ]


def decode_snapshot(triples):
    """Invert :func:`encode_snapshot` (ids validated as str/int)."""
    if not isinstance(triples, list):
        raise ProtocolError(f"snapshot must be a list, got {triples!r}")
    snapshot = {}
    for triple in triples:
        if not isinstance(triple, list) or len(triple) != 3:
            raise ProtocolError(
                f"snapshot entries are [object_id, x, y], got {triple!r}"
            )
        object_id, x, y = triple
        try:
            check_object_id(object_id)
        except TypeError as exc:
            raise ProtocolError(str(exc)) from None
        if not isinstance(x, (int, float)) or not isinstance(
            y, (int, float)
        ) or isinstance(x, bool) or isinstance(y, bool):
            raise ProtocolError(
                f"coordinates must be numbers, got {triple!r}"
            )
        snapshot[object_id] = (float(x), float(y))
    if len(snapshot) != len(triples):
        raise ProtocolError("snapshot repeats an object id")
    return snapshot


def encode_convoy(convoy):
    """One convoy as its wire object (members canonically sorted)."""
    return {
        "objects": sorted(convoy.objects, key=encode_object_id),
        "t_start": convoy.t_start,
        "t_end": convoy.t_end,
    }


def decode_convoy(payload):
    """Invert :func:`encode_convoy`."""
    try:
        return Convoy(
            payload["objects"], payload["t_start"], payload["t_end"]
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise ProtocolError(f"bad convoy payload {payload!r}: {exc}") from None
