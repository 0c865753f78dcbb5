"""Async multi-tenant ingestion service.

The serving layer over the streaming engine: many independent tenant
feeds — each its own
:class:`~repro.streaming.engine.StreamingConvoyMiner`, any pipeline or
store configuration — multiplexed over one shared, bounded pool of
miner threads.

* :mod:`~repro.service.protocol` — the newline-delimited-JSON wire
  contract (snapshots in, closed convoys + counters out, shaped like
  the ``stream --json`` artifact);
* :class:`~repro.service.session.TenantSession` — one tenant's miner
  behind a credit-based ingestion queue;
* :class:`~repro.service.dispatcher.Dispatcher` — least-recently-served
  scheduling of sync miner steps onto a ``ThreadPoolExecutor`` via
  ``run_in_executor``;
* :class:`~repro.service.server.IngestionServer` — the asyncio socket
  front end (``repro-convoy serve``);
* :class:`~repro.service.client.ServiceClient` — the reference client
  (tests, CI smoke, and the ingestion bench all speak through it).

The service guarantee mirrors every other layer in this repo: for each
tenant, the convoys, counters, and store contents are bit-for-bit what
driving the same miner directly would have produced — concurrency
changes the schedule, never the answer.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatcher import Dispatcher
from repro.service.protocol import (
    ProtocolError,
    decode,
    decode_convoy,
    decode_snapshot,
    encode,
    encode_convoy,
    encode_snapshot,
)
from repro.service.server import DEFAULT_MAX_QUEUE, IngestionServer
from repro.service.session import TenantSession, build_miner

__all__ = [
    "DEFAULT_MAX_QUEUE",
    "Dispatcher",
    "IngestionServer",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "TenantSession",
    "build_miner",
    "decode",
    "decode_convoy",
    "decode_snapshot",
    "encode",
    "encode_convoy",
    "encode_snapshot",
]
