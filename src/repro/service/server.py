"""The asyncio ingestion server: sockets in, convoys out.

:class:`IngestionServer` accepts NDJSON connections (see
:mod:`repro.service.protocol`), owns the tenant registry, and feeds the
shared :class:`~repro.service.dispatcher.Dispatcher`.  One connection
may multiplex any number of tenants; a tenant name is unique across the
whole server while its session is open.

Backpressure is credit-based and sits in the read loop: ``feed`` ticks
are queued with :meth:`~repro.service.session.TenantSession.enqueue`,
which *waits* once the tenant's queue hits its high-water mark — so the
server simply stops reading that connection until the dispatcher drains
the tenant below the mark.  Nothing is dropped, and the stall is
visible in the tenant's ``throttled_waits`` counter.

Shutdown (``stop``, or SIGINT in the CLI) closes every open session
*without* flushing: miners close, store sinks commit, and each tenant's
store holds a clean prefix of its completed ticks — the same contract a
``stream`` Ctrl-C honours.
"""

from __future__ import annotations

import asyncio

from repro.service.dispatcher import Dispatcher
from repro.service.protocol import (
    STREAM_LIMIT,
    ProtocolError,
    decode,
    decode_snapshot,
    encode,
)
from repro.service.session import TenantSession, build_miner

#: Default per-tenant ingestion high-water mark.
DEFAULT_MAX_QUEUE = 64


async def _skip_line(reader):
    """Consume the rest of an over-long line; False at end of stream.

    ``readuntil`` leaves an over-limit line in the buffer, so this reads
    it away in buffer-sized pieces (memory stays bounded by the limit)
    up to and including its newline.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return False


class IngestionServer:
    """Serve the ingestion protocol on a TCP socket.

    Args:
        host: bind address (default loopback).
        port: bind port (0 picks a free one; see :attr:`port`).
        max_workers: dispatcher worker-pool size.
        max_queue: default per-tenant high-water mark (a tenant's
            ``hello`` config may override its own).
    """

    def __init__(self, host="127.0.0.1", port=0, *, max_workers=4,
                 max_queue=DEFAULT_MAX_QUEUE):
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.dispatcher = Dispatcher(max_workers=max_workers)
        self.sessions = {}  # tenant -> live TenantSession
        #: Aggregated service counters across *finished* sessions (live
        #: ones are folded in by :meth:`aggregate`).
        self.counters = {
            "tenants": 0,
            "connections": 0,
            "protocol_errors": 0,
            "ticks": 0,
            "convoys_closed": 0,
            "throttled_waits": 0,
            "drains": 0,
            "peak_queue": 0,
        }
        self._server = None
        self._retired = []  # service_counters of closed sessions
        self._connections = set()  # live _handle_connection tasks

    async def start(self):
        """Bind the socket and start dispatching; resolves :attr:`port`."""
        self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=STREAM_LIMIT,  # see protocol.STREAM_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        """Stop accepting, close every session (no flush), stop workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel live connections; each handler's cleanup path closes
        # its own sessions (committing completed ticks) before exiting.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        for session in list(self.sessions.values()):
            await self._close_session(session)
        await self.dispatcher.stop()

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback):
        await self.stop()
        return False

    def aggregate(self):
        """Service-wide counter totals: finished sessions plus live
        ones, with ``peak_queue`` as the max across tenants."""
        totals = dict(self.counters)
        live = [s.service_counters for s in self.sessions.values()]
        for service_counters in self._retired + live:
            for key in ("ticks", "convoys_closed", "throttled_waits",
                        "drains"):
                totals[key] += service_counters[key]
            totals["peak_queue"] = max(
                totals["peak_queue"], service_counters["peak_queue"]
            )
        totals["dispatcher_steps"] = self.dispatcher.counters["steps"]
        totals["failed_steps"] = self.dispatcher.counters["failed_steps"]
        return totals

    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        self.counters["connections"] += 1
        self._connections.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        local = {}  # tenants opened by this connection

        async def send(event):
            async with write_lock:
                writer.write(encode(event))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # end of stream: the unterminated tail
                except asyncio.LimitOverrunError:
                    self.counters["protocol_errors"] += 1
                    await send({
                        "type": "error",
                        "error": f"protocol line longer than {STREAM_LIMIT} "
                                 "bytes; line skipped",
                    })
                    if await _skip_line(reader):
                        continue
                    break
                if not line:
                    break
                message = None
                try:
                    message = decode(line)
                    if message["type"] == "bye":
                        break
                    await self._handle_message(message, local, send)
                except ProtocolError as exc:
                    self.counters["protocol_errors"] += 1
                    event = {"type": "error", "error": str(exc)}
                    if isinstance(message, dict) and "tenant" in message:
                        event["tenant"] = message["tenant"]
                    await send(event)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with the connection still open: swallow
            # the cancellation so the cleanup below runs to completion
            # (sessions must close their miners, committing ticks).
            pass
        finally:
            self._connections.discard(asyncio.current_task())
            for session in local.values():
                await self._close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_message(self, message, local, send):
        kind = message["type"]
        if kind == "hello":
            await self._handle_hello(message, local, send)
        elif kind in ("feed", "drain", "flush"):
            session = local.get(message.get("tenant"))
            if session is None or session.done:
                raise ProtocolError(
                    f"unknown tenant {message.get('tenant')!r}: "
                    "open it with a hello first"
                )
            if kind == "feed":
                await self._handle_feed(message, session)
            elif kind == "drain":
                session.enqueue_drain()
                self.dispatcher.notify(session)
            else:
                session.enqueue_flush()
                self.dispatcher.notify(session)
        else:
            raise ProtocolError(f"unknown message type {kind!r}")

    async def _handle_hello(self, message, local, send):
        tenant = message.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )
        if tenant in self.sessions:
            raise ProtocolError(f"tenant {tenant!r} is already open")
        miner, tick_delay, max_queue = build_miner(
            message.get("config", {})
        )
        session = TenantSession(
            tenant, miner,
            max_queue=max_queue if max_queue is not None else self.max_queue,
            tick_delay=tick_delay,
        )
        session.deliver = self._make_deliver(session, local, send)
        self.sessions[tenant] = session
        local[tenant] = session
        self.counters["tenants"] += 1
        await send({"type": "ready", "tenant": tenant})

    def _make_deliver(self, session, local, send):
        async def deliver(event):
            if event["type"] in ("flushed", "error"):
                self._retire(session, local)
            try:
                await send(event)
            except (ConnectionResetError, BrokenPipeError):
                pass  # reader gone; the read loop will close us out
        return deliver

    async def _handle_feed(self, message, session):
        ticks = message.get("ticks")
        if not isinstance(ticks, list):
            raise ProtocolError(f"feed ticks must be a list, got {ticks!r}")
        for entry in ticks:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ProtocolError(
                    f"feed entries are [t, snapshot], got {entry!r}"
                )
            t, triples = entry
            if not isinstance(t, int) or isinstance(t, bool):
                raise ProtocolError(f"tick time must be an int, got {t!r}")
            # This await is the backpressure seam: it blocks the read
            # loop (stops reading this feed) while the tenant is over
            # its high-water mark.
            await session.enqueue(t, decode_snapshot(triples))
            self.dispatcher.notify(session)

    def _retire(self, session, local=None):
        if self.sessions.get(session.tenant) is session:
            del self.sessions[session.tenant]
            self._retired.append(session.service_counters)
        if local is not None:
            local.pop(session.tenant, None)

    async def _close_session(self, session):
        """Close one session without flushing (shutdown / disconnect)."""
        if session.done:
            self._retire(session)
            return
        session.done = True  # stop accepting + stop scheduling
        session.discard_queued()
        await self.dispatcher.wait_idle(session)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, session.abort_sync)
        self._retire(session)
