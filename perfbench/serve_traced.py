"""Start ``repro serve`` with spans around the service's entry points.

Usage: ``python3 perfbench/serve_traced.py SPANS_PATH serve [ARGS...]``.
Wraps ``TenantSession.enqueue`` and ``TenantSession.step_sync``, the
server's protocol decode, the answer normalisation a flush runs, and
every tenant miner's pipeline stages; then runs ``repro.cli.main`` and
writes the spans to ``SPANS_PATH`` once the server has stopped.
"""

from __future__ import annotations

import importlib
import sys

import common
from tracing import Tracer, trace_stages


def install(tracer):
    server = importlib.import_module("repro.service.server")
    session = importlib.import_module("repro.service.session")
    tracer.patch(server, "decode", "service.decode")
    tracer.patch(server, "decode_snapshot", "service.decode")
    tenant_session = session.TenantSession
    tenant_session.enqueue = tracer.wrap_async(
        tenant_session.enqueue, "service.enqueue",
        request_of=lambda self, t, snapshot: (self.tenant, t),
    )
    tenant_session.step_sync = tracer.wrap(
        tenant_session.step_sync, "op",
        request_of=lambda self, kind, t, snapshot: (self.tenant, kind, t),
    )
    build_miner = server.build_miner

    def traced_build_miner(config):
        miner, tick_delay, max_queue = build_miner(config)
        trace_stages(tracer, miner.pipeline)
        return miner, tick_delay, max_queue

    server.build_miner = traced_build_miner
    normalize = session.normalize_convoys

    def counted_normalize(convoys):
        kept = normalize(convoys)
        tracer.counts["normalize_in"] += len(convoys)
        tracer.counts["normalize_out"] += len(kept)
        return kept

    session.normalize_convoys = tracer.wrap(
        counted_normalize, "answer.normalize"
    )


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    common.require_program()
    import repro.cli

    tracer = Tracer()
    install(tracer)
    code = repro.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
