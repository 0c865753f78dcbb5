"""Streaming convoy discovery.

Algorithm 1's snapshot loop, restructured as an online engine and, one
level down, as an explicit staged pipeline — ingest → cluster → track →
emit.  Snapshots are pushed in one at a time, each tick costs one
snapshot-clustering pass plus one candidate-intersection step, and
convoys are emitted the moment their chains fail to extend.  The offline
:func:`repro.core.cmc.cmc` is :func:`~repro.streaming.engine.mine_stream`
over :func:`~repro.streaming.source.replay_database`, so both paths share
one implementation of ``O_t`` and of the chaining semantics.

* :class:`~repro.streaming.engine.StreamingConvoyMiner` — the engine
  (a thin composition of the pipeline stages);
* :func:`~repro.streaming.engine.mine_stream` — drive a miner over a
  snapshot source and collect the answer;
* :mod:`~repro.streaming.pipeline` — the named stages
  (:class:`~repro.streaming.pipeline.IngestStage`,
  :class:`~repro.streaming.pipeline.ClusterStage`,
  :class:`~repro.streaming.pipeline.TrackStage`,
  :class:`~repro.streaming.pipeline.EmitStage`) and the
  :class:`~repro.streaming.pipeline.StreamingPipeline` composing them;
* :mod:`~repro.streaming.source` — snapshot sources: database replay, CSV
  replay, and seeded synthetic generators for scale runs (with optional
  bounded ``jitter=`` to emulate shuffled GPS feeds);
* :mod:`~repro.streaming.reorder` — the watermarked
  :class:`~repro.streaming.reorder.ReorderBuffer` that restores time
  order in front of ``feed`` (``StreamingConvoyMiner(reorder=...)``).
"""

from repro.streaming.engine import StreamingConvoyMiner, mine_stream
from repro.streaming.pipeline import (
    ClusterStage,
    EmitStage,
    IngestStage,
    StreamingPipeline,
    TrackStage,
)
from repro.streaming.reorder import LATE_POLICIES, ReorderBuffer, reorder_ticks
from repro.streaming.source import (
    churn_stream,
    hotspot_drift_scenario,
    jitter_ticks,
    replay_csv,
    replay_database,
    synthetic_stream,
)

__all__ = [
    "ClusterStage",
    "EmitStage",
    "IngestStage",
    "LATE_POLICIES",
    "ReorderBuffer",
    "StreamingConvoyMiner",
    "StreamingPipeline",
    "TrackStage",
    "churn_stream",
    "hotspot_drift_scenario",
    "jitter_ticks",
    "mine_stream",
    "reorder_ticks",
    "replay_csv",
    "replay_database",
    "synthetic_stream",
]
