"""Snapshot sources for the streaming engine.

Every source is an iterator of ``(t, {object_id: (x, y)})`` ticks in
strictly increasing time order — the only contract
:class:`~repro.streaming.engine.StreamingConvoyMiner.feed` requires.  The
adapters:

* :func:`replay_database` — the one producer of CMC's ``O_t``: a
  materialized :class:`~repro.trajectory.TrajectoryDatabase` tick by
  tick, with virtual (interpolated) points, each trajectory walked once
  with a cursor.  :func:`repro.core.cmc.cmc` *is*
  ``mine_stream(replay_database(db), ...)``, and the baselines and
  :func:`repro.core.verification.is_valid_convoy` read their snapshots
  from it too.
* :func:`replay_csv` — the same, straight from an ``object_id,t,x,y`` CSV.
* :func:`synthetic_stream` — a seeded generator producing snapshots on the
  fly in O(objects) memory, with planted co-travelling groups; this is how
  the throughput bench feeds million-point streams without materializing a
  database.
* :func:`churn_stream` — a seeded generator with a *controllable churn
  rate*: only a chosen fraction of objects moves (or arrives/departs) per
  tick, the rest stand perfectly still.  This is the GPS-fleet regime the
  incremental clusterer targets, and the workload knob of
  ``benchmarks/bench_incremental_clustering.py``.
* :func:`hotspot_drift_scenario` — a seeded generator where most objects
  ride in rigid packs around hotspot centers that *drift* across the
  world, bouncing off its walls, yielded with the packs as labels.
  Every pack is a persistent dense cluster with a large, stable
  membership — the dense-candidate regime of
  ``benchmarks/bench_match_kernel.py`` and perfbench's ``stream_packs``.

:func:`synthetic_stream` and :func:`churn_stream` additionally accept
``jitter=``: a seeded bounded shuffle (:func:`jitter_ticks`) that emits
the same ticks realistically out of order — every tick lags the emitted
maximum by strictly less than ``jitter`` time units — which is exactly
the disorder a :class:`~repro.streaming.reorder.ReorderBuffer` with
``allowed_lateness >= jitter`` restores losslessly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left

from repro.io.csv_io import load_trajectories_csv


def replay_database(database, time_range=None):
    """Yield ``(t, snapshot)`` for every time point of a database's domain.

    This is the one producer of CMC's ``O_t`` (Section 4): each snapshot
    holds every object whose trajectory interval covers ``t``, with a
    linearly interpolated virtual point where the object has no sample.
    :func:`repro.core.cmc.cmc`, the baselines and
    :func:`repro.core.verification.is_valid_convoy` all read their
    snapshots from here.  Time points where *no* object is alive yield
    an empty snapshot rather than being skipped, so the engine sees the
    gap; an empty database yields nothing.

    Each trajectory is walked with a cursor, once, in start-time order:
    no bisect per object and tick.  Positions are bit-identical to
    :meth:`~repro.trajectory.Trajectory.location_at` (the same float
    expressions in the same order), and snapshot keys follow the
    database order stable-sorted by start time, the order the CuTS
    refinement copies.

    Args:
        database: the :class:`~repro.trajectory.TrajectoryDatabase`.
        time_range: optional ``(t_lo, t_hi)`` pair of ints with
            ``t_lo <= t_hi``; defaults to the database's full time
            domain.  Anything else raises :class:`ValueError` naming
            ``time_range`` when iteration starts, before the database
            is read.

    Yields:
        ``(t, {object_id: (x, y)})`` tuples in increasing ``t`` order.
    """
    if time_range is not None:
        try:
            t_lo, t_hi = time_range
        except (TypeError, ValueError):
            t_lo = t_hi = None
        # Bools are ints, refused as check_tick_time refuses them.
        if any(isinstance(t, bool) or not isinstance(t, int)
               for t in (t_lo, t_hi)):
            raise ValueError(
                "time_range must be a (t_lo, t_hi) pair of ints, got "
                f"{time_range!r}"
            )
        if t_hi < t_lo:
            raise ValueError(f"time_range reversed: [{t_lo}, {t_hi}]")
    if len(database) == 0:
        return
    if time_range is None:
        t_lo, t_hi = database.min_time, database.max_time
    # Sorted activation: each tick only touches trajectories whose
    # interval can cover it.  One entry per trajectory whose tau covers
    # the current t: [object_id, times, xs, ys, cursor], the cursor at
    # the first sample at or after t.
    trajectories = sorted(database, key=lambda tr: tr.start_time)
    active = []
    next_idx = 0
    for t in range(t_lo, t_hi + 1):
        while (next_idx < len(trajectories)
               and trajectories[next_idx].start_time <= t):
            tr = trajectories[next_idx]
            times, xs, ys = tr.coordinates()
            active.append([tr.object_id, times, xs, ys, bisect_left(times, t)])
            next_idx += 1
        if active:
            active = [entry for entry in active if entry[1][-1] >= t]
        snapshot = {}
        for entry in active:
            object_id, times, xs, ys, j = entry
            while times[j] < t:
                j += 1
            entry[4] = j
            # interpolate_position's float expressions, in its order.
            if times[j] == t:
                snapshot[object_id] = (xs[j], ys[j])
            else:
                lo = j - 1
                ratio = (t - times[lo]) / (times[j] - times[lo])
                snapshot[object_id] = (
                    xs[lo] + (xs[j] - xs[lo]) * ratio,
                    ys[lo] + (ys[j] - ys[lo]) * ratio,
                )
        yield t, snapshot


def replay_csv(path, time_range=None):
    """Replay an ``object_id,t,x,y`` CSV file as a snapshot stream.

    Loads the file through :func:`repro.io.csv_io.load_trajectories_csv`
    (so malformed rows fail loudly up front) and delegates to
    :func:`replay_database`.
    """
    yield from replay_database(load_trajectories_csv(path), time_range)


def jitter_ticks(ticks, jitter, seed=0):
    """Shuffle a tick stream within a bounded event-time displacement.

    Emits exactly the ticks of ``ticks`` (same ``(t, snapshot)`` pairs),
    but out of order: each arrival is held in a small pool from which a
    random element is emitted, except that a pending tick is force-emitted
    (oldest first) before any tick ``jitter`` or more time units newer
    enters the pool.  The guarantee that makes the shuffle *recoverable*:
    when a tick at time ``u`` is emitted, every previously emitted tick's
    time is below ``u + jitter`` — so lateness relative to the emitted
    maximum stays strictly below ``jitter``, and a
    :class:`~repro.streaming.reorder.ReorderBuffer` with
    ``allowed_lateness >= jitter`` restores the original order with no
    late arrivals.  ``jitter=0`` yields the stream unchanged.

    The shuffle is a pure function of ``(ticks, jitter, seed)``; its RNG
    is independent of the RNG that generated the ticks themselves, so
    ``synthetic_stream(..., jitter=j)`` emits exactly the snapshots of
    the unjittered stream, permuted.

    Args:
        ticks: iterable of ``(t, snapshot)`` in increasing time order.
        jitter: maximum displacement in time units (``>= 0``).
        seed: RNG seed for the shuffle.

    Yields:
        The same ``(t, snapshot)`` ticks, reordered within the bound.
    """
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if jitter == 0:
        yield from ticks
        return
    rng = random.Random(seed)
    pending = []  # (t, snapshot); event-time spread stays below `jitter`
    for t, snapshot in ticks:
        # Anything `jitter` or more behind the new arrival leaves first
        # (oldest first), so nothing newer is ever emitted ahead of it;
        # the pool's time spread therefore stays strictly below `jitter`.
        pending.sort(key=lambda entry: entry[0])
        while pending and t - pending[0][0] >= jitter:
            yield pending.pop(0)
        pending.append((t, snapshot))
        # A coin-flip run of random emissions keeps the pool small while
        # leaving the emission order genuinely shuffled.
        while len(pending) > 1 and rng.random() < 0.5:
            yield pending.pop(rng.randrange(len(pending)))
    # The tail's spread is below `jitter` too, so a fully random drain
    # still respects the lateness bound.
    while pending:
        yield pending.pop(rng.randrange(len(pending)))


class _Walker:
    """Incremental random-waypoint state: one position, one target."""

    __slots__ = ("x", "y", "tx", "ty")

    def __init__(self, rng, area):
        self.x = rng.uniform(0.0, area)
        self.y = rng.uniform(0.0, area)
        self.tx = rng.uniform(0.0, area)
        self.ty = rng.uniform(0.0, area)

    def step(self, rng, area, speed):
        """Advance one tick toward the target, re-rolling it on arrival."""
        dx = self.tx - self.x
        dy = self.ty - self.y
        dist = math.hypot(dx, dy)
        if dist < speed:
            self.tx = rng.uniform(0.0, area)
            self.ty = rng.uniform(0.0, area)
            dx = self.tx - self.x
            dy = self.ty - self.y
            dist = math.hypot(dx, dy) or 1.0
        scale = min(speed, dist) / dist
        self.x = min(max(self.x + dx * scale, 0.0), area)
        self.y = min(max(self.y + dy * scale, 0.0), area)


def synthetic_stream(n_objects, n_snapshots, seed=0, *, eps=10.0,
                     group_count=4, group_size=5, area=None, speed=None,
                     t_start=0, jitter=0, jitter_seed=None):
    """Generate a seeded snapshot stream with planted co-travelling groups.

    The first ``group_count * group_size`` objects are partitioned into
    groups; each group follows its own random-waypoint leader with fixed
    member offsets inside ``eps / 4``, so every group is density-connected
    at every tick (a convoy for any ``m <= group_size``, living the whole
    stream).  Remaining objects walk independently.  State is advanced
    incrementally, so memory is O(n_objects) regardless of stream length —
    ``n_objects * n_snapshots`` points can exceed RAM-sized databases.

    The stream is a pure function of its arguments: the same seed yields
    identical snapshots across runs (the determinism tests guard this).

    Args:
        n_objects: objects per snapshot.
        n_snapshots: number of ticks to yield.
        seed: RNG seed.
        eps: the distance threshold the planted groups are tuned for.
        group_count, group_size: planted-group layout; clipped so the
            groups never exceed ``n_objects``.
        area: world side length (default ``40 * eps``).
        speed: movement per tick (default ``eps / 2``).
        t_start: time of the first snapshot.
        jitter: emit the ticks out of order through :func:`jitter_ticks`
            with this displacement bound (0, the default, keeps strict
            time order; the snapshots themselves are identical either
            way).
        jitter_seed: seed of the shuffle RNG (defaults to ``seed``; kept
            separate so the same trajectory data can be replayed under
            many different arrival orders).

    Yields:
        ``(t, {object_id: (x, y)})`` with ids ``"o0" .. "o{n-1}"``.
    """
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    if n_snapshots < 1:
        raise ValueError(f"n_snapshots must be >= 1, got {n_snapshots}")
    if group_count < 0:
        raise ValueError(f"group_count must be >= 0, got {group_count}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    if jitter:
        yield from jitter_ticks(
            synthetic_stream(
                n_objects, n_snapshots, seed, eps=eps,
                group_count=group_count, group_size=group_size, area=area,
                speed=speed, t_start=t_start,
            ),
            jitter,
            seed=jitter_seed if jitter_seed is not None else seed,
        )
        return
    rng = random.Random(seed)
    if area is None:
        area = 40.0 * eps
    if speed is None:
        speed = eps / 2.0
    while group_count > 0 and group_count * group_size > n_objects:
        group_count -= 1
    leaders = [_Walker(rng, area) for _ in range(group_count)]
    offsets = []  # parallel to the first group_count * group_size objects
    tight = eps / 4.0
    for group in range(group_count):
        spacing = 2.0 * math.pi / group_size
        base_angle = rng.uniform(0.0, 2.0 * math.pi)
        for slot in range(group_size):
            angle = base_angle + slot * spacing
            radius = rng.uniform(0.5, 1.0) * tight
            offsets.append((radius * math.cos(angle),
                            radius * math.sin(angle)))
    grouped = group_count * group_size
    loners = [_Walker(rng, area) for _ in range(n_objects - grouped)]
    ids = [f"o{i}" for i in range(n_objects)]
    for tick in range(n_snapshots):
        if tick:
            for walker in leaders:
                walker.step(rng, area, speed)
            for walker in loners:
                walker.step(rng, area, speed)
        snapshot = {}
        for i in range(grouped):
            leader = leaders[i // group_size]
            ox, oy = offsets[i]
            snapshot[ids[i]] = (leader.x + ox, leader.y + oy)
        for i, walker in enumerate(loners):
            snapshot[ids[grouped + i]] = (walker.x, walker.y)
        yield t_start + tick, snapshot


def hotspot_drift_scenario(n_objects, n_snapshots, seed=0, *, eps=10.0,
                           hotspots=8, background=0.2, drift=None,
                           area=None, t_start=0):
    """Generate a hotspot-drift stream *with* its planted cluster labels.

    Most objects ride in rigid packs: each pack's members sit at fixed
    offsets within ``eps / 4`` of a hotspot center, so the pack is
    density-connected at every tick, and the center drifts with a
    constant-speed velocity that reflects off the world's walls.  The
    remaining ``background`` fraction are independent random-waypoint
    walkers.  Pack membership never changes, which is what makes this the
    dense-candidate regime: every tick joins the same large candidate
    sets against the same large clusters, so the per-pair intersection
    cost — not clustering or churn bookkeeping — dominates.

    This is the first slice of the million-object scenario harness
    (ROADMAP item 5): state is advanced incrementally in O(n_objects)
    memory, and the stream is a pure function of its arguments.  The
    labels let benches replay the planted packs as the per-tick
    clustering and measure the candidate-match kernels alone.

    Args:
        n_objects: objects per snapshot.
        n_snapshots: number of ticks to yield.
        seed: RNG seed.
        eps: the distance threshold the packs are tuned for (pack radius
            ``eps / 4``, so any two members sit within ``eps``).
        hotspots: number of drifting pack centers (``>= 1``).
        background: fraction of objects walking independently, in
            ``[0, 1]``; the rest split round-robin across the packs.
        drift: center speed per tick (default ``eps / 4``).
        area: world side length (default ``40 * eps``).
        t_start: time of the first snapshot.

    Yields:
        ``(t, {object_id: (x, y)}, groups)`` with ids ``"h0" ...`` and
        ``groups`` a tuple of frozensets — the non-empty packs, fixed for
        the whole stream (background walkers belong to no group).
    """
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    if n_snapshots < 1:
        raise ValueError(f"n_snapshots must be >= 1, got {n_snapshots}")
    if int(hotspots) < 1:
        raise ValueError(f"hotspots must be >= 1, got {hotspots}")
    if not 0.0 <= background <= 1.0:
        raise ValueError(f"background must be in [0, 1], got {background}")
    rng = random.Random(seed)
    hotspots = int(hotspots)
    if area is None:
        area = 40.0 * eps
    if drift is None:
        drift = eps / 4.0
    packed = n_objects - round(background * n_objects)
    ids = [f"h{i}" for i in range(n_objects)]
    # Centers spawn away from the walls so a tight pack never starts
    # clipped; velocities reflect off the walls, so they stay legal.
    margin = min(eps, area / 2.0)
    centers = []  # [x, y, vx, vy] per hotspot
    for _ in range(hotspots):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        centers.append([
            rng.uniform(margin, area - margin),
            rng.uniform(margin, area - margin),
            drift * math.cos(angle),
            drift * math.sin(angle),
        ])
    tight = eps / 4.0
    offsets = []  # parallel to ids[:packed]
    members = [[] for _ in range(hotspots)]
    for i in range(packed):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = math.sqrt(rng.random()) * tight
        offsets.append((radius * math.cos(angle),
                        radius * math.sin(angle)))
        members[i % hotspots].append(ids[i])
    groups = tuple(frozenset(pack) for pack in members if pack)
    walkers = [_Walker(rng, area) for _ in range(n_objects - packed)]
    for tick in range(n_snapshots):
        if tick:
            for center in centers:
                for axis in (0, 1):
                    center[axis] += center[axis + 2]
                    # Reflect drift off the walls: fold the overshoot
                    # back inside and reverse that axis's velocity.
                    if center[axis] < 0.0:
                        center[axis] = -center[axis]
                        center[axis + 2] = -center[axis + 2]
                    elif center[axis] > area:
                        center[axis] = 2.0 * area - center[axis]
                        center[axis + 2] = -center[axis + 2]
            for walker in walkers:
                walker.step(rng, area, drift)
        snapshot = {}
        for i in range(packed):
            center = centers[i % hotspots]
            ox, oy = offsets[i]
            snapshot[ids[i]] = (center[0] + ox, center[1] + oy)
        for i, walker in enumerate(walkers):
            snapshot[ids[packed + i]] = (walker.x, walker.y)
        yield t_start + tick, snapshot, groups


def churn_stream(n_objects, n_snapshots, seed=0, *, eps=10.0, churn=0.1,
                 turnover=0.0, area=None, max_hop=None, t_start=0,
                 jitter=0, jitter_seed=None):
    """Generate a seeded snapshot stream with a controllable churn rate.

    Unlike :func:`synthetic_stream` (where *every* object advances every
    tick), this source moves only ``round(churn * n)`` objects per tick —
    each by a hop of at least ``eps / 2`` — and leaves the rest exactly in
    place, optionally retiring a ``turnover`` fraction of objects in favour
    of fresh ids.  That is the mostly-parked fleet regime where cross-tick
    incremental clustering pays off; the equivalence and benchmark suites
    sweep ``churn`` to chart the crossover against the full pass.

    The stream is a pure function of its arguments: the same seed yields
    identical snapshots across runs.  Snapshot dicts are freshly built each
    tick with stable relative key order (new ids append at the end).

    Args:
        n_objects: objects per snapshot (held constant; each departure is
            matched by an arrival).
        n_snapshots: number of ticks to yield.
        seed: RNG seed.
        churn: fraction of objects that moves per tick, in [0, 1].
        turnover: fraction of objects replaced (one id out, a fresh id in)
            per tick, in [0, 1].
        eps: distance scale; hops are drawn from ``[eps / 2, max_hop]``.
        area: world side length (default ``40 * eps``).
        max_hop: largest per-tick hop (default ``3 * eps``).
        t_start: time of the first snapshot.
        jitter: emit the ticks out of order through :func:`jitter_ticks`
            with this displacement bound (0, the default, keeps strict
            time order; the snapshots themselves are identical either
            way).
        jitter_seed: seed of the shuffle RNG (defaults to ``seed``).

    Yields:
        ``(t, {object_id: (x, y)})`` with ids ``"c0", "c1", ...``.
    """
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    if n_snapshots < 1:
        raise ValueError(f"n_snapshots must be >= 1, got {n_snapshots}")
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must be in [0, 1], got {churn}")
    if not 0.0 <= turnover <= 1.0:
        raise ValueError(f"turnover must be in [0, 1], got {turnover}")
    if jitter:
        yield from jitter_ticks(
            churn_stream(
                n_objects, n_snapshots, seed, eps=eps, churn=churn,
                turnover=turnover, area=area, max_hop=max_hop,
                t_start=t_start,
            ),
            jitter,
            seed=jitter_seed if jitter_seed is not None else seed,
        )
        return
    rng = random.Random(seed)
    if area is None:
        area = 40.0 * eps
    if max_hop is None:
        max_hop = 3.0 * eps
    if max_hop < eps / 2.0:
        raise ValueError(f"max_hop must be >= eps/2, got {max_hop}")
    if area < 2.0 * max_hop:
        # Any smaller and hops could not reliably stay inside the world
        # (the re-draw loop below would exhaust and overshoot the bounds).
        raise ValueError(
            f"area must be >= 2 * max_hop = {2.0 * max_hop:g}, got {area}"
        )
    positions = {
        f"c{i}": (rng.uniform(0.0, area), rng.uniform(0.0, area))
        for i in range(n_objects)
    }
    next_id = n_objects
    for tick in range(n_snapshots):
        if tick:
            ids = list(positions)
            for o in rng.sample(ids, round(churn * len(ids))):
                x, y = positions[o]
                # Re-draw the direction until the hop lands inside the
                # world — clamping instead would shorten boundary hops
                # below the promised eps/2 (possibly to zero).
                for _attempt in range(64):
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    hop = rng.uniform(eps / 2.0, max_hop)
                    nx = x + hop * math.cos(angle)
                    ny = y + hop * math.sin(angle)
                    if 0.0 <= nx <= area and 0.0 <= ny <= area:
                        break
                else:
                    # Vanishingly unlikely (even a corner point keeps a
                    # quarter of all directions in bounds); head for the
                    # centre, which is always a legal full-length hop.
                    angle = math.atan2(area / 2.0 - y, area / 2.0 - x)
                    hop = rng.uniform(eps / 2.0, max_hop)
                    nx = x + hop * math.cos(angle)
                    ny = y + hop * math.sin(angle)
                positions[o] = (nx, ny)
            for o in rng.sample(ids, round(turnover * len(ids))):
                del positions[o]
                positions[f"c{next_id}"] = (
                    rng.uniform(0.0, area), rng.uniform(0.0, area)
                )
                next_id += 1
        yield t_start + tick, dict(positions)
