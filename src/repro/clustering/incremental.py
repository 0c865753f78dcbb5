"""Incremental cross-tick snapshot clustering.

CMC (Algorithm 1) pays a full ``DBSCAN(O_t, e, m)`` pass per snapshot even
though consecutive GPS snapshots are nearly identical: most objects move
far less than ``e`` per tick, many not at all.  This module maintains the
previous tick's clustering as a materialized view and applies the position
*delta* instead — the incremental view-maintenance framing, applied to
density clustering rather than joins.

Exactness contract
------------------

:meth:`IncrementalSnapshotClusterer.cluster` returns, for every snapshot,
**exactly** the list :func:`repro.clustering.dbscan.dbscan` would return —
same member sets, same cluster order — regardless of call history.  That is
possible because the classical DBSCAN sweep of
:func:`~repro.clustering.generic_dbscan.density_cluster`, although stated
order-dependently, has a fully order-independent characterization:

* an object is **core** iff ``|NH_e(p)| >= m``;
* the clusters' core sets are the connected components of the core objects
  under ``e``-adjacency;
* a component's *creation key* is the smallest scan position (index in the
  snapshot's key order) over its cores — the sweep creates clusters exactly
  in that order, because the first core of a component that the seed loop
  reaches is necessarily still unvisited;
* a **border** object (non-core with at least one core neighbour) belongs
  to the adjacent component with the smallest creation key — components are
  grown to completion one at a time, so the earliest-created adjacent
  component labels every reachable border first;
* the returned list is the components sorted by creation key.

The incremental pass maintains those invariants under a snapshot delta.

Delta maintenance
-----------------

Between ticks the clusterer diffs the new snapshot against the previous
one, applies the delta to a persistent mutable
:class:`~repro.clustering.grid_index.GridIndex` (``insert`` / ``move`` /
``remove``), and refreshes the cached ``e``-neighbourhood list of every
object in the *dirty region* ``D`` — the changed objects plus every object
within ``e`` of a changed object's old or new position (the only objects
whose neighbourhood can have changed).  It then rebuilds density
connections over the smallest self-contained superset ``R`` of ``D``:

* every previous component owning a core in ``D`` or adjacent to ``D`` is
  absorbed whole (a component can split only by losing one of its own
  cores, and merge only through a dirty bridge, so un-absorbed components
  keep their core sets verbatim);
* neighbours of absorbed members join ``R`` as individuals, so borders
  contested between an absorbed and a spliced component are re-resolved;
* everything else — the untouched components — is *spliced* through
  unchanged, except that creation keys are recomputed from the current
  snapshot order and borders recorded as ambiguous (more than one adjacent
  component) are re-assigned when the key order flipped.

When the raw churn (inserted + removed + moved objects) exceeds
``churn_threshold`` of the snapshot, delta maintenance would touch most of
the data anyway, so the clusterer falls back to a full rebuild — the same
code path with every object dirty.  Correctness never depends on the
threshold; it only trades constant factors.  The threshold itself can be a
fixed fraction or an :class:`AdaptiveChurnThreshold` that observes the
measured cost of delta and full passes online and tracks the crossover.

Cluster diffs
-------------

:meth:`IncrementalSnapshotClusterer.cluster_with_delta` additionally
returns a :class:`ClusterDelta` describing the tick *as a diff*: every
output cluster carries a stable integer id (spliced components keep theirs
across ticks) and a classification — ``unchanged`` (same member set as the
previous tick), ``changed`` (the id survived but the member set differs),
or ``appeared`` (the id is new this tick); ids present last tick but gone
now are listed as ``vanished``.  Downstream consumers — specifically
:meth:`repro.core.candidates.CandidateTracker.advance_delta` — use the
diff to skip work on clusters that were spliced through untouched, turning
the whole streaming convoy pipeline into a materialized view maintained
under updates.  ``unchanged`` is exact (member sets compared against a
pre-mutation copy taken on first touch), never merely "probably the same".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.clustering.grid_index import GridIndex
from repro.clustering.numeric import VectorGridIndex, validate_backend

#: :class:`ClusterDelta` classifications.
UNCHANGED = "unchanged"
CHANGED = "changed"
APPEARED = "appeared"


@dataclass(frozen=True)
class ClusterDelta:
    """One tick's clustering described as a diff against the previous tick.

    Attributes:
        ids: stable integer cluster id per output cluster, parallel to the
            cluster list returned alongside this delta.  A spliced
            component keeps its id for as long as it survives; rebuilt or
            new components get fresh ids (ids are never reused).
        status: classification per output cluster, parallel to ``ids`` —
            :data:`UNCHANGED` (member set identical to this id's set at
            the previous tick), :data:`CHANGED` (same id, different
            members), or :data:`APPEARED` (id new this tick; includes
            every cluster of a full rebuild pass).
        vanished: sorted ids that existed at the previous tick but have no
            output cluster this tick (dissolved, absorbed, or emptied).
    """

    ids: tuple
    status: tuple
    vanished: tuple

    def __post_init__(self):
        if len(self.ids) != len(self.status):
            raise ValueError(
                f"ids/status length mismatch: {len(self.ids)} ids, "
                f"{len(self.status)} statuses"
            )

    @property
    def unchanged_count(self):
        """How many output clusters were spliced through byte-identical."""
        return sum(1 for s in self.status if s == UNCHANGED)


class AdaptiveChurnThreshold:
    """Online estimate of the delta-vs-full crossover churn fraction.

    The fixed ``churn_threshold`` default encodes a one-off measurement of
    where delta maintenance stops paying.  That crossover moves with the
    hardware, the workload's cluster geometry, and — now that cluster
    diffs feed the candidate tracker — with how much downstream work each
    spliced cluster saves.  This policy measures instead of assuming.

    Cost model: a full pass costs ``phi`` seconds per snapshot point; a
    delta pass costs ``a + b * c`` seconds per snapshot point at churn
    fraction ``c`` — the fixed term ``a`` covers the per-tick snapshot
    diff and bookkeeping that every delta pass pays regardless of churn,
    the slope ``b`` the churn-proportional dirty-region work.  The delta
    pass wins while ``a + b * c < phi``, so the threshold sits at the
    crossover ``(phi - a) / b``.  ``phi`` is an EWMA over observed full
    passes; ``a`` and ``b`` come from an exponentially weighted linear fit
    of the observed delta-pass costs against their churn fractions.  (A
    naive per-churned-point average instead of the affine fit would fold
    the fixed term into the slope and bias the threshold toward zero at
    low churn — a one-way ratchet into full passes on exactly the
    workloads the delta path serves best.)

    The slope is unidentifiable until delta passes at distinct churn
    levels have been seen, and a non-positive fitted slope means the
    measurements are still noise; in both cases the threshold simply
    keeps its current value.  Correctness never depends on the estimate
    (both pass kinds return identical clusterings); a bad estimate only
    costs constant factors, so the EWMA can be aggressive.

    Args:
        initial: threshold used until the fit is identifiable.
        alpha: EWMA weight of the newest observation, in (0, 1].
        floor, ceiling: clamp for the estimated threshold, keeping a
            misread clock from pinning the policy at "never" or "always".
    """

    def __init__(self, initial=0.35, alpha=0.25, floor=0.02, ceiling=0.95):
        if not 0.0 <= initial <= 1.0:
            raise ValueError(f"initial must be in [0, 1], got {initial}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= floor <= ceiling <= 1.0:
            raise ValueError(
                f"need 0 <= floor <= ceiling <= 1, got [{floor}, {ceiling}]"
            )
        self._alpha = alpha
        self._floor = floor
        self._ceiling = ceiling
        self.threshold = min(max(initial, floor), ceiling)
        self._full_unit = None  # EWMA seconds per point over full passes
        # EWMA moments of (churn fraction c, seconds-per-point u) over
        # delta passes; E[cu] - E[c]E[u] = b * Var[c] for affine data, so
        # the fit is exact whenever the observations follow the model.
        self._mc = None
        self._mu = None
        self._mcc = None
        self._mcu = None

    def observe_full(self, n_points, seconds):
        """Record a completed full pass over ``n_points`` objects."""
        if n_points > 0 and seconds > 0.0:
            self._full_unit = self._ewma(self._full_unit, seconds / n_points)
            self._refresh()

    def observe_delta(self, churned_points, n_points, seconds):
        """Record a completed delta pass: churn applied, size, cost.

        ``churned_points`` may be zero (a pure key-order tick): such
        passes cost only the fixed term and anchor the fit's intercept.
        """
        if churned_points < 0 or n_points <= 0 or seconds <= 0.0:
            return
        c = min(churned_points / n_points, 1.0)
        u = seconds / n_points
        self._mc = self._ewma(self._mc, c)
        self._mu = self._ewma(self._mu, u)
        self._mcc = self._ewma(self._mcc, c * c)
        self._mcu = self._ewma(self._mcu, c * u)
        self._refresh()

    def _ewma(self, current, observation):
        if current is None:
            return observation
        return current + self._alpha * (observation - current)

    def _refresh(self):
        if self._full_unit is None or self._mc is None:
            return
        churn_spread = self._mcc - self._mc * self._mc
        if churn_spread <= 1e-12:
            return  # one churn level so far: slope unidentifiable
        slope = (self._mcu - self._mc * self._mu) / churn_spread
        if slope <= 0.0:
            return  # noise: more churn cannot genuinely cost less
        intercept = self._mu - slope * self._mc
        crossover = (self._full_unit - intercept) / slope
        self.threshold = min(max(crossover, self._floor), self._ceiling)

#: Counter keys a clusterer maintains in its ``counters`` dict.
COUNTER_KEYS = (
    "ticks",
    "full_passes",
    "incremental_passes",
    "clustered_points",
    "refreshed_neighborhoods",
    "reclustered_points",
)


class IncrementalSnapshotClusterer:
    """Cross-tick snapshot DBSCAN with dirty-region delta maintenance.

    Drop-in replacement for calling
    :func:`repro.clustering.dbscan.dbscan` once per snapshot: feed the
    successive snapshots of a stream to :meth:`cluster` and each call
    returns exactly what the fresh pass would, at a fraction of the cost
    when consecutive snapshots overlap heavily.

    Args:
        eps: density distance threshold ``e``.
        min_pts: the ``m`` of the convoy query (minimum neighbourhood size
            for a core object, the object itself included).
        churn_threshold: fall back to a full rebuild when more than this
            fraction of the snapshot changed since the previous tick
            (insertions + removals + moves, over the new snapshot size).
            A float fixes the threshold; the string ``"adaptive"`` (or an
            :class:`AdaptiveChurnThreshold` instance) estimates the
            crossover online from measured pass costs instead.
        counters: optional dict receiving bookkeeping totals (the
            ``COUNTER_KEYS``); a fresh dict is created when omitted and is
            always available as :attr:`counters`.
        backend: numeric backend for the neighbourhood queries —
            ``"python"`` (default) keeps the per-query
            :class:`~repro.clustering.grid_index.GridIndex` walks;
            ``"vector"`` maintains positions in the contiguous
            :class:`~repro.clustering.numeric.VectorGridIndex` and
            answers the full pass plus every tick's dirty-region
            patching as batched eps-disk queries.  The clustering
            depends only on neighbour *sets*, which both backends
            compute identically, so the answer (clusters and deltas)
            is bit-for-bit the same.
    """

    def __init__(self, eps, min_pts, churn_threshold=0.35, counters=None,
                 backend="python"):
        self._backend = validate_backend(backend)
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        if churn_threshold == "adaptive":
            self._adaptive = AdaptiveChurnThreshold()
        elif isinstance(churn_threshold, AdaptiveChurnThreshold):
            self._adaptive = churn_threshold
        else:
            if (
                not isinstance(churn_threshold, (int, float))
                or not 0.0 <= churn_threshold <= 1.0
            ):
                raise ValueError(
                    f"churn_threshold must be in [0, 1], 'adaptive', or an "
                    f"AdaptiveChurnThreshold, got {churn_threshold!r}"
                )
            self._adaptive = None
            self._fixed_threshold = churn_threshold
        self._eps = float(eps)
        self._min_pts = min_pts
        self.counters = counters if counters is not None else {}
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)
        self.reset()

    @property
    def churn_threshold(self):
        """The currently effective fallback threshold (fixed or adaptive)."""
        if self._adaptive is not None:
            return self._adaptive.threshold
        return self._fixed_threshold

    def reset(self):
        """Drop all cross-tick state; the next call runs a full pass."""
        self._snapshot = None      # {id: (x, y)} as of the last cluster()
        self._index = None         # persistent mutable GridIndex
        self._nbrs = {}            # id -> list of ids within eps (incl. self)
        self._core = set()         # ids with |NH_e| >= min_pts
        self._comp_of = {}         # id -> component label (cores + borders)
        self._members = {}         # label -> set of member ids
        self._comp_cores = {}      # label -> set of core ids
        self._border_cands = {}    # border id -> set of >= 2 adjacent labels
        self._next_label = 0
        self._touched = {}         # label -> pre-tick member-set copy

    # -- public entry points -----------------------------------------------

    def cluster(self, snapshot):
        """Cluster one snapshot; equals ``dbscan(snapshot, eps, min_pts)``.

        Args:
            snapshot: mapping ``{object_id: (x, y)}``.  Snapshots may share
                ids with previous calls (same object later in time) or not;
                any overlap is exploited, none is required.

        Returns:
            List of clusters, each a ``set`` of object ids, identical —
            member sets *and* list order — to what a fresh
            :func:`~repro.clustering.dbscan.dbscan` pass over this snapshot
            returns.
        """
        return self.cluster_with_delta(snapshot)[0]

    def cluster_with_delta(self, snapshot):
        """Cluster one snapshot and describe the tick as a diff.

        The cluster list is exactly what :meth:`cluster` returns (it is
        the same computation); the accompanying :class:`ClusterDelta`
        names each output cluster with a stable id and classifies it
        against the previous tick.  Consumers that maintain per-cluster
        state — the candidate tracker's
        :meth:`~repro.core.candidates.CandidateTracker.advance_delta` —
        can then skip every cluster reported ``unchanged``.

        Returns:
            ``(clusters, delta)`` where ``clusters`` is the
            :meth:`cluster` answer and ``delta`` a :class:`ClusterDelta`
            parallel to it.
        """
        started = time.perf_counter() if self._adaptive is not None else None
        clusters, delta, pass_kind, churn = self._cluster_impl(snapshot)
        if started is not None:
            elapsed = time.perf_counter() - started
            if pass_kind == "full":
                self._adaptive.observe_full(len(snapshot), elapsed)
            else:
                self._adaptive.observe_delta(churn, len(snapshot), elapsed)
        return clusters, delta

    def _cluster_impl(self, snapshot):
        """Run one tick; return ``(clusters, delta, pass_kind, churn)``."""
        self.counters["ticks"] += 1
        self.counters["clustered_points"] += len(snapshot)
        self._touched = {}
        prev_labels = frozenset(self._members)
        if self._snapshot is None:
            return self._full_pass(snapshot, prev_labels)

        removed = [o for o in self._snapshot if o not in snapshot]
        changed = [
            o for o, xy in snapshot.items()
            if o not in self._snapshot or self._snapshot[o] != xy
        ]
        churn = len(removed) + len(changed)
        if churn > self.churn_threshold * max(len(snapshot), 1):
            return self._full_pass(snapshot, prev_labels)
        self.counters["incremental_passes"] += 1
        if churn == 0:
            # Positions are identical; only the key order (hence creation
            # keys and ambiguous-border ties) can differ from last tick.
            clusters, delta = self._finish(snapshot, frozenset(), (),
                                           prev_labels)
            return clusters, delta, "delta", churn

        # Validate up front so a bad coordinate cannot leave the index
        # half-mutated.
        for o in changed:
            GridIndex._check_finite(o, snapshot[o])

        # Apply the delta to the persistent index, remembering old positions.
        eps = self._eps
        index = self._index
        nbrs = self._nbrs
        touched = set(changed)
        touched.update(removed)
        moved = []
        for o in removed:
            index.remove(o)
        for o in changed:
            if o in self._snapshot:
                moved.append(o)
                index.move(o, snapshot[o])
            else:
                index.insert(o, snapshot[o])

        # Dirty region D: every object whose e-neighbourhood changed — the
        # changed objects plus everything within eps of a changed object's
        # old or new position.  One post-mutation query per changed
        # endpoint both finds D and *patches* the cached neighbour list of
        # every clean member in place (an unmoved object's list gains or
        # loses exactly the changed objects that crossed its eps-disk), so
        # no per-dirty-object re-query is needed.  All queries run against
        # the fully mutated index, so the whole set can be answered as one
        # batch (the vector backend's bulk path); the answers are consumed
        # in the exact order the per-query code issued them.
        inserted = [o for o in changed if o not in self._snapshot]
        queries = [self._snapshot[o] for o in removed]
        for o in moved:
            queries.append(self._snapshot[o])
            queries.append(snapshot[o])
        queries.extend(snapshot[o] for o in inserted)
        answers = iter(self._batch_neighbors(queries, eps))
        dirty = set(changed)
        for o in removed:
            for q in next(answers):
                dirty.add(q)
                if q not in touched:
                    nbrs[q].remove(o)
        for o in moved:
            before = next(answers)
            after = next(answers)
            before_set = set(before)
            after_set = set(after)
            for q in before:
                dirty.add(q)
                if q not in touched and q not in after_set:
                    nbrs[q].remove(o)
            for q in after:
                dirty.add(q)
                if q not in touched and q not in before_set:
                    nbrs[q].append(o)
            nbrs[o] = after
        for o in inserted:
            fresh = next(answers)
            for q in fresh:
                dirty.add(q)
                if q not in touched:
                    nbrs[q].append(o)
            nbrs[o] = fresh
        self.counters["refreshed_neighborhoods"] += len(dirty)

        # Queue components that cannot be spliced: any component owning a
        # previous core that was removed, changed, or sits next to the
        # dirty region (splits route through a lost/demoted core of the
        # component itself; merges and promotions route through a dirty
        # bridge adjacent to one of its cores).
        absorb = set()
        for o in removed:
            label = self._detach_removed(o)
            if label is not None:
                absorb.add(label)
        recluster = set(dirty)
        for q in dirty:
            if q in self._core:
                absorb.add(self._comp_of[q])
            for n in self._nbrs[q]:
                if n in self._core:
                    absorb.add(self._comp_of[n])
                else:
                    recluster.add(n)

        # Absorb queued components whole, pulling their members' neighbours
        # in as individuals (their border assignments may be contested).
        # Cores of un-queued components stay spliced: a clean non-core
        # member cannot carry a merge, so adjacency through it is harmless.
        for label in absorb:
            for mem in self._members[label]:
                recluster.add(mem)
                for n in self._nbrs[mem]:
                    if n in recluster or n in self._core:
                        continue
                    recluster.add(n)
        clusters, delta = self._finish(snapshot, absorb, recluster,
                                       prev_labels)
        return clusters, delta, "delta", churn

    # -- internals ---------------------------------------------------------

    def _batch_neighbors(self, queries, radius):
        """Answer a batch of eps-disk queries against the current index.

        The vector backend answers the whole batch in one pass; the
        python backend issues the same queries one by one.  Per query
        the returned id *set* is identical either way.
        """
        if self._backend == "vector":
            return self._index.neighbors_within_batch(queries, radius)
        index = self._index
        return [index.neighbors_within(xy, radius) for xy in queries]

    def _full_pass(self, snapshot, prev_labels):
        """Rebuild everything from scratch (first call or high churn)."""
        self.counters["full_passes"] += 1
        eps = self._eps
        grid = VectorGridIndex if self._backend == "vector" else GridIndex
        self._index = grid(eps, snapshot)  # validates coordinates
        self._nbrs = self._index.all_neighbors(eps)
        self.counters["refreshed_neighborhoods"] += len(snapshot)
        self._core = set()
        self._comp_of = {}
        self._members = {}
        self._comp_cores = {}
        self._border_cands = {}
        clusters, delta = self._finish(snapshot, frozenset(), set(snapshot),
                                       prev_labels)
        return clusters, delta, "full", len(snapshot)

    def _touch(self, label):
        """Snapshot a component's member set before its first mutation."""
        if label not in self._touched:
            self._touched[label] = set(self._members[label])

    def _detach_removed(self, o):
        """Forget a departed object; return its component label (or None)."""
        self._nbrs.pop(o, None)
        self._border_cands.pop(o, None)
        was_core = o in self._core
        self._core.discard(o)
        label = self._comp_of.pop(o, None)
        if label is not None:
            self._touch(label)
            self._members[label].discard(o)
            if was_core:
                self._comp_cores[label].discard(o)
                return label
        return None

    def _finish(self, snapshot, absorb, recluster, prev_labels):
        """Recluster ``recluster``, splice the rest, emit the sorted answer.

        Args:
            snapshot: the new snapshot (defines the scan order).
            absorb: labels of previous components being dissolved.
            recluster: ids (all present in ``snapshot``) whose density
                connections are rebuilt; every id outside it keeps its core
                status, component and — unless recorded as ambiguous — its
                border assignment.
            prev_labels: the component labels that existed before this tick
                (classifies the delta's appeared/vanished entries).

        Returns:
            ``(clusters, delta)`` — the sorted cluster list and its
            :class:`ClusterDelta`.
        """
        min_pts = self._min_pts
        nbrs = self._nbrs
        core = self._core
        comp_of = self._comp_of
        members = self._members
        comp_cores = self._comp_cores
        self.counters["reclustered_points"] += len(recluster)

        # Detach everything being reclustered.  Cores of spliced components
        # never appear here (the absorption closure guarantees it), so a
        # detached id with a surviving label is one of its borders.
        for label in absorb:
            del members[label]
            del comp_cores[label]
        for q in recluster:
            label = comp_of.pop(q, None)
            if label is not None and label not in absorb:
                self._touch(label)
                members[label].discard(q)
            self._border_cands.pop(q, None)

        # Refresh core status (no-op for ids whose lists did not change).
        for q in recluster:
            if len(nbrs[q]) >= min_pts:
                core.add(q)
            else:
                core.discard(q)

        # Rebuild the core components inside the reclustered region.  Every
        # core adjacent to a reclustered core is itself reclustered — a
        # cross-boundary core adjacency would mean the absorption closure
        # missed a merge, so it is checked outright.
        for q in recluster:
            if q not in core or q in comp_of:
                continue
            label = self._next_label
            self._next_label += 1
            component = []
            stack = [q]
            comp_of[q] = label
            while stack:
                c = stack.pop()
                component.append(c)
                for n in nbrs[c]:
                    if n not in core:
                        continue
                    existing = comp_of.get(n)
                    if existing == label:
                        continue
                    if existing is not None or n not in recluster:
                        raise AssertionError(
                            "incremental clustering invariant violated: "
                            f"core {n!r} adjacent to reclustered core {c!r} "
                            "was spliced"
                        )
                    comp_of[n] = label
                    stack.append(n)
            comp_cores[label] = set(component)
            members[label] = set(component)

        # Creation keys: the sweep order of density_cluster, recomputed
        # against the *current* snapshot's key order every tick.
        position = {o: i for i, o in enumerate(snapshot)}
        creation_key = {
            label: min(position[c] for c in cores)
            for label, cores in comp_cores.items()
        }

        # Borders of the reclustered region: earliest-created adjacent
        # component (which may be a spliced one).
        for q in recluster:
            if q in core:
                continue
            cands = {comp_of[c] for c in nbrs[q] if c in core}
            if not cands:
                continue  # noise
            best = min(cands, key=creation_key.__getitem__)
            comp_of[q] = best
            self._touch(best)
            members[best].add(q)
            if len(cands) > 1:
                self._border_cands[q] = cands

        # Spliced ambiguous borders: the key order may have flipped even
        # though no position changed (snapshot key order is data).
        for q, cands in self._border_cands.items():
            if q in recluster:
                continue
            best = min(cands, key=creation_key.__getitem__)
            current = comp_of[q]
            if best != current:
                self._touch(current)
                self._touch(best)
                members[current].discard(q)
                members[best].add(q)
                comp_of[q] = best

        self._snapshot = dict(snapshot)
        order = sorted(members, key=creation_key.__getitem__)
        # Classify each surviving label exactly: a label is ``unchanged``
        # only when no mutation touched it this tick, or every mutation
        # cancelled out against the pre-tick copy.
        touched = self._touched
        status = []
        for label in order:
            if label not in prev_labels:
                status.append(APPEARED)
            elif label in touched and members[label] != touched[label]:
                status.append(CHANGED)
            else:
                status.append(UNCHANGED)
        delta = ClusterDelta(
            ids=tuple(order),
            status=tuple(status),
            vanished=tuple(sorted(prev_labels - members.keys())),
        )
        return [set(members[label]) for label in order], delta
