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
:data:`CHURN_THRESHOLD` of the snapshot, delta maintenance would touch
most of the data anyway, so the clusterer falls back to a full rebuild —
the same code path with every object dirty.  Correctness never depends on
the threshold; it only trades constant factors.

The clusterer hands on cluster lists only: the candidate tracker joins
every live candidate with every cluster each tick
(:meth:`repro.core.candidates.CandidateTracker.advance`), so nothing
downstream needs to know which clusters a tick left untouched.
"""

from __future__ import annotations

from repro.checks import check_count, check_eps
from repro.clustering.grid_index import GridIndex

#: Fall back to a full rebuild when more than this fraction of the
#: snapshot changed since the previous tick (insertions + removals +
#: moves, over the new snapshot size).  Read on every tick.  The value
#: is where a delta pass stops beating the clusterer's own full pass on
#: ``benchmarks/bench_incremental_tracking.py``'s stream: 0.92x its cost
#: at 19.8% churn, 1.05x at 20.8% (2-vCPU VM, Python 3.11).
CHURN_THRESHOLD = 0.20

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
            for a core object, the object itself included; an integer
            >= 1).
        counters: optional dict receiving bookkeeping totals (the
            ``COUNTER_KEYS``); a fresh dict is created when omitted and is
            always available as :attr:`counters`.
    """

    def __init__(self, eps, min_pts, counters=None):
        check_eps(eps)
        check_count("min_pts", min_pts)
        self._eps = float(eps)
        self._min_pts = min_pts
        self.counters = counters if counters is not None else {}
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)
        self.reset()

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
        self.counters["ticks"] += 1
        self.counters["clustered_points"] += len(snapshot)
        if self._snapshot is None:
            return self._full_pass(snapshot)

        removed = [o for o in self._snapshot if o not in snapshot]
        changed = [
            o for o, xy in snapshot.items()
            if o not in self._snapshot or self._snapshot[o] != xy
        ]
        churn = len(removed) + len(changed)
        if churn > CHURN_THRESHOLD * max(len(snapshot), 1):
            return self._full_pass(snapshot)
        self.counters["incremental_passes"] += 1
        if churn == 0:
            # Positions are identical; only the key order (hence creation
            # keys and ambiguous-border ties) can differ from last tick.
            return self._finish(snapshot, frozenset(), ())

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
        # the fully mutated index.
        inserted = [o for o in changed if o not in self._snapshot]
        dirty = set(changed)
        for o in removed:
            for q in index.neighbors_within(self._snapshot[o], eps):
                dirty.add(q)
                if q not in touched:
                    nbrs[q].remove(o)
        for o in moved:
            before = index.neighbors_within(self._snapshot[o], eps)
            after = index.neighbors_within(snapshot[o], eps)
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
            fresh = index.neighbors_within(snapshot[o], eps)
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
        return self._finish(snapshot, absorb, recluster)

    # -- internals ---------------------------------------------------------

    def _full_pass(self, snapshot):
        """Rebuild everything from scratch (first call or high churn)."""
        self.counters["full_passes"] += 1
        eps = self._eps
        self._index = GridIndex(eps, snapshot)  # validates coordinates
        self._nbrs = self._index.all_neighbors(eps)
        self.counters["refreshed_neighborhoods"] += len(snapshot)
        self._core = set()
        self._comp_of = {}
        self._members = {}
        self._comp_cores = {}
        self._border_cands = {}
        return self._finish(snapshot, frozenset(), set(snapshot))

    def _detach_removed(self, o):
        """Forget a departed object; return its component label (or None)."""
        self._nbrs.pop(o, None)
        self._border_cands.pop(o, None)
        was_core = o in self._core
        self._core.discard(o)
        label = self._comp_of.pop(o, None)
        if label is not None:
            self._members[label].discard(o)
            if was_core:
                self._comp_cores[label].discard(o)
                return label
        return None

    def _finish(self, snapshot, absorb, recluster):
        """Recluster ``recluster``, splice the rest, emit the sorted answer.

        Args:
            snapshot: the new snapshot (defines the scan order).
            absorb: labels of previous components being dissolved.
            recluster: ids (all present in ``snapshot``) whose density
                connections are rebuilt; every id outside it keeps its core
                status, component and — unless recorded as ambiguous — its
                border assignment.

        Returns:
            The cluster list, sorted by creation key.
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
                members[current].discard(q)
                members[best].add(q)
                comp_of[q] = best

        self._snapshot = dict(snapshot)
        order = sorted(members, key=creation_key.__getitem__)
        return [set(members[label]) for label in order]
