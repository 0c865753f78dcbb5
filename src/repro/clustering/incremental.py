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

The clusterer hands on cluster lists only: the candidate tracker joins
every live candidate with every cluster each tick
(:meth:`repro.core.candidates.CandidateTracker.advance`), so nothing
downstream needs to know which clusters a tick left untouched.
"""

from __future__ import annotations

import math
import time

from repro.checks import check_count
from repro.clustering.grid_index import GridIndex


class AdaptiveChurnThreshold:
    """Online estimate of the delta-vs-full crossover churn fraction.

    The fixed ``churn_threshold`` default encodes a one-off measurement of
    where delta maintenance stops paying.  That crossover moves with the
    hardware and the workload's cluster geometry, so this policy measures
    instead of assuming.

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
            for a core object, the object itself included; an integer
            >= 1).
        churn_threshold: fall back to a full rebuild when more than this
            fraction of the snapshot changed since the previous tick
            (insertions + removals + moves, over the new snapshot size).
            A float fixes the threshold; the string ``"adaptive"`` (or an
            :class:`AdaptiveChurnThreshold` instance) estimates the
            crossover online from measured pass costs instead.
        counters: optional dict receiving bookkeeping totals (the
            ``COUNTER_KEYS``); a fresh dict is created when omitted and is
            always available as :attr:`counters`.
    """

    def __init__(self, eps, min_pts, churn_threshold=0.35, counters=None):
        if not 0 < eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        check_count("min_pts", min_pts)
        if churn_threshold == "adaptive":
            self._adaptive = AdaptiveChurnThreshold()
        elif isinstance(churn_threshold, AdaptiveChurnThreshold):
            self._adaptive = churn_threshold
        else:
            if (
                isinstance(churn_threshold, bool)
                or not isinstance(churn_threshold, (int, float))
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
        started = time.perf_counter() if self._adaptive is not None else None
        clusters, pass_kind, churn = self._cluster_impl(snapshot)
        if started is not None:
            elapsed = time.perf_counter() - started
            if pass_kind == "full":
                self._adaptive.observe_full(len(snapshot), elapsed)
            else:
                self._adaptive.observe_delta(churn, len(snapshot), elapsed)
        return clusters

    def _cluster_impl(self, snapshot):
        """Run one tick; return ``(clusters, pass_kind, churn)``."""
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
        if churn > self.churn_threshold * max(len(snapshot), 1):
            return self._full_pass(snapshot)
        self.counters["incremental_passes"] += 1
        if churn == 0:
            # Positions are identical; only the key order (hence creation
            # keys and ambiguous-border ties) can differ from last tick.
            return self._finish(snapshot, frozenset(), ()), "delta", churn

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
        return self._finish(snapshot, absorb, recluster), "delta", churn

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
        clusters = self._finish(snapshot, frozenset(), set(snapshot))
        return clusters, "full", len(snapshot)

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
