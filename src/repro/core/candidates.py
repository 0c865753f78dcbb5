"""Convoy-candidate bookkeeping shared by CMC and the CuTS filter.

Both Algorithm 1 (CMC, one step per time point) and Algorithm 2 (CuTS
filter, one step per λ-length time partition) run the same loop around
their clustering call:

* every live candidate ``v`` is joined with every new cluster ``c``; when
  ``|c ∩ v| >= m`` the candidate survives as ``c ∩ v`` with its end time
  advanced;
* candidates no cluster extends die — and are *reported* if they lasted at
  least ``k`` time points;
* clusters seed new candidates.

:class:`CandidateTracker` implements that loop once.  Lifetimes are tracked
as closed time intervals (``end - start + 1``), which coincides with
Algorithm 1's per-step counter and with Algorithm 2's ``+= λ`` counter
because extension steps are always temporally contiguous.

Three deliberate deviations from the published pseudocode, the first and
third governed by ``paper_semantics``:

1. **Complete seeding (default).**  Algorithm 1 line 20 seeds a cluster as
   a new candidate only when it extended *no* existing candidate.  That
   rule loses convoys: when a cluster ``c`` extends a candidate ``v`` the
   chain narrows to ``c ∩ v``, and a convoy formed by ``c``'s *full*
   membership starting at the current step is never tracked (later convoy
   literature documents this incompleteness of CMC, e.g. Aung & Tan's
   "valid convoy" line of work).  The default semantics seeds every
   cluster as a fresh candidate **unless some surviving candidate already
   has exactly the cluster's object set** — an equal-set survivor evolves
   identically ever after, so the suppressed seed could only ever report a
   time-dominated fragment of what the survivor reports.  This keeps the
   candidate count linear on stable groups while restoring completeness.
   ``paper_semantics=True`` reproduces the published rule verbatim (the
   semantics ablation bench compares the two).

2. **Gap handling.**  When a step has no clusters (fewer than ``m``
   objects alive, or none close together), Algorithm 1 lines 5-6 "skip
   the iteration" leaving ``V`` intact, which would let a candidate bridge
   a time point where its objects were provably not density-connected —
   contradicting Definition 3's "k consecutive time points".  The tracker
   instead closes every live candidate on such steps.  This deviation is
   unconditional: feeding an empty cluster list to :meth:`advance` always
   ends every chain.

3. **Report on narrowing (default).**  Under the published rule a chain
   that *narrows* (every extending cluster drops some of its members) just
   continues with the intersection; the pre-narrowing member set — which
   was density-connected at every step since the chain's start, a maximal
   run per Definition 3 — is silently forgotten.  The default semantics
   closes that run (reporting it when it lived >= k) whenever no extension
   preserves the full member set, while the narrowed children continue.
   Besides completeness, this is what makes the CuTS refinement's answer
   *equal* to CMC's: a refinement window necessarily cuts chains at the
   candidate boundary, and the window-end flush of a still-narrowing chain
   only matches a run the global algorithm actually reports if narrowing
   runs are reported globally too.

The tracker also records, per candidate, the **cluster the chain passed
through in every time window**.  The CuTS refinement step needs it: the
intersection alone can drop "bridge" objects that connected the convoy's
members at individual time points, and re-clustering without the bridges
would break density connections that exist in the full database.  (Any
snapshot cluster containing the chain's objects at a covered time is a
subset of the chain's window cluster there, because density clusters are
disjoint and the window cluster contains the chain's objects.)  Window
histories are kept as shared-prefix cons lists so a long chain costs O(1)
per step, and are only materialized when a chain closes.

Match, apply
------------

:meth:`CandidateTracker.advance` is factored as *match → apply*: the
pure kernel :func:`match_candidates` joins every live candidate with
every cluster in bulk, behind the :meth:`CandidateTracker._match_live`
method, and one ordered apply pass replays the classic
survivor/seed/report logic from the match results.  Because the kernel
is a pure function of ``(clusters, object sets)`` and the apply pass
runs strictly in live-list order, the match step can be swapped for any
function with the same contract without moving a single report or
survivor out of the classic deterministic order — the tests swap in the
pairwise reference :func:`match_candidates_pairwise` this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from repro.checks import check_count
from repro.core.convoy import Convoy

#: Counter keys a tracker maintains in its ``counters`` dict.
#: ``spliced_candidates`` is always 0; it stays for readers that look
#: the key up by name.
COUNTER_KEYS = (
    "advance_steps",
    "spliced_candidates",
    "reintersected_candidates",
)


def check_query_counts(m, k):
    """Raise :class:`ValueError` unless ``m`` and ``k`` are integers >= 1."""
    check_count("m", m)
    check_count("k", k)


#: A candidate probes the owner table only when its probe count plus
#: this margin is below the number of clusters.  Measured once on
#: recorded match calls of the dense and small-delta regimes of
#: ``benchmarks/bench_match_kernel.py`` and of the fresh-DBSCAN pack
#: stream: below 8 the small-delta calls, whose few tiny candidates gain
#: little from probing, pay more for the owner table than probing
#: saves; 8 to 16 time alike elsewhere.
_PROBE_MARGIN = 8


def match_candidates(members, candidates, min_objects):
    """Pure matching kernel: the tracker's match step for one advance.

    One join, two access paths per candidate.  Density clusters are
    disjoint, so a cluster sharing at least ``m`` of a candidate's ``n``
    objects must own one of *any* ``n - m + 1`` of them: looking those
    objects up in an owner table (built lazily, once per call) names
    every cluster that can match, and only those are intersected — a
    semijoin in place of the ``candidates x clusters`` pairwise scan.  A
    candidate takes that probe path when ``n - m + 1`` lookups (plus a
    small constant margin) are cheaper than scanning every cluster;
    otherwise it intersects pairwise exactly as
    :func:`match_candidates_pairwise` does.  An overlapping cluster
    family — legal here, never produced by DBSCAN — has no owner table,
    and the whole call falls back to the pairwise loop.

    Args:
        members: list of cluster member ``frozenset``s for this step.
        candidates: list of candidate object sets.
        min_objects: the convoy query's ``m``.

    Returns:
        One list per candidate, in candidate order, of the
        ``(cluster_index, intersection)`` pairs with
        ``len(intersection) >= min_objects``, in cluster-index order —
        exactly what :func:`match_candidates_pairwise` returns.
    """
    n_clusters = len(members)
    every = range(n_clusters)
    # A candidate probes when n - m + 1 + _PROBE_MARGIN < n_clusters, i.e.
    # when n_clusters exceeds n + reach; m < 1 matches clusters no object
    # names, so never.
    reach = _PROBE_MARGIN + 1 - min_objects if min_objects >= 1 else math.inf
    owner = None
    out = []
    append = out.append
    for objects in candidates:
        if n_clusters <= len(objects) + reach:
            append(_scan_pairs(members, objects, every, min_objects))
            continue
        probes = len(objects) - min_objects + 1
        if probes <= 0:
            append([])  # fewer than m objects: nothing can match
            continue
        if owner is None:
            owner = _owner_table(members)
            if owner is None:  # overlapping clusters: pairwise from here on
                reach = math.inf
                append(_scan_pairs(members, objects, every, min_objects))
                continue
        hit = set(map(owner.get, islice(objects, probes)))
        hit.discard(None)
        append(_scan_pairs(members, objects, sorted(hit), min_objects))
    return out


def match_candidates_pairwise(members, candidates, min_objects):
    """The pairwise matching loop: one set intersection per pair.

    Same contract as :func:`match_candidates`, for any cluster family.
    :func:`match_candidates` runs it for candidates too small to probe
    and for overlapping families; the tests hold the join equal to it.
    """
    every = range(len(members))
    return [
        _scan_pairs(members, objects, every, min_objects)
        for objects in candidates
    ]


def _scan_pairs(members, objects, indexes, min_objects):
    """One candidate's matches among the clusters at ``indexes``."""
    matches = []
    for index in indexes:
        common = objects & members[index]
        if len(common) >= min_objects:
            matches.append((index, common))
    return matches


def _owner_table(members):
    """``{object: cluster index}``, or None when clusters overlap."""
    owner = {}
    size = 0
    for index, cluster in enumerate(members):
        owner.update(dict.fromkeys(cluster, index))
        size += len(cluster)
    return owner if len(owner) == size else None


@dataclass(frozen=True)
class ClosedCandidate:
    """A candidate chain that ended with lifetime >= k.

    Attributes:
        objects: the chain's running intersection — the convoy's member
            set under the intersection semantics of Algorithms 1/2.
        t_start, t_end: the closed time interval the chain covered.
        windows: tuple of ``(window_start, window_end, members)`` — the
            cluster the chain passed through in each step window, in time
            order.  Refinement re-clusters exactly these objects at the
            covered times.
    """

    objects: frozenset
    t_start: int
    t_end: int
    windows: tuple

    @property
    def lifetime(self):
        """Number of time points covered (``t_end - t_start + 1``)."""
        return self.t_end - self.t_start + 1

    @property
    def union(self):
        """Every object appearing in any window cluster along the chain."""
        merged = set()
        for _ws, _we, members in self.windows:
            merged |= members
        return frozenset(merged)

    def as_convoy(self):
        """The chain's answer as a :class:`~repro.core.convoy.Convoy`."""
        return Convoy(self.objects, self.t_start, self.t_end)

    def as_candidate_convoy(self):
        """The chain's *union* as a convoy-shaped summary of the candidate."""
        return Convoy(self.union, self.t_start, self.t_end)


class _Live:
    """One live candidate chain (mutable while tracked).

    ``history`` is a cons node ``(parent_node, ws, we, members)`` sharing
    its prefix with the parent chain's node.
    """

    __slots__ = ("objects", "t_start", "t_end", "history")

    def __init__(self, objects, t_start, t_end, history):
        self.objects = objects
        self.t_start = t_start
        self.t_end = t_end
        self.history = history

    @property
    def lifetime(self):
        return self.t_end - self.t_start + 1

    def close(self):
        windows = []
        node = self.history
        while node is not None:
            parent, ws, we, members = node
            windows.append((ws, we, members))
            node = parent
        windows.reverse()
        return ClosedCandidate(
            self.objects, self.t_start, self.t_end, tuple(windows)
        )


class CandidateTracker:
    """Incremental candidate maintenance for CMC / the CuTS filter.

    Args:
        min_objects: the convoy query's ``m``.
        min_lifetime: the convoy query's ``k`` (in time points).
        paper_semantics: reproduce Algorithm 1's seeding rule verbatim
            (False by default — see the module docstring).
        counters: optional dict receiving bookkeeping totals (the
            ``COUNTER_KEYS``); a fresh dict is created when omitted and is
            always available as :attr:`counters`.

    Usage: call :meth:`advance` once per time step (or partition) with
    the clusters found there; collect the :class:`ClosedCandidate`
    records it reports; call :meth:`flush` after the last step.
    """

    def __init__(self, min_objects, min_lifetime, paper_semantics=False,
                 counters=None):
        check_query_counts(min_objects, min_lifetime)
        self._m = min_objects
        self._k = min_lifetime
        self._paper_semantics = paper_semantics
        self._candidates = []
        self._last_end = None
        self.counters = counters if counters is not None else {}
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)

    @property
    def live_candidates(self):
        """Snapshot of the live candidate set (for introspection/tests)."""
        return [
            Convoy(c.objects, c.t_start, c.t_end) for c in self._candidates
        ]

    @property
    def live_count(self):
        """Number of live candidate chains (O(1), for monitoring)."""
        return len(self._candidates)

    @property
    def oldest_live_start(self):
        """Earliest ``t_start`` among live chains (None when none live).

        Every convoy this tracker can still close starts at or after
        this time — the retention horizon for anything buffering
        per-tick context alongside the tracker (the persistence sink's
        position log prunes below it)."""
        if not self._candidates:
            return None
        return min(candidate.t_start for candidate in self._candidates)

    def _match_live(self, members, candidates):
        """Join the live object sets with the step's clusters.

        Runs :func:`match_candidates`; a subclass may override this one
        method with any function of the kernel's contract (the tests
        substitute the pairwise reference).
        """
        return match_candidates(members, candidates, self._m)

    def advance(self, clusters, window_start, window_end):
        """Process one time step covering ``[window_start, window_end]``.

        Args:
            clusters: iterable of object-id sets found by this step's
                density clustering.  Clusters smaller than ``m`` are
                ignored (DBSCAN with ``min_pts = m`` never produces them,
                but the tracker does not rely on that).
            window_start, window_end: closed time interval the step covers.
                CMC passes ``t, t``; the CuTS filter passes the partition
                bounds.  Steps must be fed in ascending, non-overlapping
                time order.

        Returns:
            List of :class:`ClosedCandidate` — chains that died at this
            step after living at least ``k`` time points.
        """
        if window_end < window_start:
            raise ValueError(
                f"window reversed: [{window_start}, {window_end}]"
            )
        if self._last_end is not None and window_start <= self._last_end:
            raise ValueError(
                f"steps must advance in time: window [{window_start}, "
                f"{window_end}] does not start after the previous end "
                f"{self._last_end}"
            )
        self._last_end = window_end
        self.counters["advance_steps"] += 1
        usable = [frozenset(c) for c in clusters if len(c) >= self._m]
        if usable:
            # Clusterless steps (gaps, below-m snapshots) close every chain
            # without a single set intersection, so they count none.
            self.counters["reintersected_candidates"] += len(self._candidates)
            matched = self._match_live(
                usable, [candidate.objects for candidate in self._candidates]
            )
        else:
            matched = [()] * len(self._candidates)
        closed = []
        survivors = {}  # (objects, t_start) -> _Live
        extended = [False] * len(usable)
        for candidate, matches in zip(self._candidates, matched):
            assigned = False
            preserved = False  # some extension kept the full member set
            for index, common in matches:
                assigned = True
                extended[index] = True
                if len(common) == len(candidate.objects):
                    preserved = True
                key = (common, candidate.t_start)
                if key not in survivors:
                    # A duplicate key means two parents were extended by
                    # the same cluster into identical chains; either
                    # parent's window history is sound (every historical
                    # window cluster contains the chain's objects), so
                    # the first one is kept.
                    survivors[key] = _Live(
                        common,
                        candidate.t_start,
                        window_end,
                        (candidate.history, window_start, window_end,
                         usable[index]),
                    )
            if self._paper_semantics:
                report_run = not assigned
            else:
                report_run = not preserved
            if report_run and candidate.lifetime >= self._k:
                closed.append(candidate.close())
        survivor_objects = {live.objects for live in survivors.values()}
        for index, cluster in enumerate(usable):
            if self._paper_semantics:
                seed = not extended[index]
            else:
                seed = cluster not in survivor_objects
            if seed:
                key = (cluster, window_start)
                if key not in survivors:
                    survivors[key] = _Live(
                        cluster,
                        window_start,
                        window_end,
                        (None, window_start, window_end, cluster),
                    )
        self._candidates = list(survivors.values())
        return closed

    def prune_longer_than(self, max_lifetime):
        """Force-close every live chain that has lived ``max_lifetime`` points.

        The streaming engine's bounded-memory window: a chain's per-step
        history grows with its age, so capping the age caps memory at
        O(live chains x max_lifetime).  Pruned chains are reported when they
        qualify (lifetime >= k); their objects may immediately re-seed a
        fresh chain from the next step's clusters, so a convoy outliving the
        window is reported as consecutive fragments rather than dropped.

        Args:
            max_lifetime: close chains whose lifetime reached this many time
                points.  Must be >= the tracker's ``k`` or no pruned chain
                could ever be reported.

        Returns:
            List of :class:`ClosedCandidate` for the pruned chains that
            lived at least ``k`` time points.
        """
        if max_lifetime < self._k:
            raise ValueError(
                f"max_lifetime must be >= k={self._k}, got {max_lifetime}"
            )
        kept = []
        closed = []
        for candidate in self._candidates:
            if candidate.lifetime >= max_lifetime:
                # max_lifetime >= k, so every pruned chain qualifies.
                closed.append(candidate.close())
            else:
                kept.append(candidate)
        self._candidates = kept
        return closed

    def flush(self):
        """Close every remaining candidate; return the qualifying records.

        Must be called once after the final :meth:`advance`; the tracker
        can then be discarded.
        """
        closed = [
            candidate.close()
            for candidate in self._candidates
            if candidate.lifetime >= self._k
        ]
        self._candidates = []
        return closed
