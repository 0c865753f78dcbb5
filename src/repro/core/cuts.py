"""CuTS — Convoy discovery Using Trajectory Simplification (Sections 5-6).

The filter-and-refinement pipeline:

1. **Simplify** every trajectory with tolerance δ (DP for CuTS, DP+ for
   CuTS+, DP* for CuTS*), keeping per-segment actual tolerances.
2. **Filter** (Algorithm 2): partition the time domain into λ-point
   windows; inside each window density-cluster the objects' simplified
   polylines, where "within e" means ω ≤ e under the Lemma 1 bound
   (CuTS/CuTS+) or the Lemma 3 bound (CuTS*); chain window clusters through
   the shared-objects test exactly like CMC chains snapshot clusters.
   Candidates that survive at least k time points become convoy candidates.
   The neighbour pairs of every window come from one segment-level join
   per query (:mod:`repro.clustering.spatial_join`): each simplified
   segment pair is settled once, in the first window both segments meet,
   and a link holds in every window they share.
3. **Refine** (Algorithm 3): re-cluster the candidates' objects on their
   *original* trajectories at every time point a candidate covers, and
   chain the snapshot clusters exactly as CMC does; the union of the
   chains, deduplicated, is the answer.  Each snapshot's ε-join runs over
   the filter's own links of that window, not over all pairs: the Lemma
   bounds link every pair of objects that is within e at a time point of
   the window, so the exact distance test on the linked pairs finds every
   neighbour pair a snapshot DBSCAN would (a semijoin reduction).

Because the Lemma bounds never under-estimate closeness, every true convoy
survives the filter (no false dismissals) and every close pair is linked;
refinement then removes the false positives, so the family returns
exactly CMC's result set.

The three paper variants differ only in configuration:

====== ============ ==================
method simplifier   segment distance
====== ============ ==================
CuTS   DP           ``DLL`` (Lemma 1)
CuTS+  DP+          ``DLL`` (Lemma 1)
CuTS*  DP*          ``D*`` (Lemma 3)
====== ============ ==================
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.checks import check_count, check_eps
from repro.clustering.generic_dbscan import density_cluster
from repro.clustering.spatial_join import segment_records, window_links
from repro.core.candidates import CandidateTracker, check_query_counts

# Unused here since the refinement stopped running CMC, but perfbench's
# traced offline_cuts run looks cmc up on this module by name.
from repro.core.cmc import cmc  # noqa: F401
from repro.core.params import compute_delta, compute_lambda
from repro.core.partition import TimePartitioner
from repro.core.verification import normalize_convoys
from repro.simplification import SIMPLIFIERS

#: Configuration of the three paper variants (Section 6.2's summary table).
VARIANTS = {
    "cuts": {"simplifier": "dp", "distance_mode": "dll"},
    "cuts+": {"simplifier": "dp+", "distance_mode": "dll"},
    "cuts*": {"simplifier": "dp*", "distance_mode": "cpa"},
}


@dataclass
class CutsResult:
    """Outcome of a CuTS run, with the instrumentation the benches report.

    Attributes:
        convoys: the final convoy list (normalized: exact duplicates and
            dominated fragments from overlapping candidates removed).
        candidates: the convoy candidates the filter produced, as
            :class:`~repro.core.convoy.Convoy` objects (object superset +
            partition-aligned interval).
        durations: ``{"simplification": s, "filter": s, "refinement": s}``
            wall-clock phase costs (Figure 13's stacked bars).
        refinement_unit: Σ over candidates of ``|objects|² × lifetime`` —
            the filter-effectiveness proxy of Section 7.3 (Figures 16/17).
        delta: the simplification tolerance actually used.
        lam: the partition length actually used.
        simplification: the report dict of
            :func:`repro.simplification.simplification_report`.
        filter_stats: the filter's join counters, in simplified segment
            pairs over the whole query: ``pairs_considered`` pairs reached
            the per-pair test (the Lemma 2 gap test and the exact Lemma 1/3
            kernel; the kernel alone under ``use_lemma2=False``), and
            ``pairs_linked`` of them passed the kernel.  Each segment pair
            counts at most once, however many windows it spans.
    """

    convoys: list
    candidates: list
    durations: dict
    refinement_unit: float
    delta: float
    lam: int
    simplification: dict = field(default_factory=dict)
    filter_stats: dict = field(default_factory=dict)

    @property
    def total_time(self):
        """Total wall-clock time across the three phases."""
        return sum(self.durations.values())


def refinement_unit(candidates):
    """Return the Section 7.3 refinement-cost proxy over the candidates.

    The paper charges each candidate the index-free clustering cost of its
    member objects at every covered time point ("if a convoy candidate has
    3 objects and its lifetime is 2, the refinement unit is 3² × 2 = 18").
    The members the refinement actually re-clusters vary per window (the
    filter cluster the chain passed through), so the unit is summed
    window-wise: Σ over windows of ``|members|² × window_length``.
    """
    total = 0
    for candidate in candidates:
        for ws, we, members in candidate.windows:
            total += len(members) ** 2 * (we - ws + 1)
    return float(total)


def cuts_filter(
    simplified_list,
    m,
    k,
    eps,
    lam,
    t_lo,
    t_hi,
    distance_mode="dll",
    use_actual_tolerance=True,
    use_lemma2=True,
    filter_stats=None,
    paper_semantics=False,
):
    """Run the CuTS filter step (Algorithm 2) over simplified trajectories.

    Args:
        simplified_list: output of one of the
            :data:`repro.simplification.SIMPLIFIERS` applied to every
            trajectory.
        m, k, eps: the convoy query parameters.
        lam: time-partition length λ.
        t_lo, t_hi: the global time domain to partition.
        distance_mode: ``"dll"`` (Lemma 1 — CuTS/CuTS+) or ``"cpa"``
            (Lemma 3 — CuTS*; only sound on DP* output).
        use_actual_tolerance: use per-segment actual tolerances (True, the
            paper's default) or the global δ everywhere (the degraded
            configuration of Figure 14).
        use_lemma2: enable the Lemma 2 box pruning of the segment join
            (ablation switch: off, every time-overlapping segment pair of
            two objects gets the exact test; the answer is the same).
        filter_stats: optional dict accumulating the join's
            ``pairs_considered`` / ``pairs_linked`` counters (segment pairs;
            see :attr:`CutsResult.filter_stats`).
        paper_semantics: candidate-seeding rule; see
            :mod:`repro.core.candidates`.

    Returns:
        ``(candidates, links)``: the
        :class:`~repro.core.candidates.ClosedCandidate` records whose
        filter lifetime is at least ``k``, and ``{window_start: pairs}``
        holding, for every window where the filter found a cluster, the
        flat owner-pair list ``[a1, b1, a2, b2, ...]`` its join linked
        there (owners index ``simplified_list``).  The refinement
        evaluates ``e`` over these pairs only.
    """
    tracker = CandidateTracker(m, k, paper_semantics=paper_semantics)
    windows = TimePartitioner(t_lo, t_hi, lam)
    entering, present = segment_records(
        simplified_list, t_lo, t_hi, lam, eps, mode=distance_mode,
        use_actual_tolerance=use_actual_tolerance,
    )
    candidates = []
    links = {}
    joined = window_links(
        entering, eps, mode=distance_mode, use_lemma2=use_lemma2,
        stats=filter_stats,
    )
    for (lo, hi), members, pairs in zip(windows, present, joined):
        clusters = []
        if len(members) >= m:
            index = {owner: i for i, owner in enumerate(members)}
            adjacency = [[i] for i in range(len(members))]
            for position in range(0, len(pairs), 2):
                i = index[pairs[position]]
                j = index[pairs[position + 1]]
                adjacency[i].append(j)
                adjacency[j].append(i)
            for cluster in density_cluster(
                len(members), adjacency.__getitem__, m
            ):
                clusters.append(
                    {simplified_list[members[i]].object_id for i in cluster}
                )
        if clusters:
            links[lo] = pairs
        candidates.extend(tracker.advance(clusters, lo, hi))
    candidates.extend(tracker.flush())
    return candidates, links


def cuts_refine(database, candidates, links, m, k, eps,
                paper_semantics=False):
    """Run the CuTS refinement step (Algorithm 3, coverage-map form).

    Conceptually, Algorithm 3 re-runs exact CMC per candidate over the
    candidate's objects and time interval.  Doing that literally repeats
    the same snapshot clusterings for every candidate that covers the same
    times, so the refinement instead builds a *coverage map*: for every
    filter window, the union of the members of every candidate cluster
    covering that window.  Every covered time point is clustered once,
    over the covered members alive there, and one
    :class:`~repro.core.candidates.CandidateTracker` chains the clusters
    as CMC does; a time point no candidate covers closes every chain.

    Using per-window cluster members (rather than each chain's final
    intersection) is what keeps refinement exact: any snapshot cluster
    containing a convoy's objects at a covered time is a subset of the
    filter cluster the candidate passed through there, so no density
    bridge is lost.

    Each snapshot's ε-join runs over the window's ``links`` (from
    :func:`cuts_filter`) between covered members, not over all pairs.
    This is exact because the join links every pair of objects that is
    within ``e`` at some time point of the window (Lemmas 1 and 3; the
    join's kernels carry a rounding slack so that ties the snapshot
    predicate accepts are linked too).  Each linked pair then gets the
    snapshot predicate ``dx*dx + dy*dy <= e*e`` of
    :class:`~repro.clustering.grid_index.GridIndex` on positions
    interpolated with the arithmetic of
    :func:`~repro.trajectory.interpolation.interpolate_position`, and
    each snapshot lists its objects in CMC's order (database order,
    stable-sorted by start time), so every clustering is the one CMC
    computes over the same objects.

    Args:
        database: the queried database; its iteration order is the
            filter's owner order.
        candidates: the filter's
            :class:`~repro.core.candidates.ClosedCandidate` records.
        links: the filter's ``{window_start: pairs}``.
        m, k, eps: the convoy query parameters.
        paper_semantics: candidate-seeding rule; see
            :mod:`repro.core.candidates`.

    Returns:
        The refined convoys, not yet normalized.
    """
    coverage = {}
    for candidate in candidates:
        for ws, we, members in candidate.windows:
            have = coverage.get((ws, we))
            if have is None:
                coverage[(ws, we)] = set(members)
            else:
                have |= members
    if not coverage:
        return []
    trajectories = list(database)
    owner_of = {tr.object_id: owner for owner, tr in enumerate(trajectories)}
    # rank[owner]: the owner's place in CMC's snapshot order, database
    # order stable-sorted by start time.
    rank = [0] * len(trajectories)
    by_start = sorted(range(len(trajectories)),
                      key=lambda owner: trajectories[owner].start_time)
    for position, owner in enumerate(by_start):
        rank[owner] = position
    eps2 = eps * eps
    tracker = CandidateTracker(m, k, paper_semantics=paper_semantics)
    closed = []
    t_next = None
    for ws, we in sorted(coverage):
        if t_next is not None and ws > t_next:
            closed += tracker.advance((), t_next, ws - 1)
        t_next = we + 1
        covered = {owner_of[object_id] for object_id in coverage[(ws, we)]}
        flat = links[ws]
        pairs = [
            (a, b) for a, b in zip(flat[::2], flat[1::2])
            if a in covered and b in covered
        ]
        # For m >= 2 an object without a linked partner is noise; for
        # m = 1 it is a cluster of its own.
        involved = covered if m == 1 else {o for pair in pairs for o in pair}
        order = sorted(involved, key=rank.__getitem__)
        local = {owner: i for i, owner in enumerate(order)}
        pairs = [(local[a], local[b]) for a, b in pairs]
        ids = [trajectories[owner].object_id for owner in order]
        n = len(order)
        # frames[t - ws][i]: object i's position at t, None when not alive.
        frames = [[None] * n for _ in range(we - ws + 1)]
        for i, owner in enumerate(order):
            times, xs, ys = trajectories[owner].coordinates()
            t_from = ws if ws > times[0] else times[0]
            t_to = we if we < times[-1] else times[-1]
            if t_from > t_to:
                continue
            j = bisect_left(times, t_from)  # cursor: first sample >= t
            for t in range(t_from, t_to + 1):
                while times[j] < t:
                    j += 1
                if times[j] == t:
                    frames[t - ws][i] = (xs[j], ys[j])
                else:
                    lo = j - 1
                    ratio = (t - times[lo]) / (times[j] - times[lo])
                    frames[t - ws][i] = (
                        xs[lo] + (xs[j] - xs[lo]) * ratio,
                        ys[lo] + (ys[j] - ys[lo]) * ratio,
                    )
        for t, position in enumerate(frames, ws):
            adjacency = [[i] for i in range(n)]
            linked = False
            for a, b in pairs:
                pa = position[a]
                pb = position[b]
                if pa is None or pb is None:
                    continue
                dx = pb[0] - pa[0]
                dy = pb[1] - pa[1]
                if dx * dx + dy * dy <= eps2:
                    adjacency[a].append(b)
                    adjacency[b].append(a)
                    linked = True
            clusters = []
            if linked or m == 1:
                # Objects not alive at t are noise for m >= 2 and clusters
                # of their own for m = 1; the latter are dropped.
                for cluster in density_cluster(n, adjacency.__getitem__, m):
                    if position[cluster[0]] is not None:
                        clusters.append({ids[i] for i in cluster})
            closed += tracker.advance(clusters, t, t)
    closed += tracker.flush()
    return [record.as_convoy() for record in closed]


def cuts(
    database,
    m,
    k,
    eps,
    delta=None,
    lam=None,
    variant="cuts",
    use_actual_tolerance=True,
    use_lemma2=True,
    paper_semantics=False,
):
    """Answer a convoy query with the CuTS family (Sections 5-6).

    Args:
        database: a :class:`repro.trajectory.TrajectoryDatabase`.
        m, k, eps: the convoy query parameters of Definition 3.
        delta: simplification tolerance δ, a finite real >= 0; derived
            via :func:`repro.core.params.compute_delta` when None.
        lam: time-partition length λ, an integer >= 1; derived via
            :func:`repro.core.params.compute_lambda` when None.
        variant: ``"cuts"``, ``"cuts+"``, or ``"cuts*"``.
        use_actual_tolerance: Figure 14 switch — False replaces every
            actual tolerance with the global δ.
        use_lemma2: ablation switch for the Lemma 2 box pruning.
        paper_semantics: candidate-seeding rule for both the filter and the
            refinement CMC; see :mod:`repro.core.candidates`.

    Returns:
        A :class:`CutsResult`; ``result.convoys`` equals (after
        normalization) what :func:`repro.core.cmc.cmc` returns.
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}"
        )
    check_query_counts(m, k)
    check_eps(eps)
    if lam is not None:
        check_count("lambda", lam)
    if delta is not None and (
        isinstance(delta, bool)
        or not isinstance(delta, (int, float))
        or not 0 <= delta < math.inf
    ):
        raise ValueError(
            f"delta must be non-negative and finite, got {delta!r}"
        )
    config = VARIANTS[variant]
    simplifier = SIMPLIFIERS[config["simplifier"]]
    distance_mode = config["distance_mode"]
    if len(database) == 0:
        return CutsResult([], [], {"simplification": 0.0, "filter": 0.0,
                                   "refinement": 0.0}, 0.0, delta or 0.0, lam or 1)

    if delta is None:
        delta = compute_delta(database, eps)

    started = time.perf_counter()
    simplified_list = [simplifier(trajectory, delta) for trajectory in database]
    simplification_seconds = time.perf_counter() - started

    if lam is None:
        lam = compute_lambda(database, simplified_list)

    from repro.simplification import simplification_report

    filter_stats = {}
    started = time.perf_counter()
    candidates, links = cuts_filter(
        simplified_list,
        m,
        k,
        eps,
        lam,
        database.min_time,
        database.max_time,
        distance_mode=distance_mode,
        use_actual_tolerance=use_actual_tolerance,
        use_lemma2=use_lemma2,
        filter_stats=filter_stats,
        paper_semantics=paper_semantics,
    )
    filter_seconds = time.perf_counter() - started

    started = time.perf_counter()
    raw_convoys = cuts_refine(
        database, candidates, links, m, k, eps,
        paper_semantics=paper_semantics,
    )
    refinement_seconds = time.perf_counter() - started

    return CutsResult(
        convoys=normalize_convoys(raw_convoys),
        candidates=[c.as_candidate_convoy() for c in candidates],
        durations={
            "simplification": simplification_seconds,
            "filter": filter_seconds,
            "refinement": refinement_seconds,
        },
        refinement_unit=refinement_unit(candidates),
        delta=delta,
        lam=lam,
        simplification=simplification_report(simplified_list),
        filter_stats=filter_stats,
    )
