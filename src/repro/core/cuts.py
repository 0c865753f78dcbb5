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
3. **Refine** (Algorithm 3): for each candidate, run exact CMC over the
   candidate objects' *original* trajectories restricted to the candidate's
   time interval; the union of these runs, deduplicated, is the answer.

Because the Lemma bounds never under-estimate closeness, every true convoy
survives the filter (no false dismissals); refinement then removes the
false positives, so the family returns exactly CMC's result set.

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
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.checks import check_count
from repro.clustering.generic_dbscan import density_cluster
from repro.clustering.spatial_join import segment_records, window_links
from repro.core.candidates import CandidateTracker, check_query_counts
from repro.core.cmc import cmc
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
        List of :class:`~repro.core.candidates.ClosedCandidate` records
        whose filter lifetime is at least ``k``.
    """
    tracker = CandidateTracker(m, k, paper_semantics=paper_semantics)
    windows = TimePartitioner(t_lo, t_hi, lam)
    entering, present = segment_records(
        simplified_list, t_lo, t_hi, lam, eps, mode=distance_mode,
        use_actual_tolerance=use_actual_tolerance,
    )
    candidates = []
    links = window_links(
        entering, eps, mode=distance_mode, use_lemma2=use_lemma2,
        stats=filter_stats,
    )
    for (lo, hi), members, pairs in zip(windows, present, links):
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
        candidates.extend(tracker.advance(clusters, lo, hi))
    candidates.extend(tracker.flush())
    return candidates


def cuts_refine(database, candidates, m, k, eps, paper_semantics=False):
    """Run the CuTS refinement step (Algorithm 3, coverage-map form).

    Conceptually, Algorithm 3 re-runs exact CMC per candidate over the
    candidate's objects and time interval.  Doing that literally repeats
    the same snapshot clusterings for every candidate that covers the same
    times, so the refinement instead builds a *coverage map*: for every
    time window, the union of the members of every candidate cluster
    covering that window.  One CMC pass per contiguous covered region,
    with the snapshot at each time restricted to the covered members,
    performs each candidate's re-clustering exactly once.

    Using per-window cluster members (rather than each chain's final
    intersection) is what keeps refinement exact: any snapshot cluster
    containing a convoy's objects at a covered time is a subset of the
    filter cluster the candidate passed through there, so no density
    bridge is lost.
    """
    coverage = {}
    for candidate in candidates:
        for window in candidate.windows:
            ws, we, members = window
            have = coverage.get((ws, we))
            if have is None:
                coverage[(ws, we)] = set(members)
            else:
                have |= members
    if not coverage:
        return []
    windows = sorted(coverage)
    blocks = [[windows[0]]]
    for window in windows[1:]:
        if window[0] == blocks[-1][-1][1] + 1:
            blocks[-1].append(window)
        else:
            blocks.append([window])
    convoys = []
    for block in blocks:
        t_lo = block[0][0]
        t_hi = block[-1][1]
        union = set()
        for window in block:
            union |= coverage[window]
        sub_db = database.restricted(union, t_lo, t_hi)
        if len(sub_db) < m:
            continue
        starts = [window[0] for window in block]
        members = [coverage[window] for window in block]

        def allowed_at(t, starts=starts, members=members):
            return members[bisect_right(starts, t) - 1]

        convoys.extend(
            cmc(
                sub_db,
                m,
                k,
                eps,
                time_range=(t_lo, t_hi),
                paper_semantics=paper_semantics,
                allowed_at=allowed_at,
            )
        )
    return convoys


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
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
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
    candidates = cuts_filter(
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
        database, candidates, m, k, eps, paper_semantics=paper_semantics
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
