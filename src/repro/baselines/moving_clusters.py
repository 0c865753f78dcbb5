"""MC2 — moving clusters as a (flawed) convoy answer (Section 2.1, App. B.1).

A *moving cluster* (Kalnis et al. [19]) is a sequence of snapshot clusters
``c_t, c_{t+1}, ...`` at consecutive time points whose Jaccard overlap
never drops below a threshold θ:

    ``|c_t ∩ c_{t+1}| / |c_t ∪ c_{t+1}| >= θ``.

Two semantic gaps make this the wrong tool for convoy queries, which
Appendix B.1 quantifies and :mod:`benchmarks.bench_fig19_mc2_quality`
reproduces:

* no value of θ recovers exact intersection semantics — objects may join
  and leave while the chain survives, so the "common objects" of a moving
  cluster need not stay together (false positives, Figure 2(b));
* there is no lifetime constraint ``k``, and θ-chaining can cut a genuine
  convoy into fragments shorter than ``k`` (false negatives, Figure 2(a)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checks import check_count, check_eps
from repro.clustering.dbscan import dbscan
from repro.core.convoy import Convoy
from repro.streaming.source import replay_database


@dataclass(frozen=True)
class MovingCluster:
    """One discovered moving cluster.

    Attributes:
        snapshots: tuple of frozensets — the member objects at each
            consecutive time point of the chain.
        t_start: time point of the first snapshot.
    """

    snapshots: tuple
    t_start: int

    @property
    def t_end(self):
        """Time point of the last snapshot."""
        return self.t_start + len(self.snapshots) - 1

    @property
    def lifetime(self):
        """Number of consecutive time points the chain covers."""
        return len(self.snapshots)

    @property
    def common_objects(self):
        """Objects present in *every* snapshot of the chain."""
        common = set(self.snapshots[0])
        for snapshot in self.snapshots[1:]:
            common &= snapshot
        return frozenset(common)

    def as_convoy(self):
        """Report the chain as a convoy answer: common objects + interval.

        Returns None when no object survived the whole chain (possible
        under θ < 1, another way moving clusters diverge from convoys).
        """
        common = self.common_objects
        if not common:
            return None
        return Convoy(common, self.t_start, self.t_end)


def mc2(database, eps, min_pts, theta, time_range=None):
    """Discover moving clusters with the MC2 greedy chaining.

    Args:
        database: a :class:`repro.trajectory.TrajectoryDatabase`.
        eps: snapshot DBSCAN distance threshold (the convoy ``e``).
        min_pts: snapshot DBSCAN density (the convoy ``m``).
        theta: Jaccard-overlap threshold θ in (0, 1].
        time_range: optional ``(t_lo, t_hi)`` restriction, as
            :func:`~repro.streaming.source.replay_database` takes it.

    Returns:
        List of :class:`MovingCluster`, in discovery order.  A snapshot
        cluster extends every chain whose last snapshot meets the θ test
        (and starts a fresh chain when it extends none), mirroring the
        greedy formulation the paper attributes to MC2.
    """
    check_eps(eps)
    check_count("min_pts", min_pts)
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must be in (0, 1], got {theta}")

    results = []
    live = []  # list of (snapshots list, t_start) chains alive at t-1
    for t, snapshot in replay_database(database, time_range):
        clusters = (
            [frozenset(c) for c in dbscan(snapshot, eps, min_pts)]
            if len(snapshot) >= min_pts
            else []
        )
        next_live = []
        extended_clusters = set()
        for snaps, start in live:
            last = snaps[-1]
            assigned = False
            for index, cluster in enumerate(clusters):
                union = len(last | cluster)
                if union == 0:
                    continue
                if len(last & cluster) / union >= theta:
                    assigned = True
                    extended_clusters.add(index)
                    next_live.append((snaps + [cluster], start))
            if not assigned:
                results.append(MovingCluster(tuple(snaps), start))
        for index, cluster in enumerate(clusters):
            if index not in extended_clusters:
                next_live.append(([cluster], t))
        live = next_live
    results.extend(MovingCluster(tuple(snaps), start) for snaps, start in live)
    return results


def mc2_convoy_answers(database, eps, min_pts, theta, time_range=None):
    """Return MC2's moving clusters reinterpreted as convoy answers.

    This is the ``Rm`` of Appendix B.1: each moving cluster contributes its
    common-object set over its full interval (chains with no surviving
    common object are dropped).  No ``k`` filtering happens here — the
    *absence* of the lifetime constraint is part of what Figure 19
    measures.
    """
    answers = []
    for cluster in mc2(database, eps, min_pts, theta, time_range=time_range):
        convoy = cluster.as_convoy()
        if convoy is not None:
            answers.append(convoy)
    return answers
