"""Result verification, normalization, and quality metrics.

Three jobs:

* **Validity** (:func:`is_valid_convoy`) — check a reported convoy against
  Definition 3 directly on the database's snapshots (the ``O_t`` that
  :func:`~repro.streaming.source.replay_database` produces): at every
  time point of its interval the member objects must lie in one
  density-connected cluster, and the size/lifetime thresholds must
  hold.  This is the ground-truth oracle the tests and the Appendix B.1
  experiment use.
* **Normalization** (:func:`normalize_convoys`) — the CuTS refinement can
  emit the same true convoy from several overlapping candidates, possibly
  as time- or member-fragments of one another; normalization removes exact
  duplicates and dominated fragments so result sets compare cleanly.
* **Quality rates** (:func:`false_positive_rate`,
  :func:`false_negative_rate`) — the Figure 19 metrics comparing a
  baseline's answer set ``Rm`` against the exact set ``Rc``.
"""

from __future__ import annotations

from repro.clustering.dbscan import dbscan
from repro.streaming.source import replay_database


def is_valid_convoy(database, convoy, m, k, eps):
    """Check a convoy against Definition 3 by direct re-clustering.

    Args:
        database: the full trajectory database the query ran on.
        convoy: the :class:`~repro.core.convoy.Convoy` to validate.
        m, k, eps: the query parameters.

    Returns:
        True iff the convoy has at least ``m`` members, lives at least
        ``k`` time points, every member is alive throughout the interval,
        and at every time point of the interval all members belong to one
        density-connected cluster of the *full* snapshot.
    """
    # An empty database replays no tick, so the loop below would hold
    # every convoy; it holds none.
    if convoy.size < m or convoy.lifetime < k or len(database) == 0:
        return False
    for _t, snapshot in replay_database(database, convoy.interval):
        if not convoy.objects <= snapshot.keys():
            return False
        clusters = dbscan(snapshot, eps, m)
        if not any(convoy.objects <= cluster for cluster in clusters):
            return False
    return True


def normalize_convoys(convoys):
    """Return a deduplicated, dominance-pruned, deterministically-ordered list.

    A convoy is dropped when another reported convoy *dominates* it — same
    or larger object set over a same-or-larger interval — because the
    dominated one is a fragment carrying no extra information.  Two
    identical convoys collapse to one.
    """
    unique = list(dict.fromkeys(convoys))
    unique.sort(key=lambda c: (-c.lifetime, -c.size))
    kept = []
    for convoy in unique:
        if any(other.dominates(convoy) for other in kept):
            continue
        kept.append(convoy)
    kept.sort(key=lambda c: c.sort_key())
    return kept


def convoy_sets_equal(left, right):
    """Return True if two result lists are equal after normalization."""
    return normalize_convoys(left) == normalize_convoys(right)


def _covered_by(convoy, reference_set):
    """True if some reference convoy dominates ``convoy``."""
    return any(ref.dominates(convoy) for ref in reference_set)


def false_positive_rate(reported, database, m, k, eps):
    """Fraction of reported convoys that are not valid convoys (Fig 19(a)).

    The paper measures ``|Rm − Rc| / |Rm|`` — the share of the baseline's
    answers that do not "satisfy the query condition with respect to m, k,
    and e".  We check the condition directly with
    :func:`is_valid_convoy` rather than by matching against the exact
    result list, which is the same criterion without tying the metric to
    CMC's particular fragmentation of the answer.

    Returns a percentage in [0, 100]; 0 for an empty report.
    """
    if not reported:
        return 0.0
    invalid = sum(
        1 for convoy in reported
        if not is_valid_convoy(database, convoy, m, k, eps)
    )
    return 100.0 * invalid / len(reported)


def false_negative_rate(reported, exact):
    """Fraction of exact convoys the baseline missed (Fig 19(b)).

    The paper measures ``|Rc − Rm| / |Rc|``.  An exact convoy counts as
    *found* when some reported convoy dominates it (covers all its objects
    over all its interval); anything less means the baseline failed to
    recognize that group travelling together for that long.

    Returns a percentage in [0, 100]; 0 when there are no exact convoys.
    """
    if not exact:
        return 0.0
    reported_list = list(reported)
    missed = sum(
        1 for convoy in exact if not _covered_by(convoy, reported_list)
    )
    return 100.0 * missed / len(exact)
