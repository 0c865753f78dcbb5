"""A brute-force convoy oracle taken straight from the paper's definition.

Definition 3 of Jeung et al.: a *convoy* is a group of at least ``m``
objects that are density-connected with respect to ``eps`` and ``m`` at
each of at least ``k`` consecutive time points.  :func:`oracle_convoys`
answers a query from that sentence alone, with none of the machinery the
miners share (no candidate chains, no grid index, no simplification):

1. cluster each tick's snapshot ``database.snapshot(t)`` (virtual points
   included, as CMC's ``O_t``) with the O(n^2) reference
   :func:`~repro.clustering.dbscan.dbscan_brute_force`;
2. enumerate every object subset ``O`` with ``|O| >= m`` and every
   interval ``I`` of consecutive ticks with ``|I| >= k``, and keep the
   pair when ``O`` lies inside one cluster at every ``t`` in ``I``;
3. drop every pair another pair dominates (a superset of the objects over
   a superset of the interval), leaving the maximal convoys.

Steps 2 and 3 are evaluated per subset over its *maximal runs* of ticks:
every shorter interval of the same subset is dominated by the run that
contains it, and a run is dominated exactly when one more object stays
with the group through the whole run.

The enumeration is exponential in the object count, so the oracle refuses
inputs above :data:`MAX_OBJECTS` objects or :data:`MAX_TICKS` ticks.
"""

import math
from itertools import combinations

from repro.clustering.dbscan import dbscan_brute_force
from repro.core.convoy import Convoy

#: Largest input the enumeration accepts.
MAX_OBJECTS = 8
MAX_TICKS = 12


def oracle_convoys(database, m, k, eps):
    """The maximal convoys of ``database`` for the query ``(m, k, eps)``.

    Returns a list of :class:`~repro.core.convoy.Convoy` in
    :meth:`~repro.core.convoy.Convoy.sort_key` order, directly comparable
    with :func:`~repro.core.verification.normalize_convoys` of a miner's
    answer.
    """
    if len(database) == 0:
        return []
    objects = sorted((tr.object_id for tr in database), key=str)
    times = range(database.min_time, database.max_time + 1)
    if len(objects) > MAX_OBJECTS or len(times) > MAX_TICKS:
        raise ValueError(
            f"the oracle enumerates at most {MAX_OBJECTS} objects and "
            f"{MAX_TICKS} ticks, got {len(objects)} and {len(times)}"
        )
    clusters = {
        t: [frozenset(c) for c in dbscan_brute_force(database.snapshot(t), eps, m)]
        for t in times
    }

    def together(group, start, end):
        """``group`` lies inside one cluster at every tick of the interval."""
        return all(
            any(group <= cluster for cluster in clusters[t])
            for t in range(start, end + 1)
        )

    convoys = []
    for size in range(m, len(objects) + 1):
        for group in map(frozenset, combinations(objects, size)):
            start = None
            for t in [*times, None]:
                if t is not None and together(group, t, t):
                    start = t if start is None else start
                    continue
                if start is not None:
                    end = (t if t is not None else times.stop) - 1
                    if end - start + 1 >= k:
                        convoys.append(Convoy(group, start, end))
                    start = None
    maximal = [
        convoy for convoy in convoys
        if not any(
            together(convoy.objects | {extra}, convoy.t_start, convoy.t_end)
            for extra in objects if extra not in convoy.objects
        )
    ]
    return sorted(maximal, key=Convoy.sort_key)


def tie_eps(pa, pb):
    """The least eps at which the snapshot predicate accepts ``pa, pb``.

    Every snapshot clustering here and in the miners tests a pair with
    ``dx*dx + dy*dy <= eps*eps``; at this eps the pair sits exactly on
    that edge, where a path computing positions or bounds with different
    rounding would answer differently.
    """
    dx = pb[0] - pa[0]
    dy = pb[1] - pa[1]
    d2 = dx * dx + dy * dy
    eps = math.sqrt(d2)
    while eps * eps < d2:
        eps = math.nextafter(eps, math.inf)
    below = math.nextafter(eps, 0.0)
    while below * below >= d2:
        eps = below
        below = math.nextafter(eps, 0.0)
    return eps
