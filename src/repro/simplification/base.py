"""Shared machinery for the three simplifiers.

The DP family differs only in two decisions — how a point's deviation from
a chord is measured, and which offending point becomes the split point.
The iterative divide-and-conquer engine :class:`Simplifier` takes both as
callables; DP+ runs on it, because its split rule depends on δ.  DP and
DP* split at the first maximum deviation whatever δ is, so they cut a split
tree built once per trajectory instead (:mod:`repro.simplification.tree`);
the engine with a max-deviation split rule stays their reference.

Every simplifier reports, for every emitted chord, the **actual tolerance**
δ(l') of Definition 4 (the maximum deviation of the original points the
chord replaces) at no extra cost: the deviations are already in hand when
the split decision is made, exactly as the paper notes ("the derivation of
these tolerance values can be seamlessly integrated into the DP
algorithm").
"""

from __future__ import annotations

from repro.checks import check_delta
from repro.trajectory.point import TrajectoryPoint


class SimplifiedTrajectory:
    """The simplified polyline ``o'`` of one object: a cut of its samples.

    A simplification keeps a subset of the trajectory's own samples, so it
    is held as the trajectory plus the kept sample indices; the filter's
    segment records read the coordinates straight from
    :meth:`~repro.trajectory.Trajectory.coordinates` at those indices.
    :attr:`points` is built when first read.

    Args:
        trajectory: the original :class:`~repro.trajectory.Trajectory`.
        kept: sorted indices of the kept samples (first and last
            included).
        tolerances: actual tolerance δ(l') of each chord between
            consecutive kept samples; ``[0.0]`` for a one-sample
            trajectory.
        delta: the global tolerance δ the simplifier ran with.

    Two simplified trajectories are equal when they report the same
    ``object_id``, ``points``, ``tolerances``, ``delta`` and
    ``original_size``.
    """

    __slots__ = ("trajectory", "kept", "tolerances", "delta", "_points")

    def __init__(self, trajectory, kept, tolerances, delta):
        if not kept:
            raise ValueError(
                f"simplified trajectory {trajectory.object_id!r} is empty"
            )
        if len(tolerances) != max(len(kept) - 1, 1):
            raise ValueError(
                f"{len(kept)} points vs {len(tolerances)} tolerances"
            )
        self.trajectory = trajectory
        self.kept = kept
        self.tolerances = tuple(tolerances)
        self.delta = delta
        self._points = None

    def __len__(self):
        """Number of kept points ``|o'|``."""
        return len(self.kept)

    def __repr__(self):
        return (
            f"SimplifiedTrajectory({self.object_id!r}, {len(self)} of "
            f"{self.original_size} points, delta={self.delta!r})"
        )

    def _fields(self):
        return (self.object_id, self.points, self.tolerances, self.delta,
                self.original_size)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @property
    def object_id(self):
        """Identifier of the moving object."""
        return self.trajectory.object_id

    @property
    def original_size(self):
        """``|o|``, the number of points before simplification."""
        return len(self.trajectory)

    @property
    def points(self):
        """Tuple of the kept :class:`TrajectoryPoint`, in time order."""
        points = self._points
        if points is None:
            times, xs, ys = self.trajectory.coordinates()
            points = self._points = tuple(
                TrajectoryPoint(xs[i], ys[i], times[i]) for i in self.kept
            )
        return points

    @property
    def t_start(self):
        """Start of ``o'.tau`` (same as the original trajectory's)."""
        return self.trajectory.start_time

    @property
    def t_end(self):
        """End of ``o'.tau`` (same as the original trajectory's)."""
        return self.trajectory.end_time

    @property
    def tau(self):
        """The time interval ``o'.tau``."""
        return (self.t_start, self.t_end)


class Simplifier:
    """Iterative divide-and-conquer engine of DP+ (and any split rule).

    Subclass/instance behaviour is injected through two callables:

    Args:
        deviation_fn: ``f(xs, ys, times, lo, hi, i) -> float`` measuring how
            far original point ``i`` deviates from the chord ``lo..hi``.
        split_chooser: ``f(deviations, lo, hi, delta) -> int | None`` given
            the interior deviations (list of ``(index, deviation)``)
            returns the split index, or ``None`` to accept the chord.
        name: human-readable simplifier name for reprs and reports.
    """

    def __init__(self, deviation_fn, split_chooser, name):
        self._deviation_fn = deviation_fn
        self._split_chooser = split_chooser
        self.name = name

    def __repr__(self):
        return f"Simplifier({self.name})"

    def __call__(self, trajectory, delta):
        """Simplify ``trajectory`` with global tolerance ``delta``.

        Returns a :class:`SimplifiedTrajectory` whose every actual
        tolerance is at most ``delta``; a ``delta`` that is not a finite
        real >= 0 raises :class:`ValueError`.
        """
        check_delta(delta)
        times, xs, ys = trajectory.coordinates()
        n = len(times)
        if n == 1:
            return SimplifiedTrajectory(trajectory, [0], [0.0], delta)
        kept = [0, n - 1]
        chord_tolerance = {}
        stack = [(0, n - 1)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo < 2:
                chord_tolerance[(lo, hi)] = 0.0
                continue
            deviations = []
            max_dev = 0.0
            for i in range(lo + 1, hi):
                dev = self._deviation_fn(xs, ys, times, lo, hi, i)
                deviations.append((i, dev))
                if dev > max_dev:
                    max_dev = dev
            split = self._split_chooser(deviations, lo, hi, delta)
            if split is None:
                chord_tolerance[(lo, hi)] = max_dev
            else:
                kept.append(split)
                stack.append((lo, split))
                stack.append((split, hi))
        kept.sort()
        tolerances = [chord_tolerance[chord] for chord in zip(kept, kept[1:])]
        return SimplifiedTrajectory(trajectory, kept, tolerances, delta)


def middle_most_split(deviations, lo, hi, delta):
    """Split rule of DP+ (Section 6.1): the offender closest to the middle.

    Among the interior points whose deviation exceeds ``delta``, choose the
    one whose index is nearest to the midpoint of ``lo..hi`` so that each
    division produces two sub-problems of similar size.  Returns ``None``
    when the chord is accepted.
    """
    middle = (lo + hi) / 2.0
    best_index = None
    best_gap = None
    for index, dev in deviations:
        if dev <= delta:
            continue
        gap = abs(index - middle)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best_index = index
    return best_index
