"""The :class:`Convoy` result type (Definition 3)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Convoy:
    """A convoy query answer ``<objects, [t_start, t_end]>``.

    A convoy is a group of at least ``m`` objects that are density-connected
    with respect to ``e`` at every one of at least ``k`` consecutive time
    points.  The ``m``/``k``/``e`` parameters live with the query, not the
    result; a :class:`Convoy` records *which* objects travelled together and
    *when*.

    Instances are immutable, hashable, and ordered (by start time, end time,
    then object ids) so result sets can be compared across algorithms.
    """

    t_start: int
    t_end: int
    objects: frozenset

    def __init__(self, objects, t_start, t_end):
        if t_end < t_start:
            raise ValueError(f"convoy interval reversed: [{t_start}, {t_end}]")
        frozen = frozenset(objects)
        if not frozen:
            raise ValueError("convoy must contain at least one object")
        object.__setattr__(self, "objects", frozen)
        object.__setattr__(self, "t_start", int(t_start))
        object.__setattr__(self, "t_end", int(t_end))

    def sort_key(self):
        """Deterministic ordering key for reporting and comparison."""
        return (self.t_start, self.t_end, tuple(sorted(map(repr, self.objects))))

    @property
    def size(self):
        """Number of member objects."""
        return len(self.objects)

    @property
    def lifetime(self):
        """Number of consecutive time points covered (``t_end - t_start + 1``)."""
        return self.t_end - self.t_start + 1

    @property
    def interval(self):
        """The closed time interval as a ``(t_start, t_end)`` tuple."""
        return (self.t_start, self.t_end)

    def dominates(self, other):
        """Return True if this convoy subsumes ``other``.

        ``other`` adds no information when its objects are a subset and its
        interval lies inside this convoy's interval.  Used by result
        normalization to drop fragments that the CuTS refinement can emit
        when overlapping candidates contain the same true convoy.
        """
        return (
            other.objects <= self.objects
            and self.t_start <= other.t_start
            and other.t_end <= self.t_end
        )

    def __repr__(self):
        members = ", ".join(sorted(map(str, self.objects)))
        return f"Convoy([{members}], t=[{self.t_start}, {self.t_end}])"
