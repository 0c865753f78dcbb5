"""One split tree per trajectory, cut at each δ (van Oosterom's BLG-tree).

DP and DP* split a chord at the first maximum deviation of its interior
samples, whatever δ is; only the stop test ``max_dev <= δ`` depends on δ.
So one binary tree of ``(split index, max deviation)`` nodes per trajectory
and deviation measure answers every δ by a *cut*: descend into a node only
while its deviation is above δ.  A node the cut keeps as a chord carries
that chord's actual tolerance (Definition 4), because the tolerance is the
chord's max deviation.  The cut keeps exactly the points, and reports
exactly the tolerances, of a DP/DP* run with the same δ.

Storage.  The chords of one tree either nest or have disjoint interiors, so
no two nodes share an interior argmax, and a node is keyed by its split
index.  Three arrays of one slot per sample hold the tree: the left and
right child keys (0 meaning "not computed"; no chord splits at index 0)
and the node's max deviation (``array('d')``).  A child key is a sample
index, so it takes two bytes (``array('H')``) in a trajectory of at most
65,536 samples and four (``array('i')``) in a longer one: 12 or 16 bytes
per sample.

Expansion.  The tree grows on demand: a cut computes the children of a
node it descends into unless an earlier cut already did, so the first cut
costs one DP/DP* run and a later cut at a larger δ is a pure walk.  A child
key is published only after its deviation has been written, so a
concurrent cut never reads a child whose deviation is missing; two cuts
racing on the same child compute and write the same values.

δ selection.  Section 7.4 picks δ from the split deviations of the fully
expanded tree, restricted to those below a cap that varies per query.
The tree sorts its split deviations once, together with the pick for
every prefix of the sorted list, so each later pick is a bisect to the
cap and one lookup (:meth:`SplitTree.largest_gap_below`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from repro.checks import check_delta
from repro.simplification.base import SimplifiedTrajectory


class SplitTree:
    """The split tree of one trajectory under one deviation measure.

    Use :meth:`repro.trajectory.Trajectory.split_tree`, which builds the
    tree on first use and keeps it with the trajectory.

    Args:
        trajectory: the :class:`~repro.trajectory.Trajectory` to split.
        chord: ``f(times, xs, ys, lo, hi) -> (split, max_dev)`` returning
            the first argmax and the max of the deviations of the samples
            strictly inside chord ``lo..hi`` (``max_dev`` starts from 0.0,
            so with no positive deviation ``split`` is any interior index).
            Kept as :attr:`chord`, which names the tree's measure.
    """

    __slots__ = ("chord", "_times", "_xs", "_ys", "_root", "_left", "_right",
                 "_dev", "_gaps")

    def __init__(self, trajectory, chord):
        self.chord = chord
        self._times, self._xs, self._ys = trajectory.coordinates()
        n = len(self._times)
        size = n if n > 2 else 0
        key = array("H" if n <= 1 << 16 else "i", [0])
        self._left = key * size
        self._right = key * size
        self._dev = array("d", [0.0]) * size
        self._root = self._node(0, n - 1) if size else 0
        self._gaps = None

    def __len__(self):
        """Number of samples of the trajectory."""
        return len(self._times)

    def _node(self, lo, hi):
        """Compute chord ``lo..hi``'s node; return its key (split index)."""
        split, max_dev = self.chord(self._times, self._xs, self._ys, lo, hi)
        self._dev[split] = max_dev
        return split

    def cut(self, delta):
        """Return ``(kept, tolerances)`` of the cut at ``delta``.

        ``kept`` lists the indices of the samples DP/DP* keeps at
        tolerance ``delta``, in time order; ``tolerances`` holds each kept
        chord's actual tolerance, parallel to consecutive pairs of
        ``kept``.  A one-sample trajectory yields ``[0]`` and ``[0.0]``.
        A ``delta`` that is not a finite real >= 0 raises
        :class:`ValueError` (:func:`~repro.checks.check_delta`).
        """
        check_delta(delta)
        times, xs, ys = self._times, self._xs, self._ys
        n = len(times)
        if n < 3:
            return list(range(n)), [0.0]
        chord, dev, left, right = self.chord, self._dev, self._left, self._right
        kept = [0]
        tolerances = []
        # A chord without interior samples has key 0, whose slot keeps
        # deviation 0.0: no chord splits at index 0.
        stack = [(0, n - 1, self._root)]
        pop, push = stack.pop, stack.append
        while stack:
            lo, hi, key = pop()
            max_dev = dev[key]
            if max_dev > delta:
                # Right half first: the stack hands chords back in time
                # order.  A missing child is computed here, its deviation
                # written before its key is published.
                child = right[key]
                if not child and hi - key > 1:
                    child, child_dev = chord(times, xs, ys, key, hi)
                    dev[child] = child_dev
                    right[key] = child
                push((key, hi, child))
                child = left[key]
                if not child and key - lo > 1:
                    child, child_dev = chord(times, xs, ys, lo, key)
                    dev[child] = child_dev
                    left[key] = child
                push((lo, key, child))
            else:
                kept.append(hi)
                tolerances.append(max_dev)
        return kept, tolerances

    def split_deviations(self):
        """Max deviation of every chord a zero-tolerance run splits.

        This is the fully expanded tree: Section 7.4's "perform the
        original DP algorithm over a trajectory with δ = 0 ... store the
        actual tolerance values".  Values come in DP's division order
        (depth first, right half first).
        """
        # A cut at 0 computes both children of every node with a positive
        # deviation: every node this walk descends into.
        self.cut(0.0)
        deviations = []
        dev, left, right = self._dev, self._left, self._right
        stack = [self._root]
        pop, push = stack.pop, stack.append
        while stack:
            key = pop()
            if key and dev[key] > 0.0:
                deviations.append(dev[key])
                push(left[key])
                push(right[key])
        return deviations

    def largest_gap_below(self, cap):
        """Section 7.4's δ pick among the split deviations below ``cap``.

        Sort the deviations below ``cap``, find the two adjacent values
        with the largest difference (the first such pair on a tie), and
        return the smaller one; a lone value is its own pick, and no value
        below ``cap`` gives ``None``.  The first call expands the whole
        tree and sorts its :meth:`split_deviations` once, with the pick
        for every prefix of the sorted list; every call is then a bisect
        to ``cap`` and one lookup.
        """
        gaps = self._gaps
        if gaps is None:
            ordered = array("d", sorted(self.split_deviations()))
            # picks[j]: the pick among the j + 1 smallest deviations.
            picks = ordered[:1]
            best_gap = -1.0
            for lower, upper in zip(ordered, ordered[1:]):
                gap = upper - lower
                if gap > best_gap:
                    best_gap = gap
                    picks.append(lower)
                else:
                    picks.append(picks[-1])
            gaps = self._gaps = (ordered, picks)
        ordered, picks = gaps
        below = bisect_left(ordered, cap)
        return picks[below - 1] if below else None


class TreeSimplifier:
    """DP or DP* answered by cutting each trajectory's split tree at δ.

    Args:
        chord: the deviation measure's node function (see
            :class:`SplitTree`); it also keys the tree on the trajectory.
        name: human-readable simplifier name for reprs and reports.
    """

    def __init__(self, chord, name):
        self.chord = chord
        self.name = name

    def __repr__(self):
        return f"TreeSimplifier({self.name})"

    def __call__(self, trajectory, delta):
        """Simplify ``trajectory`` with global tolerance ``delta``.

        Returns the :class:`~repro.simplification.SimplifiedTrajectory`
        that a DP/DP* run with the same measure and ``delta`` returns.
        """
        kept, tolerances = trajectory.split_tree(self.chord).cut(delta)
        return SimplifiedTrajectory(trajectory, kept, tolerances, delta)
