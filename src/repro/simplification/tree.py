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
"""

from __future__ import annotations

from array import array

from repro.simplification.base import simplified_from_indices


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

    __slots__ = ("chord", "_times", "_xs", "_ys", "_root", "_left", "_right", "_dev")

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

    def __len__(self):
        """Number of samples of the trajectory."""
        return len(self._times)

    def _node(self, lo, hi):
        """Compute chord ``lo..hi``'s node; return its key (split index)."""
        split, max_dev = self.chord(self._times, self._xs, self._ys, lo, hi)
        self._dev[split] = max_dev
        return split

    def _child(self, children, parent, lo, hi):
        """Key of ``parent``'s child chord ``lo..hi``, computed if needed."""
        if hi - lo < 2:
            return 0
        key = children[parent]
        if not key:
            key = self._node(lo, hi)
            children[parent] = key
        return key

    def cut(self, delta):
        """Return ``(kept, tolerances)`` of the cut at ``delta``.

        ``kept`` lists the indices of the samples DP/DP* keeps at
        tolerance ``delta``, in time order; ``tolerances`` holds each kept
        chord's actual tolerance, parallel to consecutive pairs of
        ``kept``.  A one-sample trajectory yields ``[0]`` and ``[0.0]``.
        A negative ``delta`` raises :class:`ValueError`.
        """
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        n = len(self)
        if n < 3:
            return list(range(n)), [0.0]
        dev, left, right, child = self._dev, self._left, self._right, self._child
        kept = [0]
        tolerances = []
        stack = [(0, n - 1, self._root)]
        pop, push = stack.pop, stack.append
        while stack:
            lo, hi, key = pop()
            max_dev = dev[key] if key else 0.0
            if max_dev > delta:
                # Right half first: the stack hands chords back in time order.
                push((key, hi, child(right, key, key, hi)))
                push((lo, key, child(left, key, lo, key)))
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
        deviations = []
        dev, left, right, child = self._dev, self._left, self._right, self._child
        stack = [(0, len(self) - 1, self._root)]
        pop, push = stack.pop, stack.append
        while stack:
            lo, hi, key = pop()
            if key and dev[key] > 0.0:
                deviations.append(dev[key])
                push((lo, key, child(left, key, lo, key)))
                push((key, hi, child(right, key, key, hi)))
        return deviations


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
        return simplified_from_indices(trajectory, kept, tolerances, delta)
