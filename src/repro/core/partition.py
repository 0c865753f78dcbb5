"""Time partitioning for the CuTS filter (Section 5.3, Figure 9(b)).

The filter divides the time domain into disjoint partitions of λ time
points and clusters, inside each partition, one polyline per object made of
the simplified segments whose time intervals intersect the partition.  A
segment straddling a partition boundary is deliberately inserted into
*both* partitions (the paper's ``l_3^2`` example) so that no cross-boundary
proximity can be missed.  The filter's join
(:func:`repro.clustering.spatial_join.segment_records`) files each segment
under the run of partitions it meets instead of building the polylines.
"""

from __future__ import annotations


class TimePartitioner:
    """Splits a closed time domain ``[t_lo, t_hi]`` into λ-length windows.

    The last partition may be shorter when λ does not divide the domain
    length.  Partitions are closed intervals; consecutive partitions do not
    overlap (``[0, 3], [4, 7], ...`` for λ=4).
    """

    def __init__(self, t_lo, t_hi, lam):
        if t_hi < t_lo:
            raise ValueError(f"time domain reversed: [{t_lo}, {t_hi}]")
        if lam < 1:
            raise ValueError(f"lambda must be >= 1, got {lam}")
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.lam = lam

    def __len__(self):
        span = self.t_hi - self.t_lo + 1
        return (span + self.lam - 1) // self.lam

    def __iter__(self):
        lo = self.t_lo
        while lo <= self.t_hi:
            hi = min(lo + self.lam - 1, self.t_hi)
            yield (lo, hi)
            lo = hi + 1
