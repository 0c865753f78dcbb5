"""Tests for the reference ω of the multi-step range search (Section 5.2).

The filter's join (:mod:`repro.clustering.spatial_join`) is held to
:func:`tests.filter_reference.omega` window by window; these tests hold
that reference to hand-worked values.
"""

import math
import random

import pytest

from tests.filter_reference import omega


def polyline(segs, tols=None):
    """Chord tuples from ``(start, end, t_start, t_end)`` segments."""
    if tols is None:
        tols = [0.0] * len(segs)
    return [(a, b, t0, t1, tol) for (a, b, t0, t1), tol in zip(segs, tols)]


class TestOmega:
    def test_parallel_synchronous(self):
        a = polyline([((0, 0), (10, 0), 0, 10)])
        b = polyline([((0, 4), (10, 4), 0, 10)])
        assert omega(a, b, "dll") == pytest.approx(4.0)
        assert omega(a, b, "cpa") == pytest.approx(4.0)

    def test_tolerances_subtract(self):
        a = polyline([((0, 0), (10, 0), 0, 10)], [1.5])
        b = polyline([((0, 4), (10, 4), 0, 10)], [0.5])
        assert omega(a, b, "dll") == pytest.approx(2.0)

    def test_temporally_disjoint_is_inf(self):
        a = polyline([((0, 0), (10, 0), 0, 4)])
        b = polyline([((0, 1), (10, 1), 5, 9)])
        assert omega(a, b, "dll") == math.inf

    def test_min_over_segment_pairs(self):
        # Two segments each; the closest time-overlapping pair wins.
        a = polyline([((0, 0), (10, 0), 0, 5), ((10, 0), (20, 0), 5, 10)])
        b = polyline([((0, 50), (10, 50), 0, 5), ((10, 2), (20, 2), 5, 10)])
        assert omega(a, b, "dll") == pytest.approx(2.0)

    def test_cpa_mode_never_below_dll_mode(self):
        rng = random.Random(9)
        for _ in range(100):
            def rand_poly():
                x, y, t = rng.uniform(-20, 20), rng.uniform(-20, 20), 0
                segs = []
                for _ in range(rng.randint(1, 4)):
                    nx, ny = x + rng.uniform(-8, 8), y + rng.uniform(-8, 8)
                    nt = t + rng.randint(1, 3)
                    segs.append(((x, y), (nx, ny), t, nt))
                    x, y, t = nx, ny, nt
                return polyline(segs)

            a, b = rand_poly(), rand_poly()
            assert omega(a, b, "cpa") >= omega(a, b, "dll") - 1e-9

    def test_unknown_mode_rejected(self):
        a = polyline([((0, 0), (1, 0), 0, 1)])
        with pytest.raises(ValueError):
            omega(a, a, "chebyshev")
