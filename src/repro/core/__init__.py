"""Convoy discovery — the paper's primary contribution.

Public surface:

* :class:`Convoy` — a query answer: a maximal group of objects density-
  connected at every time point of a closed interval of length >= k;
* :func:`cmc` — the Coherent Moving Clusters algorithm (Section 4), the
  exact baseline every other method is validated against;
* :func:`cuts` — the filter-and-refine CuTS family (Sections 5-6); the
  ``variant`` argument selects CuTS, CuTS+, or CuTS*;
* :func:`compute_delta` / :func:`compute_lambda` — the parameter-selection
  guidelines of Section 7.4;
* :mod:`repro.core.verification` — convoy validity checking, result
  normalization, and the false-positive/negative rates of Appendix B.1.
"""

from repro.core.cmc import cmc
from repro.core.convoy import Convoy
from repro.core.cuts import CutsResult, cuts, cuts_filter, cuts_refine
from repro.core.params import compute_delta, compute_lambda
from repro.core.partition import TimePartitioner
from repro.core.queries import (
    co_travel_totals,
    convoy_timeline,
    convoys_during,
    convoys_of_object,
    longest_convoy,
    participation_totals,
    summarize,
    top_convoys,
)
from repro.core.verification import (
    convoy_sets_equal,
    false_negative_rate,
    false_positive_rate,
    is_valid_convoy,
    normalize_convoys,
)

__all__ = [
    "Convoy",
    "CutsResult",
    "TimePartitioner",
    "cmc",
    "co_travel_totals",
    "compute_delta",
    "compute_lambda",
    "convoy_sets_equal",
    "convoy_timeline",
    "convoys_during",
    "convoys_of_object",
    "cuts",
    "longest_convoy",
    "participation_totals",
    "summarize",
    "top_convoys",
    "cuts_filter",
    "cuts_refine",
    "false_negative_rate",
    "false_positive_rate",
    "is_valid_convoy",
    "normalize_convoys",
]
