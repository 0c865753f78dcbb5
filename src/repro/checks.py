"""Argument checks shared by every layer.

This module imports nothing from the package, so the lowest layer
(:mod:`repro.clustering`) can use it without an import cycle.
"""

from __future__ import annotations


def check_count(name, value, minimum=1):
    """Raise :class:`ValueError` unless ``value`` is an integer >= ``minimum``.

    A NaN or infinite count compares false against every lifetime and
    group size, and a fractional one acts as its ceiling, so neither
    states a query; ``True`` and ``False`` are refused although they are
    ints.  The message names the parameter.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(
            f"{name} must be >= {minimum} and an integer, got {value!r}"
        )
