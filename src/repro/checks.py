"""Argument checks shared by every layer.

This module imports nothing from the package, so the lowest layer
(:mod:`repro.clustering`) can use it without an import cycle.
"""

from __future__ import annotations

import sys


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


def check_eps(eps):
    """Raise :class:`ValueError` unless ``eps`` is a positive finite real.

    ``True`` is an int and would run as eps 1.0, a NaN eps makes every
    distance test false (so every query answers nothing), a string fails
    a comparison deep inside with a :class:`TypeError`, and an int past
    the float range overflows the first ``float()`` it meets; all are
    refused here with a message naming ``eps``.
    """
    if (
        isinstance(eps, bool)
        or not isinstance(eps, (int, float))
        or not 0 < eps <= sys.float_info.max
    ):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")


def check_delta(delta):
    """Raise :class:`ValueError` unless ``delta`` is a finite real >= 0.

    No deviation can stay within a negative δ, and a NaN δ compares
    false against every deviation, so DP and DP* would keep only the end
    samples and DP+ every sample; ``True``, ±inf and non-numbers are
    refused as :func:`check_eps` refuses them.
    """
    if (
        isinstance(delta, bool)
        or not isinstance(delta, (int, float))
        or not 0 <= delta <= sys.float_info.max
    ):
        raise ValueError(f"delta must be non-negative and finite, got {delta!r}")
