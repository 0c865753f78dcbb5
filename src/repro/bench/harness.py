"""Wall-clock instrumentation for the experiment harness."""

from __future__ import annotations

import time


def time_call(fn, *args, **kwargs):
    """Return ``(result, seconds)`` for one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started
