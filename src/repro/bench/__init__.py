"""Benchmark harness: call timing and paper-style reporting."""

from repro.bench.harness import time_call
from repro.bench.reporting import format_series, format_table

__all__ = ["format_series", "format_table", "time_call"]
