"""Timing helpers used by the execution-time experiment (Fig. 6)."""

from __future__ import annotations

import time


def time_callable(function, *args, repeat: int = 1, **kwargs):
    """Run ``function`` ``repeat`` times and return ``(result, seconds_per_call)``.

    The result of the last call is returned; the timing is the average
    wall-clock duration over the repetitions.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, got {repeat}")
    result = None
    start = time.perf_counter()
    for _ in range(repeat):
        result = function(*args, **kwargs)
    elapsed = (time.perf_counter() - start) / repeat
    return result, elapsed
