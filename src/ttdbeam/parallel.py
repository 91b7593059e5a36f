"""Worker-count resolution for the dictionary builder; the evaluator only validates its count."""

from __future__ import annotations

import os

__all__ = ["worker_count", "THREADS_ENV"]

THREADS_ENV = "TTDBEAM_THREADS"


def worker_count(requested: int | None = None) -> int:
    """Number of parallel workers to use.

    An explicit ``requested`` value wins; otherwise the TTDBEAM_THREADS
    environment variable caps the machine's CPU count (0 or unset = auto).
    """
    if requested is not None:
        if requested < 1:
            raise ValueError("worker count must be >= 1")
        return requested
    auto = os.cpu_count() or 1
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return auto
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{THREADS_ENV} must be >= 0, got {cap}")
    if cap == 0:
        return auto
    return min(auto, cap)
