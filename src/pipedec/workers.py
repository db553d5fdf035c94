"""Contiguous chunks of work, run on every usable CPU in fork-started workers."""

import itertools
import os
from typing import Callable, Iterator, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 without ``sched_getaffinity`` or ``fork``."""
    known = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if known else 1


def map_chunks(fn: Callable, lows: Sequence[int], highs: Sequence[int], *args) -> Iterator:
    """``fn(lo, hi, *args)`` per chunk, in order; forks min(CPUs, chunks) workers if both >= 2.

    Closing or exhausting the iterator, or an error, cancels pending chunks and joins the workers.
    """
    workers = min(usable_cpus(), len(lows))
    repeats = [itertools.repeat(arg) for arg in args]
    if workers < 2:
        yield from map(fn, lows, highs, *repeats)
        return
    # imported here: at module level they would add ~20 ms to every command's start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: workers start with pipedec imported (and patched as in the parent)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(fn, lows, highs, *repeats)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
