"""One process-pool harness for both solvers.

A solver hands over a range function (hg, lo, hi, stats) -> certificate or
None that searches its starts lo..hi-1, adding its work to stats. The
harness runs the whole range in-process for one worker, or splits it into
chunks over a process pool and stops every worker at the first certificate.
"""
from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Optional

from .hypergraph import Hypergraph, SearchStats

RangeFn = Callable[[Hypergraph, int, int, SearchStats], Optional[list[int]]]


def search_ranges(
    hg: Hypergraph, range_fn: RangeFn, total: int, workers: int, stats: SearchStats
) -> Optional[list[int]]:
    """Search starts 0..total-1 with range_fn and return the first
    certificate found, or None. range_fn must be picklable when workers > 1.

    With several workers the range is cut into at most 4 * workers chunks,
    run by a pool of at most as many processes as this process has CPUs.
    Leaving the pool at the first certificate terminates the chunks still
    running, so stats then count only the chunks that finished.
    """
    if workers == 1:
        return range_fn(hg, 0, total, stats)
    step = -(-total // max(1, min(4 * workers, total)))
    tasks = [(range_fn, hg, lo, min(lo + step, total)) for lo in range(0, total, step)]
    certificate = None
    with multiprocessing.get_context("spawn").Pool(min(workers, len(tasks), _usable_cpus())) as pool:
        for found, chunk_stats in pool.imap_unordered(_run_chunk, tasks):
            stats.absorb(chunk_stats)
            if found is not None:
                certificate = found
                break
    return certificate


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_chunk(task) -> tuple[Optional[list[int]], SearchStats]:
    range_fn, hg, lo, hi = task
    stats = SearchStats()
    return range_fn(hg, lo, hi, stats), stats
