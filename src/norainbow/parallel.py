"""One process harness for both solvers.

A solver hands over a range function (hg, lo, hi, stats) -> certificate or
None that searches its starts lo..hi-1, adding its work to stats. One worker
runs the whole range in-process, without loading multiprocessing; several
are spawned processes, each given the function and graph once and then
(lo, hi) chunks over its own pipe, until the first certificate kills them.
"""
from __future__ import annotations

import contextlib
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
    run by at most as many processes as this process has CPUs. They are
    spawned, and each re-imports the main module, so a script that gets
    here needs an `if __name__ == "__main__":` guard, or every worker reruns
    it. Each worker shares only its own pipe with this process, no lock, so
    killing the workers at the first certificate cannot leave this process
    waiting; stats then count only the chunks that finished. An exception in
    a worker is raised here, and a worker that dies reads as EOFError.
    """
    if workers == 1:
        return range_fn(hg, 0, total, stats)
    import multiprocessing.connection
    step = -(-total // max(1, min(4 * workers, total)))
    chunks = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    spawn, pending, links = multiprocessing.get_context("spawn"), iter(chunks), {}
    try:
        for _ in range(min(workers, len(chunks), _usable_cpus())):
            ours, theirs = spawn.Pipe()
            worker = spawn.Process(target=_work, args=(theirs, range_fn, hg))
            worker.start()
            links[ours] = worker
            theirs.close()  # the worker holds the only other end: its death is EOF here
            ours.send(next(pending))
        for _ in chunks:  # one result per chunk
            ours = multiprocessing.connection.wait(list(links))[0]
            result = ours.recv()
            if isinstance(result, Exception):
                raise result
            found, chunk_stats = result
            stats.absorb(chunk_stats)
            if found is not None:
                return found
            if (chunk := next(pending, None)) is not None:
                ours.send(chunk)
        return None
    finally:
        for ours, worker in links.items():
            worker.kill()
            worker.join()
            ours.close()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _work(link, range_fn: RangeFn, hg: Hypergraph) -> None:  # runs until killed or its caller's end closes
    # a closed caller end is EOF to recv and a broken pipe to send, and a
    # reset connection to recv when the caller closed with a result unread
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            lo, hi = link.recv()
            stats = SearchStats()
            try:
                result = range_fn(hg, lo, hi, stats), stats
            except Exception as error:  # sent back and raised by search_ranges
                result = error
            link.send(result)
