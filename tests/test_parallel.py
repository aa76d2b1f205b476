import multiprocessing
import subprocess
import sys
import time

import pytest

from norainbow import Hypergraph, SearchStats, det_nrc, parallel, rand_nrc
from norainbow.parallel import search_ranges


def slow_first_chunk(hg, lo, hi, stats):
    # module level, so spawned workers can unpickle it by name
    if lo == 0:
        time.sleep(30)
        return None
    return [1, 2, 3]


def test_first_certificate_stops_running_chunks():
    t0 = time.perf_counter()
    certificate = search_ranges(Hypergraph(3, 3), slow_first_chunk, 2, 2, SearchStats())
    assert certificate == [1, 2, 3]
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("workers", [0, -1])
def test_solvers_refuse_fewer_than_one_worker(workers):
    # the edgeless root certifies and n < r answers at once, so no input
    # reaches search_ranges: the solver's own check must refuse it
    for solver in (det_nrc, rand_nrc):
        for hg in (Hypergraph(5, 3), Hypergraph(2, 3), Hypergraph(0, 2)):
            with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
                solver(hg, workers=workers)


def certify_if_read_only(hg, lo, hi, stats):
    # module level, so spawned workers can unpickle it by name
    return None if hg.rows.flags.writeable else [1, 1, 2, 3]


def test_workers_get_a_read_only_graph():
    hg = Hypergraph(4, 3, ((0, 1, 2), (1, 2, 3)))
    assert search_ranges(hg, certify_if_read_only, 2, 2, SearchStats()) == [1, 1, 2, 3]


class _InProcessPool:
    """Stands in for a process pool: records its size and its number of
    chunks, and runs each chunk in this process."""

    sizes = []
    chunks = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, tasks):
        self.chunks.append(len(tasks))
        return map(fn, tasks)


class _InProcessContext:
    Pool = _InProcessPool


def _count_starts(hg, lo, hi, stats):
    stats.trials += hi - lo
    return None


def test_pool_size_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _InProcessContext)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
    _InProcessPool.sizes.clear()
    _InProcessPool.chunks.clear()
    stats = SearchStats()
    assert search_ranges(Hypergraph(3, 3), _count_starts, 1000, 100_000, stats) is None
    # one chunk per start, as 4 * workers chunks ask, on a pool of 3 processes
    assert stats.trials == 1000
    assert (_InProcessPool.sizes, _InProcessPool.chunks) == ([3], [1000])
    # fewer chunks than CPUs still size the pool by the chunks
    search_ranges(Hypergraph(3, 3), _count_starts, 2, 100_000, SearchStats())
    assert _InProcessPool.sizes == [3, 2]


def test_importing_the_package_loads_no_pool():
    # multiprocessing is imported by search_ranges only when workers > 1
    probe = "import sys, norainbow, norainbow.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
