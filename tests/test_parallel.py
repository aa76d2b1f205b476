import contextlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection

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


class _ThreadWorker:
    """Stands in for a spawned worker process: runs its target in a thread,
    on its own copy of its pipe end as a spawned process holds one, and
    records its job and every message it receives. The thread ends when
    search_ranges closes its end of the pipe, so kill and join do nothing."""

    jobs = []
    received = []
    threads = []

    def __init__(self, target, args):
        link, *job = args
        self.jobs.append(tuple(job))
        self.thread = threading.Thread(target=self._run, args=(target, _Recording(os.dup(link.fileno())), job))
        self.threads.append(self.thread)

    @staticmethod
    def _run(target, link, job):
        with contextlib.suppress(EOFError):
            target(link, *job)

    def start(self):
        self.thread.start()

    def kill(self):
        pass

    join = kill


class _Recording(Connection):
    def recv(self):
        message = super().recv()
        _ThreadWorker.received.append(message)
        return message


class _ThreadContext:
    Pipe = staticmethod(multiprocessing.Pipe)
    Process = _ThreadWorker


@pytest.fixture
def thread_workers(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _ThreadContext)
    for recorded in (_ThreadWorker.jobs, _ThreadWorker.received, _ThreadWorker.threads):
        recorded.clear()
    yield _ThreadWorker
    for thread in _ThreadWorker.threads:
        thread.join(10)
        assert not thread.is_alive()


def _count_starts(hg, lo, hi, stats):
    stats.trials += hi - lo
    return None


def test_pool_size_capped_at_usable_cpus(monkeypatch, thread_workers):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
    stats = SearchStats()
    assert search_ranges(Hypergraph(3, 3), _count_starts, 1000, 100_000, stats) is None
    # one chunk per start, as 4 * workers chunks ask, over 3 workers
    assert stats.trials == 1000
    assert (len(thread_workers.jobs), len(thread_workers.received)) == (3, 1000)
    # fewer chunks than CPUs still count the workers by the chunks
    search_ranges(Hypergraph(3, 3), _count_starts, 2, 100_000, SearchStats())
    assert len(thread_workers.jobs) == 5


def test_workers_get_the_job_once_and_chunks_as_index_pairs(thread_workers):
    # the graph crosses to a worker once, as it starts; each message after
    # that is a (lo, hi) pair alone, a few dozen bytes
    hg, stats = Hypergraph(5, 3, ((0, 1, 2), (2, 3, 4))), SearchStats()
    assert search_ranges(hg, _count_starts, 10, 2, stats) is None
    assert thread_workers.jobs == [(_count_starts, hg)] * 2
    assert sorted(thread_workers.received) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    assert all(type(lo) is type(hi) is int for lo, hi in thread_workers.received)
    assert stats.trials == 10


def fail_on_chunk_two(hg, lo, hi, stats):
    # module level, so spawned workers can unpickle it by name
    if lo == 2:
        raise ValueError(f"no starts {lo}..{hi - 1}")
    return None


def die_on_chunk_two(hg, lo, hi, stats):
    if lo == 2:
        os._exit(3)
    return None


def test_a_worker_error_is_raised_here():
    with pytest.raises(ValueError, match=r"^no starts 2\.\.3$"):
        search_ranges(Hypergraph(3, 3), fail_on_chunk_two, 10, 2, SearchStats())


def test_a_dead_worker_is_an_error_not_a_hang():
    t0 = time.perf_counter()
    with pytest.raises(EOFError):
        search_ranges(Hypergraph(3, 3), die_on_chunk_two, 10, 2, SearchStats())
    assert time.perf_counter() - t0 < 10


def test_importing_the_package_loads_no_pool():
    # multiprocessing is imported by search_ranges only when workers > 1
    probe = "import sys, norainbow, norainbow.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
