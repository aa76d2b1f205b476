import time

from norainbow import Hypergraph, SearchStats
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
