"""Deterministic branching local search from (subset, b) starts.

Every start is an r-subset F frozen on the colors 1..r in node order over
one background color b on every other node; the search recolors one
unfrozen node of a nearly-frozen rainbow edge per level, freezing it, until
it either proves the start hopeless or can exhibit a certificate. The
radius bound keeps each start's tree at most (r-1)-ary of bounded depth.

det_nrc first tests every start's root alone, counting only a root that
certifies, and searches every start at the full radius if none does.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from typing import Callable, Iterator, Optional

import numpy as np

from .hypergraph import (
    COLORABLE,
    NOT_COLORABLE,
    Hypergraph,
    SearchOutcome,
    SearchStats,
    edge_bits,
    is_no_rainbow_coloring,
)
from .parallel import search_ranges

TraceFn = Callable[[int, np.ndarray, np.ndarray], None]


def search_radius(n: int, r: int) -> int:
    """Maximum Hamming distance a start must explore: floor((r-1)n/r).
    Distances are integers, so flooring the bound loses nothing."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    return (r - 1) * n // r


def enumerate_initial_pairs(hg: Hypergraph) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield every start as (subset, b): each r-subset F in ascending order,
    and for each, each background color b in 1..r. Exactly C(n, r) * r
    starts."""
    if hg.n < hg.r:
        raise ValueError(f"no surjective start exists for n={hg.n} < r={hg.r}")
    for subset in itertools.combinations(range(hg.n), hg.r):
        for b in range(1, hg.r + 1):
            yield subset, b


def initial_pair_count(n: int, r: int) -> int:
    return math.comb(n, r) * r


def local_search(
    hg: Hypergraph,
    subset: tuple[int, ...],
    b: int,
    radius: int,
    trace: Optional[TraceFn] = None,
) -> SearchOutcome:
    """Bounded-radius search from the start (subset, b): the subset's r
    nodes frozen on the colors 1..r in ascending node order, every other
    node unfrozen on the background color b.

    Each search node is evaluated afresh from the edge bit sets of
    edge_bits. Case order per node: no rainbow edge -> certify the current
    coloring; out of budget, or a fully frozen rainbow edge -> fail;
    otherwise recolor the unfrozen node of the lowest-index rainbow edge to
    each of the other r-1 colors, freeze it, and recurse with one less
    budget. Every recolored node is frozen at once, so unfrozen nodes keep
    the background color and a rainbow edge has at most one unfrozen node;
    once no rainbow edge is fully frozen, each has exactly one, and the
    tree is (r-1)-ary. trace, when given, is called as trace(depth,
    coloring, frozen) at every node with the live color array and frozen
    mask. Raises ValueError unless radius >= 0, the subset is r distinct
    nodes of 0..n-1 and b is in 1..r.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    nodes = sorted(subset)
    if len(nodes) != hg.r or len(set(nodes)) != hg.r or nodes[0] < 0 or nodes[-1] >= hg.n:
        raise ValueError(f"subset must be {hg.r} distinct nodes in 0..{hg.n - 1}, got {tuple(subset)}")
    if not 1 <= b <= hg.r:
        raise ValueError(f"background color {b} outside 1..{hg.r}")
    stats = SearchStats(trials=1)
    t0 = time.perf_counter()
    coloring = np.full(hg.n, b, dtype=np.intp)
    coloring[nodes] = np.arange(1, hg.r + 1)
    frozen = np.zeros(hg.n, dtype=bool)
    frozen[nodes] = True
    certificate = _search(hg, coloring, frozen, radius, 0, stats, trace)
    stats.elapsed = time.perf_counter() - t0
    stats.max_start_nodes = stats.recursion_nodes
    if certificate is None:
        return SearchOutcome(NOT_COLORABLE, None, stats)
    if not is_no_rainbow_coloring(hg, certificate):
        raise RuntimeError("internal error: search produced an invalid certificate")
    return SearchOutcome(COLORABLE, certificate, stats)


def _search(
    hg: Hypergraph,
    coloring: np.ndarray,
    frozen: np.ndarray,
    budget: int,
    depth: int,
    stats: SearchStats,
    trace: Optional[TraceFn],
) -> Optional[list[int]]:
    stats.recursion_nodes += 1
    if trace is not None:
        trace(depth, coloring, frozen)
    rainbow, free, _ = edge_bits(hg, coloring, frozen)
    if not rainbow:
        return coloring.tolist()
    if budget == 0 or rainbow & ~free:
        return None
    edge = hg.edges[(rainbow & -rainbow).bit_length() - 1]
    v = next(u for u in edge if not frozen[u])
    old = int(coloring[v])
    frozen[v] = True
    for color in range(1, hg.r + 1):
        if color == old:
            continue
        coloring[v] = color
        found = _search(hg, coloring, frozen, budget - 1, depth + 1, stats, trace)
        if found is not None:
            return found
    coloring[v] = old
    frozen[v] = False
    return None


def det_nrc(hg: Hypergraph, radius: Optional[int] = None, workers: int = 1) -> SearchOutcome:
    """Decide no-rainbow r-colorability in two passes over the (subset, b)
    starts, stopping at the first certified success: every start's root
    alone (in-process, counted as one node and one trial if it certifies),
    then every start at the search radius, by default the full one.

    n < r admits no surjective coloring, so the answer is immediate. With
    workers > 1 the second pass runs in parallel chunks; the decision is
    unchanged but stats may differ from a sequential run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if radius is not None and radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    t0 = time.perf_counter()
    stats = SearchStats()
    certificate = None
    if hg.n >= hg.r:
        certificate = _root_certificate(hg, stats)
        if certificate is None:
            if radius is None:
                radius = search_radius(hg.n, hg.r)
            range_fn = functools.partial(_det_range, radius=radius)
            certificate = search_ranges(hg, range_fn, initial_pair_count(hg.n, hg.r), workers, stats)
    stats.elapsed = time.perf_counter() - t0
    if certificate is None:
        return SearchOutcome(NOT_COLORABLE, None, stats)
    return SearchOutcome(COLORABLE, certificate, stats)


def _root_certificate(hg: Hypergraph, stats: SearchStats) -> Optional[list[int]]:
    """The first start's root coloring with no rainbow edge, counted in stats
    as local_search counts it, or None. Only the subset's r-1 nodes not
    colored b differ from b, so a rainbow edge must contain all of them."""
    inc = hg.incidence
    for subset, b in enumerate_initial_pairs(hg):
        if not functools.reduce(operator.and_, [inc[v] for c, v in enumerate(subset, 1) if c != b]):
            coloring = [b] * hg.n
            for color, v in enumerate(subset, 1):
                coloring[v] = color
            if not is_no_rainbow_coloring(hg, coloring):
                raise RuntimeError("internal error: root sweep produced an invalid certificate")
            stats.absorb(SearchStats(recursion_nodes=1, trials=1, max_start_nodes=1))
            return coloring
    return None


def _det_range(hg: Hypergraph, lo: int, hi: int, stats: SearchStats, radius: int) -> Optional[list[int]]:
    for subset, b in itertools.islice(enumerate_initial_pairs(hg), lo, hi):
        outcome = local_search(hg, subset, b, radius)
        stats.absorb(outcome.stats)
        if outcome.colorable:
            return outcome.certificate
    return None
