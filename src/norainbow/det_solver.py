"""Deterministic branching local search over frozen candidate pairs.

Every start is an r-subset F given the colors 1..r in node order plus a
uniform background color; the search recolors one unfrozen node of a
nearly-frozen rainbow edge per level, freezing it, until it either proves
the start hopeless or can exhibit a certificate. The radius bound keeps
each start's tree at most (r-1)-ary of bounded depth.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from typing import Callable, Iterator, Optional

import numpy as np

from .hypergraph import (
    COLORABLE,
    NOT_COLORABLE,
    CandidatePair,
    Hypergraph,
    SearchOutcome,
    SearchStats,
    branch_node,
    edge_state,
    is_no_rainbow_coloring,
    validate_candidate_pair,
)
from .parallel import search_ranges

TraceFn = Callable[[int, np.ndarray, np.ndarray], None]


def search_radius(n: int, r: int) -> int:
    """Maximum Hamming distance a start must explore: floor((r-1)n/r).
    Distances are integers, so flooring the bound loses nothing."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    return (r - 1) * n // r


def enumerate_initial_pairs(hg: Hypergraph) -> Iterator[CandidatePair]:
    """Yield every start: for each r-subset F (ascending) and each background
    color b in 1..r, the coloring giving F's nodes colors 1..r in node order
    and b everywhere else. Exactly C(n, r) * r pairs."""
    if hg.n < hg.r:
        raise ValueError(f"no surjective start exists for n={hg.n} < r={hg.r}")
    for subset in itertools.combinations(range(hg.n), hg.r):
        frozen = frozenset(subset)
        for b in range(1, hg.r + 1):
            coloring = [b] * hg.n
            for color, v in enumerate(subset, start=1):
                coloring[v] = color
            yield CandidatePair(coloring, frozen)


def initial_pair_count(n: int, r: int) -> int:
    return math.comb(n, r) * r


def local_search(
    hg: Hypergraph,
    pair: CandidatePair,
    radius: int,
    trace: Optional[TraceFn] = None,
) -> SearchOutcome:
    """Bounded-radius search from one candidate pair whose unfrozen nodes
    all share one background color, as every det_nrc start does.

    Each search node is evaluated afresh from the per-edge rainbow flags and
    frozen counts of edge_state. Case order per node: no rainbow edge ->
    certify the current coloring; out of budget, or a fully frozen rainbow
    edge -> fail; otherwise recolor the unfrozen node of the lowest rainbow
    edge with r-1 frozen nodes to each of the other r-1 colors, freeze it,
    and recurse with one less budget. Every recolored node is frozen at
    once, so unfrozen nodes keep the background color and a rainbow edge
    has at most one unfrozen node; once no rainbow edge is fully frozen,
    each has exactly one, and the tree is (r-1)-ary. trace, when given, is
    called as trace(depth, coloring, frozen) at every node with the live
    color array and frozen mask. Raises ValueError on a pair with a
    non-uniform background.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    validate_candidate_pair(hg, pair.coloring, pair.frozen)
    if len({c for v, c in enumerate(pair.coloring) if v not in pair.frozen}) > 1:
        raise ValueError("local_search needs one background color on every unfrozen node")
    stats = SearchStats(trials=1)
    t0 = time.perf_counter()
    coloring = np.array(pair.coloring, dtype=np.intp)
    frozen = np.zeros(hg.n, dtype=bool)
    frozen[list(pair.frozen)] = True
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
    rainbow, frozen_count = edge_state(hg, coloring, frozen)
    if not rainbow.any():
        return coloring.tolist()
    if budget == 0 or (frozen_count[rainbow] == hg.r).any():
        return None
    v = branch_node(hg, frozen, rainbow, frozen_count)
    # free this node's per-edge arrays before the subtree below it runs
    del rainbow, frozen_count
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
    """Decide no-rainbow r-colorability by trying every initial candidate
    pair at the full search radius; stops at the first certified success.

    n < r admits no surjective coloring, so the answer is immediate. With
    workers > 1 the starts are searched in parallel chunks; the decision is
    unchanged but stats may differ from a sequential run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    stats = SearchStats()
    certificate = None
    if hg.n >= hg.r:
        if radius is None:
            radius = search_radius(hg.n, hg.r)
        range_fn = functools.partial(_det_range, radius=radius)
        certificate = search_ranges(hg, range_fn, initial_pair_count(hg.n, hg.r), workers, stats)
    stats.elapsed = time.perf_counter() - t0
    if certificate is None:
        return SearchOutcome(NOT_COLORABLE, None, stats)
    return SearchOutcome(COLORABLE, certificate, stats)


def _det_range(hg: Hypergraph, lo: int, hi: int, stats: SearchStats, radius: int) -> Optional[list[int]]:
    for pair in itertools.islice(enumerate_initial_pairs(hg), lo, hi):
        outcome = local_search(hg, pair, radius)
        stats.absorb(outcome.stats)
        if outcome.colorable:
            return outcome.certificate
    return None
