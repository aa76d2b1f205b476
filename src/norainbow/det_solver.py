"""Deterministic branching local search from (subset, b) starts.

Every start is an r-subset F frozen on the colors 1..r in node order over
one background color b on every other node; the search recolors one
unfrozen node of a nearly-frozen rainbow edge per level, freezing it, until
it either proves the start hopeless or can exhibit a certificate. The
radius bound keeps each start's tree at most (r-1)-ary of bounded depth.

Recolored nodes never return to b, so the colors alone say which nodes are
frozen, and the search carries per-color edge bit sets down the tree: O(r)
bit set operations per node, whatever n.

det_nrc searches only the starts whose subset holds node 0: a witness
relabelled by its class minima is reached from one of them. It tests each
one's root alone, then searches them all at the full radius if none certifies.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterator, Optional, Sequence

from .hypergraph import Hypergraph, SearchOutcome, SearchStats
from .parallel import search_ranges

TraceFn = Callable[[int, list[int]], None]


def search_radius(n: int, r: int) -> int:
    """Maximum Hamming distance a start must explore: floor((r-1)n/r).
    Distances are integers, so flooring the bound loses nothing."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    return (r - 1) * n // r


def enumerate_initial_pairs(hg: Hypergraph) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield every start as (subset, b): each r-subset F in ascending order,
    and for each, each background color b in 1..r. Exactly C(n, r) * r
    starts, of which det_nrc searches only the first start_count(n, r):
    the subsets that hold node 0 come first in this order."""
    if hg.n < hg.r:
        raise ValueError(f"no surjective start exists for n={hg.n} < r={hg.r}")
    for subset in itertools.combinations(range(hg.n), hg.r):
        for b in range(1, hg.r + 1):
            yield subset, b


def start_count(n: int, r: int) -> int:
    """C(n-1, r-1) * r: the starts at the head of enumerate_initial_pairs
    whose subset holds node 0. Relabel a witness so that its class minima
    carry 1..r in node order and let b be its largest class's color; node 0
    is a class minimum, and the search from (minima, b) certifies."""
    return math.comb(n - 1, r - 1) * r


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

    Case order per node: no rainbow edge -> certify the current coloring;
    out of budget, or a fully frozen rainbow edge -> fail; otherwise
    recolor the unfrozen node of the lowest-index rainbow edge to each of
    the other r-1 colors, freeze it, and recurse with one less budget.

    Recolored nodes are frozen at once, so every unfrozen node keeps b and
    the subset's node w is the only frozen node colored b: a node is frozen
    exactly when its color is not b or it is w. The search carries touched,
    per color c != b the edges its nodes meet, and dup, the edges two nodes
    of one such color share. An edge has r nodes, so it is rainbow when it
    is in every touched set but not in dup, and a fully frozen rainbow edge
    when it is in every touched set and holds w. Once no rainbow edge is
    fully frozen, each has exactly one unfrozen node, its node colored b,
    and the tree is (r-1)-ary. trace, when given, is called as
    trace(depth, coloring) at every node with the live list of colors,
    which the search goes on to mutate.
    Raises ValueError unless radius >= 0, the subset is r distinct nodes
    of 0..n-1 and b is in 1..r.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    nodes = sorted(subset)
    if len(nodes) != hg.r or len(set(nodes)) != hg.r or nodes[0] < 0 or nodes[-1] >= hg.n:
        raise ValueError(f"subset must be {hg.r} distinct nodes in 0..{hg.n - 1}, got {tuple(subset)}")
    if not 1 <= b <= hg.r:
        raise ValueError(f"background color {b} outside 1..{hg.r}")
    stats = SearchStats()
    certificate = _start_search(hg, nodes, b, radius, stats, trace)
    return SearchOutcome.of(hg, certificate, stats)


def _start_search(
    hg: Hypergraph, nodes: Sequence[int], b: int, radius: int, stats: SearchStats, trace: Optional[TraceFn] = None
) -> Optional[list[int]]:
    """local_search's certificate from the start (nodes, b), nodes ascending,
    unchecked for det_nrc to check once; adds the start and its tree to stats."""
    coloring = [b] * hg.n
    for color, v in enumerate(nodes, 1):
        coloring[v] = color
    # touched[c - 1] per color c; b's entry is -1, all ones, so their AND skips it
    touched = [-1 if c == b else hg.incidence[v] for c, v in enumerate(nodes, 1)]
    w_edges = hg.incidence[nodes[b - 1]]
    before = stats.recursion_nodes
    certificate = _search(hg, coloring, b, touched, 0, w_edges, radius, 0, stats, trace)
    stats.trials += 1
    stats.max_start_nodes = max(stats.max_start_nodes, stats.recursion_nodes - before)
    return certificate


def _search(
    hg: Hypergraph,
    coloring: list[int],
    b: int,
    touched: list[int],
    dup: int,
    w_edges: int,
    budget: int,
    depth: int,
    stats: SearchStats,
    trace: Optional[TraceFn],
) -> Optional[list[int]]:
    stats.recursion_nodes += 1
    if trace is not None:
        trace(depth, coloring)
    covered = functools.reduce(operator.and_, touched)
    rainbow = covered & ~dup
    if not rainbow:
        return coloring[:]
    if budget == 0 or covered & w_edges:
        return None
    edge = hg.edges[(rainbow & -rainbow).bit_length() - 1]
    v = next(u for u in edge if coloring[u] == b)
    inc = hg.incidence[v]
    for color in range(1, hg.r + 1):
        if color == b:
            continue
        coloring[v] = color
        before = touched[color - 1]
        touched[color - 1] = before | inc
        found = _search(
            hg, coloring, b, touched, dup | (before & inc), w_edges, budget - 1, depth + 1, stats, trace
        )
        touched[color - 1] = before
        if found is not None:
            return found
    coloring[v] = b
    return None


def det_nrc(hg: Hypergraph, workers: int = 1) -> SearchOutcome:
    """Decide no-rainbow r-colorability in two passes over the first
    start_count(n, r) (subset, b) starts, stopping at the first certified
    success: each start's root alone (in-process, counted as one node and
    one trial if it certifies), then each start at the full search radius.
    Those starts hold node 0 in their subset, and every witness relabelled by
    its class minima is reached from one; so either pass stops where a pass
    over every start would.

    n < r admits no surjective coloring, so the answer is immediate. With
    workers > 1 the second pass runs in parallel chunks; the decision is
    unchanged but stats may differ from a sequential run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    stats = SearchStats()
    certificate = None
    if hg.n >= hg.r:
        certificate = _root_certificate(hg, stats)
        if certificate is None:
            certificate = search_ranges(hg, _det_range, start_count(hg.n, hg.r), workers, stats)
    return SearchOutcome.of(hg, certificate, stats)


def _root_certificate(hg: Hypergraph, stats: SearchStats) -> Optional[list[int]]:
    """The first root coloring with no rainbow edge, found by that start's
    radius-0 search, which counts it in stats, or None. Relabelled by its
    class minima, a root is the root of a start whose subset holds node 0, so
    the first start_count(n, r) starts suffice. Only the subset's r-1 nodes
    not colored b differ from b, so a rainbow edge must contain all of them."""
    inc = hg.incidence
    for subset, b in itertools.islice(enumerate_initial_pairs(hg), start_count(hg.n, hg.r)):
        if not functools.reduce(operator.and_, [inc[v] for c, v in enumerate(subset, 1) if c != b]):
            return _start_search(hg, subset, b, 0, stats)
    return None


def _det_range(hg: Hypergraph, lo: int, hi: int, stats: SearchStats) -> Optional[list[int]]:
    radius = search_radius(hg.n, hg.r)
    for subset, b in itertools.islice(enumerate_initial_pairs(hg), lo, hi):
        certificate = _start_search(hg, subset, b, radius, stats)
        if certificate is not None:
            return certificate
    return None
