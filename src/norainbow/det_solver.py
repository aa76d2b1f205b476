"""Deterministic branching local search from (subset, b) starts.

Every start is an r-subset F frozen on the colors 1..r in node order over
one background color b on every other node; the search recolors one
unfrozen node of a nearly-frozen rainbow edge per level, freezing it, until
it either proves the start hopeless or can exhibit a certificate. Each
start's tree is at most (r-1)-ary, and a node at depth radius is a leaf.

The subset s_1 < ... < s_r is read as the class minima of the witness the
start looks for, color k's least node being s_k. So a node v outside the
subset can only take a color k whose s_k lies below v: its cap is the
number of subset nodes below it, and it branches on the colors 1..cap other
than b. The s_b - b + 1 nodes below s_b outside the subset have caps below
b, so each must leave b; the search counts those still colored b and
prunes a node when they outnumber the levels left.

Recolored nodes never return to b, so the colors alone say which nodes are
frozen. One search per start closes over the start's state and changes it
in place: the colors and per-color edge bit sets, O(r) bit set operations
per node whatever n; only the shared-color edges, the depth and the count
of forced nodes are passed.

det_nrc searches only the starts det_starts yields (see there why they
suffice). It tests each one's root alone, then searches them all if none
certifies, to the radius less the r - 1 recolorings the root already holds.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
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


def det_starts(n: int, r: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield det's starts as (subset, b): each r-subset F that holds node 0,
    in ascending order, and for each, each background color b in 1..r; none
    when n < r. These suffice: relabel a witness so that its class minima
    carry 1..r in node order and let b be its largest class's color; node 0
    is a class minimum, and the search from (minima, b) certifies."""
    for rest in itertools.combinations(range(1, n), r - 1):
        for b in range(1, r + 1):
            yield (0, *rest), b


def start_count(n: int, r: int) -> int:
    """C(n-1, r-1) * r for n >= 1: the length of det_starts(n, r)."""
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

    The subset is read as the class minima of the coloring sought: a node
    v outside it may take only the colors 1..cap(v), cap(v) being the
    number of subset nodes below v, and the nodes below the subset's node
    w colored b, whose caps are below b, must all leave b.

    Case order per node: no rainbow edge -> certify the current coloring;
    depth radius reached, a fully frozen rainbow edge, or more nodes below w
    still on b than the radius has levels left -> fail; otherwise recolor
    the unfrozen node v of the lowest-index rainbow edge to each color in
    1..cap(v) other than b, freeze it, and go one level deeper.

    Recolored nodes are frozen at once, so every unfrozen node keeps b and
    w is the only frozen node colored b: a node is frozen exactly when its
    color is not b or it is w. The search carries touched, per color c != b
    the edges its nodes meet, and dup, the edges two nodes of one such
    color share. An edge has r nodes, so it is rainbow when it is in every
    touched set but not in dup, and a fully frozen rainbow edge when it is
    in every touched set and holds w. Once no rainbow edge is fully frozen,
    each has exactly one unfrozen node, its node colored b, and the tree is
    at most (r-1)-ary. The radius is searched as given, where det_nrc
    lowers it. trace, when given, is called as trace(depth, coloring) at
    every node with the live list of colors, which the search goes on to
    mutate.
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
    unchecked for det_nrc to check once; adds the start and its tree to stats.
    search(dup, depth, forced) recolors coloring and touched in place and
    restores them before it returns None; forced counts the nodes below w
    still colored b."""
    coloring = [b] * hg.n
    for color, v in enumerate(nodes, 1):
        coloring[v] = color
    # touched[c - 1] per color c; b's entry is -1, all ones, so their AND skips it
    touched = [-1 if c == b else hg.incidence[v] for c, v in enumerate(nodes, 1)]
    w = nodes[b - 1]
    w_edges = hg.incidence[w]
    # a node with cap k branches on children[: k - (k >= b)], the colors 1..k but b
    children = [c for c in range(1, hg.r + 1) if c != b]

    def search(dup: int, depth: int, forced: int) -> Optional[list[int]]:
        stats.recursion_nodes += 1
        if trace is not None:
            trace(depth, coloring)
        covered = functools.reduce(operator.and_, touched)
        rainbow = covered & ~dup
        if not rainbow:
            return coloring[:]
        if depth == radius or covered & w_edges or forced > radius - depth:
            return None
        edge = hg.edges[(rainbow & -rainbow).bit_length() - 1]
        v = next(u for u in edge if coloring[u] == b)
        inc = hg.incidence[v]
        cap = bisect.bisect(nodes, v)
        left = forced - (v < w)
        for color in children[: cap - (cap >= b)]:
            coloring[v] = color
            before = touched[color - 1]
            touched[color - 1] = before | inc
            found = search(dup | (before & inc), depth + 1, left)
            touched[color - 1] = before
            if found is not None:
                return found
        coloring[v] = b
        return None

    if sys.getrecursionlimit() < radius + 1000:  # search recurses once per level
        sys.setrecursionlimit(radius + 1000)
    nodes_before = stats.recursion_nodes
    certificate = search(0, 0, w - b + 1)  # the nodes below w less the b - 1 subset nodes there
    del search  # it refers to itself; freed now, not by the cycle collector
    stats.trials += 1
    stats.max_start_nodes = max(stats.max_start_nodes, stats.recursion_nodes - nodes_before)
    return certificate


def det_nrc(hg: Hypergraph, workers: int = 1) -> SearchOutcome:
    """Decide no-rainbow r-colorability in two passes over det_starts,
    stopping at the first certified success: each start's root alone
    (in-process, counted as one node and one trial if it certifies), then
    each start searched to search_radius(n, r) - (r - 1). A witness whose
    class minima and largest class are the start's lies within
    search_radius(n, r) of all-b, and the root already holds r - 1 of its
    recolorings. A start whose s_b - b + 1 forced nodes exceed that radius
    is skipped unbuilt and uncounted: the first pass found a rainbow edge at
    its root, where its search would end. det_starts are the head of the
    paper's order over every (subset, b), and as det_starts says one of
    them certifies any colorable input, so either pass stops where the same
    pass over every start would.

    n < r admits no surjective coloring, so the answer is immediate. With
    workers > 1 the second pass runs in parallel chunks; the decision is
    unchanged but stats may differ from a sequential run. Those workers are
    spawned, so a script calling this needs an `if __name__ == "__main__":` guard.
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
    radius-0 search, which counts it in stats, or None; det_starts says why
    its starts suffice. Only the subset's r-1 nodes not colored b differ from
    b, so a rainbow edge must contain all of them."""
    inc = hg.incidence
    for subset, b in det_starts(hg.n, hg.r):
        if not functools.reduce(operator.and_, [inc[v] for c, v in enumerate(subset, 1) if c != b]):
            return _start_search(hg, subset, b, 0, stats)
    return None


def _det_range(hg: Hypergraph, lo: int, hi: int, stats: SearchStats) -> Optional[list[int]]:
    radius = search_radius(hg.n, hg.r) - (hg.r - 1)
    for subset, b in itertools.islice(det_starts(hg.n, hg.r), lo, hi):
        if subset[b - 1] - b + 1 > radius:  # its root is pruned, and has a rainbow edge
            continue
        certificate = _start_search(hg, subset, b, radius, stats)
        if certificate is not None:
            return certificate
    return None
