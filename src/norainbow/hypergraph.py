"""r-uniform hypergraphs, colorings, and the predicates every solver shares.

Nodes are 0..n-1 internally and 1..n in instance files. Colors are 1..r
everywhere. A coloring is a plain list of ints of length n; inside a search
it is an intp array beside a boolean mask of the frozen nodes.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

COLORABLE = "COLORABLE"
NOT_COLORABLE = "NOT_COLORABLE"


class ParseError(ValueError):
    """Malformed instance text; the message names the offending line."""


@dataclass(frozen=True)
class Hypergraph:
    """Immutable r-uniform hypergraph.

    Edges are canonicalized on construction: each edge sorted ascending,
    the edge list sorted lexicographically, duplicates dropped. m always
    counts unique edges.
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"uniformity r must be >= 2, got {self.r}")
        if self.n < 0:
            raise ValueError(f"node count must be >= 0, got {self.n}")
        canon = sorted({tuple(sorted(e)) for e in self.edges})
        for e in canon:
            if len(e) != self.r:
                raise ValueError(f"edge {e} has {len(e)} nodes, expected {self.r}")
            if len(set(e)) != self.r:
                raise ValueError(f"edge {e} repeats a node")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} has a node id outside 0..{self.n - 1}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @functools.cached_property
    def incidence(self) -> tuple[int, ...]:
        """Per node, the bit set of the edges that contain it: bit i is edge i."""
        inc = [0] * self.n
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v] |= 1 << i
        return tuple(inc)


@dataclass
class SearchStats:
    """Work counters for one solver run.

    trials counts the starts searched: det's full-radius starts, or the one
    root of its sweep that certifies; rand's walks and the subsets that are
    edges. recursion_nodes counts det's search-tree nodes (1 for that root)
    and rand's walk iterations, max_start_nodes the most of any one start.
    fallback_nodes stays 0 (det takes no fallback branch, rand counts its
    fallback steps as nodes); `c stats ... fallback=` and perfbench read it.
    """

    recursion_nodes: int = 0
    fallback_nodes: int = 0
    trials: int = 0
    max_start_nodes: int = 0
    elapsed: float = 0.0

    def absorb(self, other: "SearchStats") -> None:
        self.recursion_nodes += other.recursion_nodes
        self.fallback_nodes += other.fallback_nodes
        self.trials += other.trials
        self.max_start_nodes = max(self.max_start_nodes, other.max_start_nodes)


@dataclass
class SearchOutcome:
    decision: str
    certificate: Optional[list[int]]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def colorable(self) -> bool:
        return self.decision == COLORABLE


# ---------------------------------------------------------------------------
# instance file format


def parse_instance(text: str) -> Hypergraph:
    """Parse instance text: 'c' comments, a 'p nrc <n> <m> <r>' header, then
    m lines of r space-separated 1-indexed node ids."""
    n = m = r = -1
    seen_header = False
    edges: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if seen_header:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(tokens) != 5 or tokens[1] != "nrc":
                raise ParseError(f"line {lineno}: malformed header {raw!r}")
            try:
                n, m, r = int(tokens[2]), int(tokens[3]), int(tokens[4])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed header {raw!r}") from None
            if n < 0 or m < 0 or r < 2:
                raise ParseError(
                    f"line {lineno}: header needs n >= 0, m >= 0, r >= 2, got {raw!r}"
                )
            seen_header = True
            continue
        if not seen_header:
            raise ParseError(f"line {lineno}: edge line before header")
        if len(tokens) != r:
            raise ParseError(
                f"line {lineno}: edge of wrong size, expected {r} node ids, got {len(tokens)}"
            )
        try:
            ids = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node id") from None
        for v in ids:
            if not 1 <= v <= n:
                raise ParseError(f"line {lineno}: node id out of range (got {v}, n={n})")
        if len(set(ids)) != r:
            raise ParseError(f"line {lineno}: repeated node within an edge")
        edges.append([v - 1 for v in ids])
    if not seen_header:
        raise ParseError("missing 'p nrc' header line")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return Hypergraph(n, r, tuple(tuple(e) for e in edges))


def write_instance(hg: Hypergraph) -> str:
    """Serialize to the instance format; parse_instance(write_instance(h)) == h."""
    lines = [f"p nrc {hg.n} {hg.m} {hg.r}"]
    for e in hg.edges:
        lines.append(" ".join(str(v + 1) for v in e))
    return "\n".join(lines) + "\n"


def format_certificate(coloring: Iterable[int]) -> str:
    return "v " + " ".join(str(c) for c in coloring)


def parse_certificate(line: str) -> list[int]:
    tokens = line.split()
    if not tokens or tokens[0] != "v":
        raise ParseError(f"certificate line must start with 'v', got {line!r}")
    try:
        return [int(t) for t in tokens[1:]]
    except ValueError:
        raise ParseError(f"non-integer color in certificate line {line!r}") from None


# ---------------------------------------------------------------------------
# coloring predicates


def is_rainbow_edge(hg: Hypergraph, coloring: list[int], edge_index: int) -> bool:
    """True when the edge's r nodes carry r distinct colors."""
    e = hg.edges[edge_index]
    return len({coloring[v] for v in e}) == hg.r


def first_rainbow_edge(hg: Hypergraph, coloring: list[int]) -> Optional[int]:
    """Lowest edge index that is rainbow, or None when none is."""
    for ei in range(hg.m):
        if is_rainbow_edge(hg, coloring, ei):
            return ei
    return None


def is_surjective(hg: Hypergraph, coloring: list[int]) -> bool:
    return set(coloring) == set(range(1, hg.r + 1))


def is_no_rainbow_coloring(hg: Hypergraph, coloring: list[int]) -> bool:
    """True when coloring maps into 1..r, uses every color, and no edge is
    rainbow. This is exactly what solvers must certify."""
    if len(coloring) != hg.n:
        return False
    if not is_surjective(hg, coloring):
        return False
    return first_rainbow_edge(hg, coloring) is None


def validate_candidate_pair(hg: Hypergraph, coloring: list[int], frozen: Iterable[int]) -> None:
    """Raise unless (coloring, frozen) is a candidate pair: every color 1..r
    appears on some frozen node (which forces surjectivity and |frozen| >= r)."""
    if len(coloring) != hg.n:
        raise ValueError(f"coloring length {len(coloring)} != n={hg.n}")
    for c in coloring:
        if not 1 <= c <= hg.r:
            raise ValueError(f"color {c} outside 1..{hg.r}")
    frozen_colors = set()
    for v in frozen:
        if not 0 <= v < hg.n:
            raise ValueError(f"frozen node {v} outside 0..{hg.n - 1}")
        frozen_colors.add(coloring[v])
    if frozen_colors != set(range(1, hg.r + 1)):
        raise ValueError(
            f"frozen set must witness every color 1..{hg.r}, has {sorted(frozen_colors)}"
        )


# ---------------------------------------------------------------------------
# per-node search evaluation


def edge_bits(hg: Hypergraph, coloring: np.ndarray, frozen: np.ndarray) -> tuple[int, int, int]:
    """Evaluate a search node on edge bit sets, bit i standing for edge i.

    coloring is an intp array of colors 1..r and frozen a boolean mask.
    Returns (rainbow, free, free2): the rainbow edges, the edges with at
    least one unfrozen node, and the edges with at least two. An edge has
    r nodes, so it is rainbow exactly when every color class touches it.
    Both solvers evaluate every search node afresh from these three sets.
    """
    touched = [0] * (hg.r + 1)
    free = free2 = 0
    for inc, color, is_frozen in zip(hg.incidence, coloring.tolist(), frozen.tolist()):
        touched[color] |= inc
        if not is_frozen:
            free2 |= free & inc
            free |= inc
    return functools.reduce(operator.and_, touched[1:]), free, free2
