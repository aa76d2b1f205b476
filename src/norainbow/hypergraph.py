"""r-uniform hypergraphs, colorings, and the certificate predicate every solver shares.

Nodes are 0..n-1 internally and 1..n in instance files. Colors are 1..r
everywhere. A coloring is a plain list of ints of length n; in det's search
it sits beside a list of n bools, True for each frozen node.
"""
from __future__ import annotations

import functools
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

    @classmethod
    def from_canonical(cls, n: int, r: int, edges: tuple[tuple[int, ...], ...], incidence: tuple[int, ...]):
        """A Hypergraph whose edges are already canonical, with their
        incidence, built without re-running the checks; for parsers that
        checked the edges in bulk."""
        hg = object.__new__(cls)
        hg.__dict__.update(n=n, r=r, edges=edges, incidence=incidence)
        return hg

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @functools.cached_property
    def incidence(self) -> tuple[int, ...]:
        """Per node, the bit set of the edges that contain it: bit i is edge i."""
        return incidence_of(np.array(self.edges, dtype=np.int64).reshape(self.m, self.r), self.n)


def incidence_of(rows: np.ndarray, n: int) -> tuple[int, ...]:
    """Hypergraph.incidence of the (m, r) array of edge rows. Bits are set in
    one little-endian byte row per node, converted to an int once: OR-ing
    1 << i into a growing int would copy it per edge, O(m^2/64)."""
    width = (len(rows) + 7) // 8
    edge = np.arange(len(rows))
    bits = np.zeros(n * width, np.uint8)
    where = rows * width + (edge >> 3)[:, None]
    np.bitwise_or.at(bits, where.ravel(), np.repeat((1 << (edge & 7)).astype(np.uint8), rows.shape[1]))
    return tuple(int.from_bytes(row, "little") for row in bits.reshape(n, width))


@dataclass
class SearchStats:
    """Work counters for one solver run.

    trials counts the starts searched: det's full-radius starts, all in its
    prefix of starts whose subset holds node 0, or the one root of its
    sweep that certifies; for rand, all C(n, r) subsets of every
    round run (its walks and the subsets that are edges). recursion_nodes
    counts det's search-tree nodes (1 for that root) and the state
    evaluations of every rand walk of every round run, max_start_nodes the
    most of any one start.
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


def parse_lines(text: str) -> Hypergraph:
    """Parse instance text line by line: 'c' comments, a 'p nrc <n> <m> <r>'
    header, then m lines of r space-separated 1-indexed node ids.
    `bulk_parse.parse_instance` falls back to this for every text it does
    not take, and for the line-numbered ParseError of every text it rejects."""
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
# certificate predicate


def is_no_rainbow_coloring(hg: Hypergraph, coloring: list[int]) -> bool:
    """True when coloring has length n, its colors are exactly 1..r, and no
    edge carries r distinct colors. This is exactly what solvers must certify."""
    if len(coloring) != hg.n or set(coloring) != set(range(1, hg.r + 1)):
        return False
    return all(len({coloring[v] for v in e}) < hg.r for e in hg.edges)
