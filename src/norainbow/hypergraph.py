"""r-uniform hypergraphs, colorings, and the predicates every solver shares.

Nodes are 0..n-1 internally and 1..n in instance files. Colors are 1..r
everywhere. A coloring is a plain list of ints of length n.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

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
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each node, the indices of edges containing it."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for ei, e in enumerate(self.edges):
            for v in e:
                inc[v].append(ei)
        return tuple(tuple(x) for x in inc)


class BranchTarget(NamedTuple):
    edge_index: int
    node: int


@dataclass
class CandidatePair:
    """A surjective coloring plus a frozen node set covering every color.

    Frozen nodes keep their color for the rest of a search.
    """

    coloring: list[int]
    frozen: frozenset[int]


@dataclass
class SearchStats:
    """Work counters for one solver run.

    recursion_nodes counts search-tree nodes for the deterministic search
    and walk iterations for the randomized one; trials counts search starts
    and max_start_nodes the most nodes any one start took. No solver adds
    to fallback_nodes, which stays 0: det never takes a fallback branch,
    and rand counts its fallback steps in recursion_nodes. The field is
    kept because the `c stats ... fallback=` line and the perfbench
    counters read it.
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


def has_fully_frozen_rainbow(hg: Hypergraph, coloring: list[int], frozen: set[int]) -> bool:
    """True when some rainbow edge lies entirely inside the frozen set: a
    dead end, since no node of that edge may be recolored."""
    for ei, e in enumerate(hg.edges):
        if all(v in frozen for v in e) and is_rainbow_edge(hg, coloring, ei):
            return True
    return False


def completion_safe(hg: Hypergraph, frozen: set[int]) -> bool:
    """True when no edge has exactly r-1 frozen nodes. Then any edge is
    either fully frozen or keeps two nodes free to share the fill color,
    so background_completion below cannot create a rainbow edge."""
    target = hg.r - 1
    for e in hg.edges:
        if sum(1 for v in e if v in frozen) == target:
            return False
    return True


def background_completion(hg: Hypergraph, coloring: list[int], frozen: set[int]) -> list[int]:
    """Keep frozen colors, recolor every other node to 1, and return the
    result, which is verified to be a no-rainbow coloring before it leaves.

    Requires a candidate pair with completion_safe and no fully frozen
    rainbow edge; verification failure means a bug and raises rather than
    ever returning an unverified certificate.
    """
    validate_candidate_pair(hg, coloring, frozen)
    if has_fully_frozen_rainbow(hg, coloring, frozen):
        raise ValueError("fully frozen rainbow edge: completion impossible")
    if not completion_safe(hg, frozen):
        raise ValueError("some edge has exactly r-1 frozen nodes: completion unsafe")
    completed = [coloring[v] if v in frozen else 1 for v in range(hg.n)]
    if not is_no_rainbow_coloring(hg, completed):
        raise RuntimeError("internal error: background completion failed verification")
    return completed


# ---------------------------------------------------------------------------
# incremental search bookkeeping


class SearchState:
    """Mutable per-branch counters over one coloring and frozen set.

    Keeps, per edge, the color multiplicities, the distinct-color count and
    the frozen-member count, plus running totals of rainbow edges, edges
    with exactly r-1 frozen members, and fully frozen rainbow edges. A
    recolor or freeze costs O(incident edges); the step predicates the
    solvers ask at every search node are then O(1).
    """

    def __init__(self, hg: Hypergraph, coloring: list[int], frozen: Iterable[int]):
        self.hg = hg
        self.coloring = list(coloring)
        self.frozen = set(frozen)
        r = hg.r
        self.color_counts = [[0] * (r + 1) for _ in range(hg.m)]
        self.distinct = [0] * hg.m
        self.frozen_count = [0] * hg.m
        self.rainbow_edges = 0
        self.near_frozen_edges = 0
        self.frozen_rainbow_edges = 0
        for ei, e in enumerate(hg.edges):
            counts = self.color_counts[ei]
            for v in e:
                c = self.coloring[v]
                if counts[c] == 0:
                    self.distinct[ei] += 1
                counts[c] += 1
                if v in self.frozen:
                    self.frozen_count[ei] += 1
            self._tally(ei, +1)

    def _tally(self, ei: int, sign: int) -> None:
        r = self.hg.r
        if self.distinct[ei] == r:
            self.rainbow_edges += sign
            if self.frozen_count[ei] == r:
                self.frozen_rainbow_edges += sign
        if self.frozen_count[ei] == r - 1:
            self.near_frozen_edges += sign

    def recolor(self, v: int, color: int) -> int:
        """Set node v to color, returning its previous color."""
        old = self.coloring[v]
        if color == old:
            return old
        for ei in self.hg.incidence[v]:
            self._tally(ei, -1)
            counts = self.color_counts[ei]
            counts[old] -= 1
            if counts[old] == 0:
                self.distinct[ei] -= 1
            if counts[color] == 0:
                self.distinct[ei] += 1
            counts[color] += 1
            self._tally(ei, +1)
        self.coloring[v] = color
        return old

    def freeze(self, v: int) -> None:
        self.frozen.add(v)
        for ei in self.hg.incidence[v]:
            self._tally(ei, -1)
            self.frozen_count[ei] += 1
            self._tally(ei, +1)

    def unfreeze(self, v: int) -> None:
        self.frozen.discard(v)
        for ei in self.hg.incidence[v]:
            self._tally(ei, -1)
            self.frozen_count[ei] -= 1
            self._tally(ei, +1)

    def branch_target(self) -> Optional[BranchTarget]:
        """Lowest-index rainbow edge with exactly r-1 frozen nodes, paired
        with its unique unfrozen node; None when no edge qualifies."""
        r = self.hg.r
        for ei in range(self.hg.m):
            if self.distinct[ei] == r and self.frozen_count[ei] == r - 1:
                v = next(u for u in self.hg.edges[ei] if u not in self.frozen)
                return BranchTarget(ei, v)
        return None

    def fallback_edge(self) -> Optional[int]:
        """Lowest-index rainbow edge with the most frozen members; used only
        when no rainbow edge has exactly one unfrozen node."""
        best = None
        best_fc = -1
        for ei in range(self.hg.m):
            if self.distinct[ei] == self.hg.r and self.frozen_count[ei] > best_fc:
                best, best_fc = ei, self.frozen_count[ei]
        return best
