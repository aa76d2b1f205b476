"""r-uniform hypergraphs, colorings, and the certificate predicate every solver shares.

Nodes are 0..n-1 internally and 1..n in instance files; the Hypergraph
constructor checks every edge list, built or parsed, into the one stored
form, the array rows. Colors are 1..r. A coloring, a list of n ints, is
the whole state of det's search; its frozen nodes follow from the colors.

parse_instance splits the text into lines once and scans them to the header
once. A body of m lines of ASCII digits, spaces and tabs becomes one int
array in one numpy call; every other body, and every one that call or the
constructor rejects, is parsed line by line, to the same graph or to the
line-numbered ParseError.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

COLORABLE = "COLORABLE"
NOT_COLORABLE = "NOT_COLORABLE"


class ParseError(ValueError):
    """Malformed instance text; the message names the offending line."""


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable r-uniform hypergraph, stored as its edge array rows.

    Edges, given as a sequence of tuples or as an (m, r) int array, are
    checked and canonicalized on construction: each edge sorted ascending,
    the edge list sorted lexicographically, duplicates dropped. rows holds
    the result as a read-only (m, r) int64 array, and m counts its unique
    edges. An edge of the wrong size, or with an id that is not a 64-bit
    integer, outside 0..n-1 or repeated, is a ValueError naming it. rows
    stays read-only in pickled and deep copies too. Two graphs are equal
    when n, r and rows are; a graph is not hashable.
    """

    n: int
    r: int
    rows: np.ndarray = ()

    def __post_init__(self):
        n, r, edges = self.n, self.r, self.rows
        if r < 2:
            raise ValueError(f"uniformity r must be >= 2, got {r}")
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
            for e in edges:
                if len(e) != r:
                    raise ValueError(f"edge {tuple(e)} has {len(e)} nodes, expected {r}")
        rows = np.array(edges).reshape(len(edges), r)
        # a float or str id, or an int beyond int64, leaves a non-int or a uint64 array
        if rows.dtype.kind not in "iu" or rows.size and rows.max() >= 2**63:
            for e in edges.tolist() if isinstance(edges, np.ndarray) else edges:
                if not all(isinstance(v, numbers.Integral) and -(2**63) <= v < 2**63 for v in e):
                    raise ValueError(f"edge {tuple(e)} has a node id that is not a 64-bit integer")
        rows = np.sort(rows.astype(np.int64), axis=1)
        for bad, problem in (
            ((rows[:, 0] < 0) | (rows[:, -1] >= n), f"has a node id outside 0..{n - 1}"),
            ((rows[:, 1:] == rows[:, :-1]).any(axis=1), "repeats a node"),
        ):
            if bad.any():
                raise ValueError(f"edge {tuple(rows[bad.argmax()].tolist())} {problem}")
        if r * n.bit_length() <= 63:  # n**r < 2**63: one int64 key per row
            keys = rows[:, 0]
            for j in range(1, r):
                keys = keys * n + rows[:, j]
            keys = np.sort(keys)  # the rows' lexicographic order
            keep = np.ones(len(keys), dtype=bool)
            keep[1:] = keys[1:] != keys[:-1]
            keys, columns = keys[keep], []
            for _ in range(r - 1):  # decode the last column first
                keys, column = np.divmod(keys, n)
                columns.append(column)
            rows = np.column_stack([keys, *columns[::-1]])
        else:
            rows = np.unique(rows, axis=0)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __setstate__(self, state):  # a pickled or deep-copied array comes back writeable
        self.__dict__.update(state)
        self.rows.flags.writeable = False

    def __eq__(self, other):  # the shape (m, r) of rows carries r
        return isinstance(other, Hypergraph) and self.n == other.n and np.array_equal(self.rows, other.rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as a tuple of sorted node tuples, edges[i] being row i; built on first read."""
        return tuple(zip(*self.rows.T.tolist()))

    @functools.cached_property
    def incidence(self) -> tuple[int, ...]:
        """Per node, the bit set of the edges that contain it, bit i being
        row i; built from rows on first read. Bits are set in one
        little-endian byte row per node, converted to an int once: OR-ing
        1 << i into a growing int would copy it per edge, O(m^2/64)."""
        width = (self.m + 7) // 8
        edge = np.arange(self.m)
        bits = np.zeros(self.n * width, np.uint8)
        where = self.rows * width + (edge >> 3)[:, None]
        np.bitwise_or.at(bits, where.ravel(), np.repeat((1 << (edge & 7)).astype(np.uint8), self.r))
        return tuple(int.from_bytes(row, "little") for row in bits.reshape(self.n, width))


@dataclass
class SearchStats:
    """Work counters for one solver run; the caller times the run.

    trials counts the starts searched: det's second-pass starts, from
    det_starts, less those it skips unbuilt because their forced nodes
    exceed the radius, or the one root of its sweep that certifies; for
    rand, all C(n, r) subsets of every round up to the first with a hit
    (its walks and the subsets that are edges). recursion_nodes counts det's
    search-tree nodes (1 for that root) and the state evaluations of every
    rand walk of those rounds, max_start_nodes the most of any one start.
    fallback_nodes stays 0 (det takes no fallback branch, rand counts its
    fallback steps as nodes); `c stats ... fallback=` and perfbench read it.
    """

    recursion_nodes: int = 0
    fallback_nodes: int = 0
    trials: int = 0
    max_start_nodes: int = 0

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

    @classmethod
    def of(cls, hg: Hypergraph, certificate: Optional[list[int]], stats: SearchStats) -> "SearchOutcome":
        """NOT_COLORABLE without a certificate; COLORABLE with one that
        is_no_rainbow_coloring accepts. The one gate every solver answers through."""
        if certificate is None:
            return cls(NOT_COLORABLE, None, stats)
        if not is_no_rainbow_coloring(hg, certificate):
            raise RuntimeError("internal error: a solver produced an invalid certificate")
        return cls(COLORABLE, certificate, stats)

    @property
    def colorable(self) -> bool:
        return self.decision == COLORABLE


# ---------------------------------------------------------------------------
# instance file format


def parse_instance(text: str) -> Hypergraph:
    """Parse instance text: 'c' comments, a 'p nrc <n> <m> <r>' header, then
    m lines of r space-separated 1-indexed node ids. One leading UTF-8 byte
    order mark, as some editors write, is dropped."""
    lines = text.removeprefix("\ufeff").splitlines()
    start, n, m, r = _header(lines)
    # The lines are released before the conversion, to lower peak memory. A
    # split line holds no line end, so body.split(" 0\n") gives them back.
    count, body = len(lines) - start - 1, " 0\n".join(lines[start + 1 :])
    del lines
    hg = _parse_bulk(body, n, m, r) if count == m else None
    return _parse_edge_lines(body.split(" 0\n"), start + 2, n, m, r) if hg is None else hg


def _header(lines: list[str]) -> tuple[int, int, int, int]:
    """The index of the header line, after blank and 'c' lines only, and its n, m and r."""
    for i, raw in enumerate(lines):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] != "p":
            raise ParseError(f"line {i + 1}: edge line before header")
        if len(tokens) != 5 or tokens[1] != "nrc":
            raise ParseError(f"line {i + 1}: malformed header {raw!r}")
        try:
            n, m, r = int(tokens[2]), int(tokens[3]), int(tokens[4])
        except ValueError:
            raise ParseError(f"line {i + 1}: malformed header {raw!r}") from None
        if n < 0 or m < 0 or r < 2:
            raise ParseError(f"line {i + 1}: header needs n >= 0, m >= 0, r >= 2, got {raw!r}")
        return i, n, m, r
    raise ParseError("missing 'p nrc' header line")


def _parse_bulk(body: str, n: int, m: int, r: int) -> Optional[Hypergraph]:
    """The Hypergraph of body, its m edge lines joined by a " 0" and an LF,
    converted in one numpy call; None when a line holds anything but ASCII
    digits, spaces and tabs, or the conversion or the constructor rejects it."""
    data = body.encode("ascii", "replace")  # a non-ASCII character becomes "?"
    if data.translate(None, b"0123456789 \t\n") or n >= 2**63 - 1:  # np.fromstring reads a larger id as 2**63 - 1
        return None
    # A 0 closes each of the m lines. With m * (r + 1) numbers, as reshape
    # needs, and no 0 among the first r of any row, the m zeros fill the last
    # column: r ids a line. The constructor rejects the id -1 of a misplaced 0.
    table = np.fromstring(data + b" 0" if m else b"", dtype=np.int64, sep=" ")
    try:
        return Hypergraph(n, r, table.reshape(m, r + 1)[:, :r] - 1)
    except ValueError:
        return None


def _parse_edge_lines(lines: list[str], first: int, n: int, m: int, r: int) -> Hypergraph:
    """Parse the lines after the header, line `first` of the text onwards, one at
    a time: the graph or line-numbered ParseError of a body _parse_bulk refuses."""
    edges: list[list[int]] = []
    for lineno, raw in enumerate(lines, start=first):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            raise ParseError(f"line {lineno}: duplicate header")
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
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return Hypergraph(n, r, edges)


def write_instance(hg: Hypergraph) -> str:
    """Serialize to the instance format; parse_instance(write_instance(h)) == h."""
    ids = (hg.rows.astype(np.uint64) + 1).ravel().tolist()  # 1-based; int64 would wrap the id 2**63
    return f"p nrc {hg.n} {hg.m} {hg.r}\n" + ((" ".join(["%d"] * hg.r) + "\n") * hg.m) % tuple(ids)


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
    edge carries r distinct colors. This is exactly what solvers must certify.
    Edges are checked by one-hot coverage: row i of an (m, r + 1) bool table
    marks the colors of edge i, and an edge is rainbow when it marks all of 1..r."""
    if len(coloring) != hg.n or set(coloring) != set(range(1, hg.r + 1)):
        return False
    hit = np.zeros((hg.m, hg.r + 1), dtype=bool)
    hit[np.arange(hg.m)[:, None], np.asarray(coloring, dtype=np.intp)[hg.rows]] = True
    return not hit[:, 1:].all(axis=1).any()
