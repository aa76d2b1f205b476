"""Plain reference predicates that tests compare the package against, the
certificate definition among them, the line-by-line instance parser, the
product-order oracle, every (subset, b) start in order and the
class-minimum starts det searches among them, the one-start walk, rand's
one-round-at-a-time loop, and the witness-aligned walk starts of the
success-rate tests."""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional

import numpy as np

from norainbow import (
    COLORABLE,
    NOT_COLORABLE,
    Hypergraph,
    SearchOutcome,
    SearchStats,
    is_no_rainbow_coloring,
)
from norainbow.hypergraph import _header, _parse_edge_lines
from norainbow.oracle import _TABLE_CELLS, OracleReport
from norainbow.rand_solver import lockstep_walks


def parse_lines(text: str) -> Hypergraph:
    """parse_instance without the bulk conversion: the header scan, then
    every line after it parsed one at a time."""
    lines = text.removeprefix("\ufeff").splitlines()
    start, n, m, r = _header(lines)
    return _parse_edge_lines(lines[start + 1 :], start + 2, n, m, r)


def product_order_decide(hg: Hypergraph, cells: int = _TABLE_CELLS) -> OracleReport:
    """oracle_decide without its budget or its color symmetry: every one of
    the r^n prefix colorings in itertools.product order is tested against a
    suffix table of at most `cells` cells, and each witness counts once."""
    n, r, m = hg.n, hg.r, hg.m
    if n < r:  # no coloring is surjective
        return OracleReport(NOT_COLORABLE, 0, None)

    k = n
    while k and r**k * (m + 1) > cells:
        k -= 1
    split = n - k
    dtype = np.min_scalar_type((1 << r) - 1)
    color_bit = np.array([1 << c for c in range(r)], dtype=dtype)
    full = dtype.type((1 << r) - 1)
    edges = hg.rows

    # Suffix table, rows in counting order of the last k nodes.
    rows = np.arange(r**k, dtype=np.int64)
    suffix_used = np.zeros(r**k, dtype=dtype)
    suffix_edge = np.zeros((r**k, m), dtype=dtype)
    for j in range(k):
        bit = color_bit[rows // r ** (k - 1 - j) % r]
        suffix_used |= bit
        on_edge = np.flatnonzero((edges == split + j).any(axis=1))
        suffix_edge[:, on_edge] |= bit[:, None]

    # Prefix nodes index their own bits; suffix nodes index a trailing 0.
    prefix_cols = np.where(edges < split, edges, split)
    witness_count = 0
    sample: Optional[list[int]] = None
    for prefix in itertools.product(range(r), repeat=split):
        bits = np.append(color_bit[list(prefix)], dtype.type(0))
        prefix_edge = np.bitwise_or.reduce(bits[prefix_cols], axis=1)
        if (prefix_edge == full).any():
            continue  # an edge is rainbow within the prefix alone
        ok = (suffix_used | np.bitwise_or.reduce(bits)) == full
        ok &= ~((suffix_edge | prefix_edge) == full).any(axis=1)
        found = int(np.count_nonzero(ok))
        if found and sample is None:
            row = int(np.argmax(ok))
            suffix = [row // r ** (k - 1 - j) % r for j in range(k)]
            sample = [c + 1 for c in (*prefix, *suffix)]
        witness_count += found

    decision = COLORABLE if witness_count > 0 else NOT_COLORABLE
    return OracleReport(decision, witness_count, sample)


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


def reference_no_rainbow(hg: Hypergraph, coloring: list[int]) -> bool:
    """The certificate definition, one edge at a time: coloring has length
    n, its colors are exactly 1..r, and no edge's nodes carry r distinct colors."""
    if len(coloring) != hg.n or set(coloring) != set(range(1, hg.r + 1)):
        return False
    return first_rainbow_edge(hg, coloring) is None


def hamming(a: list[int], b: list[int]) -> int:
    """Number of positions where the two colorings disagree."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def select_branch_edge(
    hg: Hypergraph, coloring: list[int], frozen: set[int]
) -> Optional[tuple[int, int]]:
    """Lowest-index rainbow edge with exactly r-1 frozen nodes, paired with
    its unique unfrozen node; None when no edge qualifies."""
    for ei, e in enumerate(hg.edges):
        unfrozen = [v for v in e if v not in frozen]
        if len(unfrozen) == 1 and is_rainbow_edge(hg, coloring, ei):
            return ei, unfrozen[0]
    return None


def has_fully_frozen_rainbow(hg: Hypergraph, coloring: list[int], frozen: set[int]) -> bool:
    """True when some rainbow edge lies entirely inside the frozen set: a
    dead end, since no node of that edge may be recolored."""
    for ei, e in enumerate(hg.edges):
        if all(v in frozen for v in e) and is_rainbow_edge(hg, coloring, ei):
            return True
    return False


def completion_exit(hg: Hypergraph, coloring: list[int], frozen: set[int]) -> Optional[list[int]]:
    """The certificate a random walk from (coloring, frozen) returns at its
    first step through the completion exit: some edge is rainbow, none of
    them fully frozen, and no edge has exactly r-1 frozen nodes, so the
    frozen colors with every other node set to 1 are a no-rainbow coloring.
    None when the first step takes another exit."""
    if first_rainbow_edge(hg, coloring) is None or has_fully_frozen_rainbow(hg, coloring, frozen):
        return None
    if any(sum(v in frozen for v in e) == hg.r - 1 for e in hg.edges):
        return None
    return [coloring[v] if v in frozen else 1 for v in range(hg.n)]


def fallback_edge(hg: Hypergraph, coloring: list[int], frozen: set[int]) -> Optional[int]:
    """Lowest-index rainbow edge with the most frozen nodes: the edge a
    random walk draws its node from when no rainbow edge has exactly r-1
    frozen nodes. None when no edge is rainbow."""
    best, most = None, -1
    for ei, e in enumerate(hg.edges):
        count = sum(v in frozen for v in e)
        if count > most and is_rainbow_edge(hg, coloring, ei):
            best, most = ei, count
    return best


def enumerate_initial_pairs(hg: Hypergraph) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield every start (subset, b) of the paper's search, C(n, r) * r in
    all: each r-subset in ascending order, and for each, each background
    color b in 1..r. det's starts, those whose subset holds node 0, come
    first."""
    for subset in itertools.combinations(range(hg.n), hg.r):
        for b in range(1, hg.r + 1):
            yield subset, b


def first_root_certificate(hg: Hypergraph) -> Optional[list[int]]:
    """Root coloring of the first (subset, b) start, in enumerate_initial_pairs
    order, that has no rainbow edge: the subset's nodes on the colors 1..r,
    every other node on b. None when no start's root certifies."""
    for subset, b in enumerate_initial_pairs(hg):
        coloring = [b] * hg.n
        for color, v in enumerate(subset, start=1):
            coloring[v] = color
        if first_rainbow_edge(hg, coloring) is None:
            return coloring
    return None


def class_minimum_starts(hg: Hypergraph) -> list[tuple[tuple[int, ...], int]]:
    """The starts of enumerate_initial_pairs whose subset holds node 0, in
    order: the ones whose subset can be the class minima of a coloring."""
    return [(subset, b) for subset, b in enumerate_initial_pairs(hg) if subset[0] == 0]


def reference_det_search(
    hg: Hypergraph, subset: tuple[int, ...], b: int, radius: int
) -> tuple[Optional[list[int]], list[tuple[int, list[int], list[bool]]]]:
    """det's search from the start (subset, b) on the plain predicates
    above, every node evaluated afresh, the subset read as class minima: a
    node v outside it may take only the colors up to the number of subset
    nodes below v, so every node below the subset's b node w must be
    recolored, and a node fails when more of those are unfrozen than its
    budget allows. Returns (certificate or None, trace), the trace holding
    a (depth, coloring, frozen flags) snapshot per node in preorder."""
    nodes = sorted(subset)
    coloring, frozen, trace = [b] * hg.n, set(subset), []
    for color, v in enumerate(nodes, start=1):
        coloring[v] = color

    def search(budget: int, depth: int) -> Optional[list[int]]:
        trace.append((depth, list(coloring), [v in frozen for v in range(hg.n)]))
        if first_rainbow_edge(hg, coloring) is None:
            return list(coloring)
        forced = sum(v not in frozen for v in range(nodes[b - 1]))
        if budget == 0 or has_fully_frozen_rainbow(hg, coloring, frozen) or forced > budget:
            return None
        _, v = select_branch_edge(hg, coloring, frozen)
        old = coloring[v]
        frozen.add(v)
        for color in range(1, sum(u < v for u in nodes) + 1):
            if color != old:
                coloring[v] = color
                found = search(budget - 1, depth + 1)
                if found is not None:
                    return found
        coloring[v] = old
        frozen.discard(v)
        return None

    return search(radius, 0), trace


def reference_walk(
    hg: Hypergraph, coloring: list[int], frozen: set[int], choices: Iterable[tuple[int, int]]
) -> tuple[Optional[list[int]], int]:
    """The random repair walk from (coloring, frozen) that takes its
    (pick, draw) choices in turn, on the plain predicates above: pick
    indexes the unfrozen nodes of the step's edge in node order, and the
    node's new color is draw in 1..r-1, plus one from its old color up.
    Returns (certificate or None, states evaluated)."""
    colors, frozen, choices = list(coloring), set(frozen), iter(choices)
    for evaluation in range(1, hg.n - hg.r + 2):
        if first_rainbow_edge(hg, colors) is None:
            return colors, evaluation
        if has_fully_frozen_rainbow(hg, colors, frozen):
            return None, evaluation
        filled = completion_exit(hg, colors, frozen)
        if filled is not None:
            return filled, evaluation
        branch = select_branch_edge(hg, colors, frozen)
        ei = branch[0] if branch else fallback_edge(hg, colors, frozen)
        pick, draw = next(choices)
        v = [u for u in hg.edges[ei] if u not in frozen][pick]
        colors[v] = draw + (draw >= colors[v])
        frozen.add(v)
    raise AssertionError("walk outlived n - r + 1 evaluations")


def rand_local_search(
    hg: Hypergraph, coloring: list[int], frozen: Iterable[int], rng: np.random.Generator
) -> SearchOutcome:
    """One random repair walk from coloring with the r nodes in frozen
    frozen: lockstep_walks on a batch of this one start."""
    mask = np.zeros((1, hg.n), dtype=bool)
    mask[0, sorted(set(frozen))] = True
    walks = lockstep_walks(hg, [coloring], mask, [rng])
    evaluations = int(walks.evaluations[0])
    stats = SearchStats(recursion_nodes=evaluations, trials=1, max_start_nodes=evaluations)
    if not walks.certified[0]:
        return SearchOutcome(NOT_COLORABLE, None, stats)
    certificate = walks.colors[0].tolist()
    assert is_no_rainbow_coloring(hg, certificate)
    return SearchOutcome(COLORABLE, certificate, stats)


def reference_rand_range(
    hg: Hypergraph, lo: int, hi: int, stats: SearchStats, master_seed: int
) -> Optional[list[int]]:
    """rand's restart rounds lo..hi-1 without batching: each round is its own
    lockstep_walks call on its K non-edge subsets, with its own Generator."""
    edges = set(hg.edges)
    starts = [s for s in itertools.combinations(range(hg.n), hg.r) if s not in edges]
    rows = np.arange(len(starts))[:, None]
    starts = np.array(starts, dtype=np.intp).reshape(len(starts), hg.r)
    frozen = np.zeros((len(starts), hg.n), dtype=bool)
    frozen[rows, starts] = True
    for trial in range(lo, hi):
        stats.trials += math.comb(hg.n, hg.r)
        if not len(starts):
            continue
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial,)))
        colors = rng.integers(1, hg.r + 1, size=frozen.shape)
        colors[rows, starts] = np.arange(1, hg.r + 1)
        walks = lockstep_walks(hg, colors, frozen, [rng])
        stats.recursion_nodes += int(walks.evaluations.sum())
        stats.max_start_nodes = max(stats.max_start_nodes, int(walks.evaluations.max()))
        hits = np.flatnonzero(walks.certified)
        if hits.size:
            return walks.colors[hits[0]].tolist()
    return None


def witness_aligned_starts(
    witness: list[int], r: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """count (colors, frozen) walk starts: uniform backgrounds, then one
    uniform node of each of the witness's color classes frozen on its
    witness color."""
    colors = rng.integers(1, r + 1, size=(count, len(witness)))
    frozen = np.zeros(colors.shape, dtype=bool)
    rows = np.arange(count)
    for color in range(1, r + 1):
        nodes = np.flatnonzero(np.array(witness) == color)
        v = nodes[rng.integers(len(nodes), size=count)]
        colors[rows, v] = color
        frozen[rows, v] = True
    return colors, frozen
