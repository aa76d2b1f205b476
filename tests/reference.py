"""Plain reference predicates that tests compare the package against."""
from __future__ import annotations

from typing import Optional

from norainbow import Hypergraph, first_rainbow_edge, is_rainbow_edge


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
