"""Plain reference predicates that tests compare the package against."""
from __future__ import annotations

from typing import Optional

from norainbow import BranchTarget, Hypergraph, is_rainbow_edge


def hamming(a: list[int], b: list[int]) -> int:
    """Number of positions where the two colorings disagree."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def select_branch_edge(
    hg: Hypergraph, coloring: list[int], frozen: set[int]
) -> Optional[BranchTarget]:
    """Lowest-index rainbow edge with exactly r-1 frozen nodes, paired with
    its unique unfrozen node; None when no edge qualifies."""
    for ei, e in enumerate(hg.edges):
        unfrozen = [v for v in e if v not in frozen]
        if len(unfrozen) == 1 and is_rainbow_edge(hg, coloring, ei):
            return BranchTarget(ei, unfrozen[0])
    return None
