"""Brute-force ground truth by exhaustive enumeration of all r^n colorings.

oracle_decide counts every surjective no-rainbow coloring exactly. It splits
the nodes into a prefix and a suffix of k nodes: the colors of the suffix's
r^k colorings, one bit per color, are OR-ed once per edge into a table, and
each prefix coloring is then tested against all of them in one vectorized
pass, so that desk sizes (r=3 up to n=16, r=4 up to n=13) are tractable.
It tests one prefix per orbit of the r! color permutations: that symmetry is
a fact about the definition, not one of det's lemmas, so the oracle stays
independent of the solvers.

oracle_verify_certificate re-checks every certificate any solver emits
against the definition. It is independent of the solver-side gate
is_no_rainbow_coloring: it counts each edge's distinct colors after a sort,
where the gate marks colors in a table, and this module imports no solver
code or solver-side predicate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hypergraph import COLORABLE, NOT_COLORABLE, Hypergraph

DEFAULT_BUDGET = 10**8
# Cells in the suffix table (suffix colorings x (edges + 1)); sets k.
_TABLE_CELLS = 1 << 20


@dataclass
class OracleReport:
    decision: str
    witness_count: int
    sample_witness: Optional[list[int]]


def _growth_prefixes(length: int, r: int):
    """The restricted-growth colorings of `length` nodes (each color at most one
    above the largest before it) in counting order, with the colors each uses."""
    if length == 0:
        yield (), 0
        return
    for prefix, used in _growth_prefixes(length - 1, r):
        for c in range(min(used + 1, r)):
            yield (*prefix, c), max(used, c + 1)


def oracle_decide(hg: Hypergraph, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Decide all r^n colorings in base-r counting order (node 0 most
    significant) and count the surjective ones inducing no rainbow edge.
    The sample witness is the first in counting order.

    The last k nodes form the suffix, k as large as keeps its table of
    r^k rows by m + 1 masks within _TABLE_CELLS cells. Colors are bits, so
    the table holds, per suffix coloring and edge, the OR of the edge's
    suffix colors, next to the OR of all suffix colors. A suffix row is a
    witness beside a coloring of the first n-k nodes when the two used masks
    together cover every color and no edge's two masks do. Only restricted-
    growth prefixes are tested: one using j colors stands for the r!/(r-j)!
    its color permutations give, each with as many witnesses. The first
    witness in counting order is restricted-growth, so the first prefix with
    a witness holds it.

    Refuses instances needing more than the budget (default 10^8 colorings).
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    n, r, m = hg.n, hg.r, hg.m
    # r^n = 2^(n log2 r) alone above the budget is refused before the exact
    # power; the message spells the count out only when it fits in 64 bits
    if n > (budget.bit_length() + 1) / math.log2(r) or r**n > budget:
        total = f"{r}^{n}" + (f" = {r**n}" if n <= 64 / math.log2(r) else "")
        raise ValueError(f"enumeration needs {total} colorings, over budget {budget}; raise the budget to force")
    if n < r:  # no coloring is surjective
        return OracleReport(NOT_COLORABLE, 0, None)

    k = n
    while k and r**k * (m + 1) > _TABLE_CELLS:
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
    for prefix, used in _growth_prefixes(split, r):
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
        witness_count += found * math.perm(r, used)

    decision = COLORABLE if witness_count > 0 else NOT_COLORABLE
    return OracleReport(decision, witness_count, sample)


def oracle_verify_certificate(hg: Hypergraph, coloring: list[int]) -> bool:
    """Definition-level certificate check, a formulation of its own: the
    coloring's colors are exactly the palette 1..r (it maps into 1..r and
    uses every color), and no edge is rainbow, where each edge's colors are
    sorted and an edge is rainbow when it holds r distinct values."""
    if len(coloring) != hg.n:
        raise ValueError(f"certificate length {len(coloring)} != n={hg.n}")
    if set(coloring) != set(range(1, hg.r + 1)):
        return False
    colors = np.sort(np.asarray(coloring)[hg.rows], axis=1)
    distinct = 1 + np.count_nonzero(colors[:, 1:] != colors[:, :-1], axis=1)
    return not (distinct == hg.r).any()
