"""Brute-force ground truth by exhaustive enumeration of all r^n colorings.

oracle_decide counts every surjective no-rainbow coloring exactly, with no
symmetry shortcuts. It splits the nodes into a prefix and a suffix of k
nodes: the colors of the suffix's r^k colorings, one bit per color, are
OR-ed once per edge into a table, and each prefix coloring is then tested
against all of them in one vectorized pass, so that desk sizes (r=3 up to
n=16, r=4 up to n=13) are tractable. oracle_verify_certificate is a
deliberately naive, standalone re-statement of the definition used to
cross-check every certificate any solver emits.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hypergraph import COLORABLE, NOT_COLORABLE, Hypergraph

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "NRC_ORACLE_BUDGET"
# Cells in the suffix table (suffix colorings x (edges + 1)); sets k.
_TABLE_CELLS = 1 << 20


@dataclass
class OracleReport:
    decision: str
    witness_count: int
    sample_witness: Optional[list[int]]


def resolve_budget(budget: Optional[int] = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


def oracle_decide(hg: Hypergraph, budget: Optional[int] = None) -> OracleReport:
    """Enumerate all r^n colorings in base-r counting order (node 0 most
    significant) and count the surjective ones inducing no rainbow edge.
    The sample witness is the first in enumeration order.

    The last k nodes form the suffix, k as large as keeps its table of
    r^k rows by m + 1 masks within _TABLE_CELLS cells. Colors are bits, so
    the table holds, per suffix coloring and edge, the OR of the edge's
    suffix colors, next to the OR of all suffix colors. For each coloring of the first n-k
    nodes, in counting order, a suffix row is a witness when the two used
    masks together cover every color and no edge's two masks do.

    Refuses instances needing more than the budget (parameter, else the
    NRC_ORACLE_BUDGET environment variable, else 10^8 colorings).
    """
    budget = resolve_budget(budget)
    n, r, m = hg.n, hg.r, hg.m
    total = r**n
    if total > budget:
        raise ValueError(
            f"enumeration needs {total} colorings, over budget {budget}; "
            f"pass budget>={total} to force"
        )
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


def oracle_verify_certificate(hg: Hypergraph, coloring: list[int]) -> bool:
    """Definition-level certificate check, independent of the solver-side
    predicates: the coloring's colors are exactly the palette 1..r (it maps
    into 1..r and uses every color), and no edge's colors are the palette."""
    if len(coloring) != hg.n:
        raise ValueError(f"certificate length {len(coloring)} != n={hg.n}")
    palette = set(range(1, hg.r + 1))
    if set(coloring) != palette:
        return False
    return all({coloring[v] for v in e} != palette for e in hg.edges)
