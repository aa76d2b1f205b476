"""Randomized local search: many independent restarts, each a short
random repair walk from a frozen r-subset with a random background.

A trial loops over every r-subset F of the nodes; the walk from each start
recolors the unfrozen node of a nearly-frozen rainbow edge to a uniformly
random other color, freezing it, for at most n - r steps. NOT_COLORABLE
answers are therefore one-sided: a witness may be missed, but every
COLORABLE answer carries a verified certificate.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .hypergraph import (
    COLORABLE,
    NOT_COLORABLE,
    Hypergraph,
    SearchOutcome,
    SearchStats,
    edge_bits,
    is_no_rainbow_coloring,
    validate_candidate_pair,
)
from .parallel import search_ranges

DEFAULT_TRIAL_CAP = 10**6


def trial_count(n: int, r: int, alpha: float, cap: int = DEFAULT_TRIAL_CAP) -> int:
    """Number of restart rounds: ceil(alpha * (r/2)^n), computed exactly.
    Rounding up never weakens the success guarantee. Refuses counts above
    cap so a huge n fails loudly instead of looping for years."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    _check_alpha(alpha)
    count = math.ceil(Fraction(str(alpha)) * Fraction(r, 2) ** n)
    if count > cap:
        raise ValueError(f"trial count {count} exceeds cap {cap}; raise the cap to proceed")
    return count


def _check_alpha(alpha: float) -> None:
    if not alpha > 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def derive_rng(master_seed: int, trial: int, subset_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one (trial, subset) start. Every
    start owns its stream, so runs are schedule-independent."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial, subset_index)))


def rand_local_search(
    hg: Hypergraph,
    coloring: list[int],
    frozen: Iterable[int],
    rng: np.random.Generator,
    trace: Optional[list] = None,
) -> SearchOutcome:
    """One random repair walk from a candidate pair with |frozen| = r.

    The walk evaluates the start and the state after each of at most n - r
    recolorings, each afresh from the edge bit sets of edge_bits, as in the
    det search: no rainbow edge certifies the coloring; a fully frozen
    rainbow edge fails the walk; no edge with exactly r-1 frozen nodes
    certifies the frozen colors with every unfrozen node set to 1;
    otherwise the unfrozen node of the lowest rainbow edge with r-1 frozen
    nodes (or, when no rainbow edge has one, a uniformly random unfrozen
    node of the lowest-index rainbow edge with the most frozen nodes) is
    recolored to a uniformly random other color and frozen.
    trace, when given, records (node, old, new) per recoloring.
    """
    frozen_nodes = set(frozen)
    if len(frozen_nodes) != hg.r:
        raise ValueError(f"start needs exactly r={hg.r} frozen nodes, got {len(frozen_nodes)}")
    validate_candidate_pair(hg, coloring, frozen_nodes)
    stats = SearchStats(trials=1)
    t0 = time.perf_counter()
    colors = list(coloring)
    frozen = [v in frozen_nodes for v in range(hg.n)]
    certificate = None
    # the last of n - r + 1 evaluations sees every node frozen, so it certifies or fails
    for _ in range(hg.n - hg.r + 1):
        stats.recursion_nodes += 1
        rainbow, free, free2 = edge_bits(hg, colors, frozen)
        if not rainbow:
            certificate = colors
            break
        if rainbow & ~free:
            break
        if not free & ~free2:
            # no edge has r-1 frozen nodes: an edge with a free node has two, now both 1
            certificate = [c if f else 1 for c, f in zip(colors, frozen)]
            break
        branch = rainbow & ~free2
        if branch:
            edge = hg.edges[(branch & -branch).bit_length() - 1]
            v = next(u for u in edge if not frozen[u])
        else:
            rainbow_edges = [hg.edges[i] for i, bit in enumerate(bin(rainbow)[:1:-1]) if bit == "1"]
            edge = max(rainbow_edges, key=lambda e: sum(frozen[u] for u in e))
            unfrozen = [u for u in edge if not frozen[u]]
            v = unfrozen[int(rng.integers(len(unfrozen)))]
        old = colors[v]
        color = int(rng.integers(hg.r - 1)) + 1
        if color >= old:
            color += 1
        if trace is not None:
            trace.append((v, old, color))
        colors[v] = color
        frozen[v] = True
    stats.elapsed = time.perf_counter() - t0
    stats.max_start_nodes = stats.recursion_nodes
    if certificate is None:
        return SearchOutcome(NOT_COLORABLE, None, stats)
    if not is_no_rainbow_coloring(hg, certificate):
        raise RuntimeError("internal error: walk produced an invalid certificate")
    return SearchOutcome(COLORABLE, certificate, stats)


def _start_coloring(hg: Hypergraph, subset: tuple[int, ...], rng: np.random.Generator) -> list[int]:
    """Colors 1..r on the subset in node order, uniform colors elsewhere."""
    coloring = [0] * hg.n
    for color, v in enumerate(subset, start=1):
        coloring[v] = color
    others = [v for v in range(hg.n) if coloring[v] == 0]
    if others:
        draws = rng.integers(1, hg.r + 1, size=len(others))
        for v, c in zip(others, draws):
            coloring[v] = int(c)
    return coloring


def _canonical_certificate(hg: Hypergraph) -> list[int]:
    return [v + 1 if v < hg.r else 1 for v in range(hg.n)]


def rand_nrc(
    hg: Hypergraph,
    alpha: float = 2.0,
    master_seed: int = 0,
    cap: int = DEFAULT_TRIAL_CAP,
    workers: int = 1,
) -> SearchOutcome:
    """Run trial_count(n, r, alpha) restart rounds, each trying every
    r-subset start, and return the first certified coloring found.

    Degenerate inputs short-circuit: n < r is never colorable, and an
    edgeless instance is colorable by any surjective coloring. Starts whose
    frozen subset is itself an edge are skipped without drawing: that edge
    is rainbow and fully frozen, so the walk would fail on its first check.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_alpha(alpha)
    t0 = time.perf_counter()
    stats = SearchStats()
    if hg.n < hg.r:
        stats.elapsed = time.perf_counter() - t0
        return SearchOutcome(NOT_COLORABLE, None, stats)
    if hg.m == 0:
        certificate = _canonical_certificate(hg)
        if not is_no_rainbow_coloring(hg, certificate):
            raise RuntimeError("internal error: degenerate certificate invalid")
        stats.elapsed = time.perf_counter() - t0
        return SearchOutcome(COLORABLE, certificate, stats)
    trials = trial_count(hg.n, hg.r, alpha, cap)
    range_fn = functools.partial(_rand_range, master_seed=master_seed)
    certificate = search_ranges(hg, range_fn, trials, workers, stats)
    stats.elapsed = time.perf_counter() - t0
    if certificate is None:
        return SearchOutcome(NOT_COLORABLE, None, stats)
    return SearchOutcome(COLORABLE, certificate, stats)


def _rand_range(hg: Hypergraph, lo: int, hi: int, stats: SearchStats, master_seed: int) -> Optional[list[int]]:
    """Run restart rounds lo..hi-1."""
    for trial in range(lo, hi):
        for subset_index, subset in enumerate(itertools.combinations(range(hg.n), hg.r)):
            if subset in hg.edge_set:
                stats.trials += 1
                continue
            rng = derive_rng(master_seed, trial, subset_index)
            coloring = _start_coloring(hg, subset, rng)
            outcome = rand_local_search(hg, coloring, subset, rng)
            stats.absorb(outcome.stats)
            if outcome.colorable:
                return outcome.certificate
    return None
