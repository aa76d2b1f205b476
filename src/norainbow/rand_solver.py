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
    SearchState,
    SearchStats,
    background_completion,
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
    factor = Fraction(str(alpha))
    if factor <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    count = math.ceil(factor * Fraction(r, 2) ** n)
    if count > cap:
        raise ValueError(f"trial count {count} exceeds cap {cap}; raise the cap to proceed")
    return count


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

    Each of at most n - r iterations: a fully frozen rainbow edge fails the
    walk; no rainbow edge certifies the coloring; no edge with exactly r-1
    frozen nodes certifies the background completion; otherwise the unfrozen
    node of the lowest qualifying rainbow edge (or, when no rainbow edge
    qualifies, a uniformly random unfrozen node of the lowest-index rainbow
    edge with the most frozen members) is recolored to a uniformly random
    other color and frozen. trace, when given, records (node, old, new)
    per recoloring.
    """
    frozen = set(frozen)
    if len(frozen) != hg.r:
        raise ValueError(f"start needs exactly r={hg.r} frozen nodes, got {len(frozen)}")
    validate_candidate_pair(hg, coloring, frozen)
    stats = SearchStats(trials=1)
    t0 = time.perf_counter()
    state = SearchState(hg, coloring, frozen)
    certificate = None
    failed = False
    for _ in range(hg.n - hg.r):
        stats.recursion_nodes += 1
        if state.frozen_rainbow_edges > 0:
            failed = True
            break
        if state.rainbow_edges == 0:
            certificate = list(state.coloring)
            break
        if state.near_frozen_edges == 0:
            certificate = background_completion(hg, state.coloring, state.frozen)
            break
        target = state.branch_target()
        if target is not None:
            v = target.node
        else:
            ei = state.fallback_edge()
            unfrozen = [u for u in hg.edges[ei] if u not in state.frozen]
            v = unfrozen[int(rng.integers(len(unfrozen)))]
        old = state.coloring[v]
        color = int(rng.integers(hg.r - 1)) + 1
        if color >= old:
            color += 1
        if trace is not None:
            trace.append((v, old, color))
        state.recolor(v, color)
        state.freeze(v)
    stats.elapsed = time.perf_counter() - t0
    stats.max_start_nodes = stats.recursion_nodes
    if certificate is None or failed:
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
    one_subset_per_trial: bool = False,
) -> SearchOutcome:
    """Run trial_count(n, r, alpha) restart rounds, each trying every
    r-subset start, and return the first certified coloring found.

    Degenerate inputs short-circuit: n < r is never colorable, and an
    edgeless instance is colorable by any surjective coloring. Starts whose
    frozen subset is itself an edge are skipped without drawing: that edge
    is rainbow and fully frozen, so the walk would fail on its first check.

    one_subset_per_trial is a shortcut mode: each round starts from a single
    uniformly drawn subset instead of sweeping all of them. It is faster but
    voids the success guarantee the full sweep provides.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
    range_fn = functools.partial(_rand_range, master_seed=master_seed, one_subset=one_subset_per_trial)
    certificate = search_ranges(hg, range_fn, trials, workers, stats)
    stats.elapsed = time.perf_counter() - t0
    if certificate is None:
        return SearchOutcome(NOT_COLORABLE, None, stats)
    return SearchOutcome(COLORABLE, certificate, stats)


def _rand_range(
    hg: Hypergraph, lo: int, hi: int, stats: SearchStats, master_seed: int, one_subset: bool
) -> Optional[list[int]]:
    """Run restart rounds lo..hi-1."""
    subsets = list(itertools.combinations(range(hg.n), hg.r))
    for trial in range(lo, hi):
        if one_subset:
            # subset pick comes from its own stream, keyed by the trial alone,
            # so it never collides with the per-start walk streams
            pick = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial,)))
            indices = [int(pick.integers(len(subsets)))]
        else:
            indices = range(len(subsets))
        for subset_index in indices:
            subset = subsets[subset_index]
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
