"""Randomized local search: many independent restarts, each a short
random repair walk from a frozen r-subset with a random background.

A round walks from every r-subset F of the nodes that is not an edge: F is
frozen on the colors 1..r in node order, every other node gets a uniform
color, and each walk recolors the unfrozen node of a nearly-frozen rainbow
edge to a uniformly random other color, freezing it, for at most n - r
steps. Round t draws everything from its own Generator, keyed on
(master_seed, t): first its K backgrounds, then per step the node picks
and then the colors of its live walks. Rounds run in lockstep batches of
1, 2, 4, ... rounds, one row per walk and one block of K rows per round,
and are counted through the first round with a hit. The certificate and
the counters are therefore those of running the rounds one at a time.
NOT_COLORABLE answers are one-sided: a witness may be missed, but every
COLORABLE answer carries a verified certificate.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .hypergraph import Hypergraph, SearchOutcome, SearchStats
from .parallel import search_ranges

DEFAULT_ALPHA = 2.0
DEFAULT_TRIAL_CAP = 10**6
# Rows x edges of one batch of rounds; a single round may exceed it.
_BATCH_CELLS = 1 << 17


def trial_count(n: int, r: int, alpha: float, cap: int = DEFAULT_TRIAL_CAP) -> int:
    """Number of restart rounds: ceil(alpha * (r/2)^n), computed exactly.
    Rounding up never weakens the success guarantee. Refuses counts above
    cap so a huge n fails loudly instead of looping for years."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    check_alpha(alpha)
    # (r/2)^n = 2^(n (log2 r - 1)) alone above the cap is refused before the exact power
    too_many = r > 2 and n > (cap.bit_length() + 1) / (math.log2(r) - 1)
    if too_many or (count := math.ceil(Fraction(str(alpha)) * Fraction(r, 2) ** n)) > cap:
        raise ValueError(f"trial count ceil({alpha} * ({r}/2)^{n}) exceeds cap {cap}; raise the cap to proceed")
    return count


def check_alpha(alpha: float) -> None:
    if not alpha > 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


class Walks(NamedTuple):
    """End state of a batch of walks, one row per start."""

    colors: np.ndarray  # (K, n); a certified row holds its certificate
    frozen: np.ndarray  # (K, n) bool
    certified: np.ndarray  # (K,) bool
    evaluations: np.ndarray  # (K,) states each walk evaluated


def lockstep_walks(hg: Hypergraph, colors, frozen, rngs) -> Walks:
    """One random repair walk from each row of the (K, n) integer colors
    and (K, n) bool frozen arrays, all stepped at once: rand_nrc's inner
    step. _rand_range builds every start with r frozen nodes on the colors
    1..r, so no start is checked here. The inputs are copied. rngs holds one
    Generator per equal block of rows, in order; a single block passes [rng].

    Every live walk evaluates its state, for at most n - r + 1 evaluations,
    and leaves at the first exit that applies: no rainbow edge certifies the
    coloring; a fully frozen rainbow edge fails the walk; no edge with
    exactly r-1 frozen nodes certifies the frozen colors with every unfrozen
    node set to 1. Otherwise it takes one step (_recolor).
    """
    colors, frozen = np.array(colors), np.array(frozen)
    edges = hg.rows
    certified = np.zeros(len(colors), dtype=bool)
    evaluations = np.zeros(len(colors), dtype=np.int64)
    live = np.arange(len(colors))
    # the last evaluation sees every node frozen, so it certifies or fails
    for _ in range(hg.n - hg.r + 1):
        evaluations[live] += 1
        rainbow, frozen_count = _edge_state(hg.r, edges, colors[live], frozen[live])
        has_rainbow = rainbow.any(axis=1)
        open_ = ~(rainbow & (frozen_count == hg.r)).any(axis=1)
        near = (frozen_count == hg.r - 1).any(axis=1)
        step = has_rainbow & open_ & near
        # no edge has r-1 frozen nodes: an edge with a free node has two, now both 1
        fill = live[has_rainbow & open_ & ~near]
        colors[fill] = np.where(frozen[fill], colors[fill], 1)
        certified[live[open_ & ~step]] = True
        live = live[step]
        if not live.size:
            break
        _recolor(hg.r, edges, colors, frozen, live, rainbow[step], frozen_count[step], rngs)
    return Walks(colors, frozen, certified, evaluations)


def _edge_state(r: int, edges: np.ndarray, colors: np.ndarray, frozen: np.ndarray):
    """(K, m) arrays: whether each edge is rainbow, and its frozen node count.
    Colors 1..r are distinct exactly when their values 1 << c, in a dtype
    that holds any sum of r of them, sum to 2^(r+1) - 2."""
    bits = np.array([1 << c for c in range(r + 1)], dtype=np.min_scalar_type(r << r))[colors]
    total = bits[:, edges[:, 0]]
    count = frozen[:, edges[:, 0]].astype(np.min_scalar_type(r + 1))
    for j in range(1, r):
        total += bits[:, edges[:, j]]
        count += frozen[:, edges[:, j]]
    return total == (1 << (r + 1)) - 2, count


def _recolor(r, edges, colors, frozen, rows, rainbow, frozen_count, rngs) -> None:
    """One step of each walk in rows: on the lowest rainbow edge with the
    most frozen nodes (the lowest with r-1 when there is one), recolor a
    uniform unfrozen node to a uniform other color and freeze it. rngs[i]
    owns the i-th of len(rngs) equal blocks of colors' rows and draws for
    its block's walks in rows, in row order: one node pick each, then one
    color each."""
    edge = edges[(rainbow * (frozen_count + 1)).argmax(axis=1)]
    free = ~frozen[rows[:, None], edge]
    free_count = free.sum(axis=1)
    cuts = np.searchsorted(rows, np.arange(len(rngs) + 1) * (len(colors) // len(rngs))).tolist()
    picks, new = [], []
    for rng, lo, hi in zip(rngs, cuts, cuts[1:]):
        if lo < hi:
            picks.append(rng.integers(free_count[lo:hi]))
            new.append(rng.integers(1, r, size=hi - lo))
    pick, color = np.concatenate(picks), np.concatenate(new)
    v = edge[np.arange(len(rows)), (free.cumsum(axis=1) > pick[:, None]).argmax(axis=1)]
    color += color >= colors[rows, v]
    colors[rows, v] = color
    frozen[rows, v] = True


def rand_nrc(
    hg: Hypergraph,
    alpha: float = DEFAULT_ALPHA,
    master_seed: int = 0,
    cap: int = DEFAULT_TRIAL_CAP,
    workers: int = 1,
) -> SearchOutcome:
    """Run trial_count(n, r, alpha) restart rounds, each walking from every
    r-subset start, and return the certificate of the first round that
    finds one: the one of its lowest certified subset index, in
    itertools.combinations order.

    Degenerate inputs short-circuit: n < r is never colorable, and an
    edgeless instance is colorable by any surjective coloring. Starts whose
    frozen subset is itself an edge are skipped without drawing: that edge
    is rainbow and fully frozen, so the walk would fail on its first check.
    With workers > 1 the rounds run in spawned workers (search_ranges), so a
    script calling this needs an `if __name__ == "__main__":` guard.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    check_alpha(alpha)
    if cap < 0:
        raise ValueError(f"trial cap must be >= 0, got {cap}")
    stats = SearchStats()
    if hg.n < hg.r:
        certificate = None
    elif hg.m == 0:
        certificate = [v + 1 if v < hg.r else 1 for v in range(hg.n)]
    else:
        range_fn = functools.partial(_rand_range, master_seed=master_seed)
        certificate = search_ranges(hg, range_fn, trial_count(hg.n, hg.r, alpha, cap), workers, stats)
    return SearchOutcome.of(hg, certificate, stats)


def _rand_range(hg: Hypergraph, lo: int, hi: int, stats: SearchStats, master_seed: int) -> Optional[list[int]]:
    """Run restart rounds lo..hi-1. Each round counts all C(n, r) subsets as
    trials and walks from the K that are not edges, drawing from its own
    Generator. Rounds run as lockstep batches of 1, 2, 4, ... rounds, capped
    at _BATCH_CELLS rows x edges; a round is never split, so a round above
    the cap runs alone. Work is counted through the first round with a hit,
    whose lowest certified subset gives the certificate."""
    edges = set(hg.edges)
    starts = [s for s in itertools.combinations(range(hg.n), hg.r) if s not in edges]
    if not starts:
        stats.trials += math.comb(hg.n, hg.r) * (hi - lo)
        return None
    rows = np.arange(len(starts))[:, None]
    starts = np.array(starts, dtype=np.intp)
    frozen = np.zeros((len(starts), hg.n), dtype=bool)
    frozen[rows, starts] = True
    cap = max(1, _BATCH_CELLS // (len(starts) * hg.m))
    batch = 1
    while lo < hi:
        rngs = [
            np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(t,)))
            for t in range(lo, min(lo + batch, hi))
        ]
        colors = np.stack([rng.integers(1, hg.r + 1, size=frozen.shape) for rng in rngs])
        colors[:, rows, starts] = np.arange(1, hg.r + 1)
        walks = lockstep_walks(hg, colors.reshape(-1, hg.n), np.tile(frozen, (len(rngs), 1)), rngs)
        hits = np.flatnonzero(walks.certified)
        done = int(hits[0]) // len(starts) + 1 if hits.size else len(rngs)
        evaluations = walks.evaluations[: done * len(starts)]
        stats.trials += math.comb(hg.n, hg.r) * done
        stats.recursion_nodes += int(evaluations.sum())
        stats.max_start_nodes = max(stats.max_start_nodes, int(evaluations.max()))
        if hits.size:
            return walks.colors[hits[0]].tolist()
        lo += len(rngs)
        batch = min(2 * batch, cap)
    return None
