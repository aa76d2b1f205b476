"""Randomized local search: many independent restarts, each a short
random repair walk from a frozen r-subset with a random background.

A round walks from every r-subset F of the nodes that is not an edge: F is
frozen on the colors 1..r in node order, every other node gets a uniform
color, and each walk recolors the unfrozen node of a nearly-frozen rainbow
edge to a uniformly random other color, freezing it, for at most n - r
steps. The round's K walks run in lockstep on (K, n) color and frozen
arrays, and round t draws everything from its own Generator, keyed on
(master_seed, t): first the K backgrounds, then each step's choices.
NOT_COLORABLE answers are therefore one-sided: a witness may be missed, but
every COLORABLE answer carries a verified certificate.
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

DEFAULT_TRIAL_CAP = 10**6


def trial_count(n: int, r: int, alpha: float, cap: int = DEFAULT_TRIAL_CAP) -> int:
    """Number of restart rounds: ceil(alpha * (r/2)^n), computed exactly.
    Rounding up never weakens the success guarantee. Refuses counts above
    cap so a huge n fails loudly instead of looping for years."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    check_alpha(alpha)
    count = math.ceil(Fraction(str(alpha)) * Fraction(r, 2) ** n)
    if count > cap:
        raise ValueError(f"trial count {count} exceeds cap {cap}; raise the cap to proceed")
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


def lockstep_walks(hg: Hypergraph, colors, frozen, rng: np.random.Generator) -> Walks:
    """One random repair walk from each row of the (K, n) integer colors
    and (K, n) bool frozen arrays, all stepped at once. Each row's frozen
    set must be r nodes carrying every color 1..r. The inputs are copied.

    Every live walk evaluates its state, for at most n - r + 1 evaluations,
    and leaves at the first exit that applies: no rainbow edge certifies the
    coloring; a fully frozen rainbow edge fails the walk; no edge with
    exactly r-1 frozen nodes certifies the frozen colors with every unfrozen
    node set to 1. Otherwise it takes one step (_recolor). The remaining
    walks then draw from rng, in row order, one node pick each and then one
    color each.
    """
    colors, frozen = _checked_starts(hg, colors, frozen)
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
        _recolor(hg.r, edges, colors, frozen, live, rainbow[step], frozen_count[step], rng)
    return Walks(colors, frozen, certified, evaluations)


def _edge_state(r: int, edges: np.ndarray, colors: np.ndarray, frozen: np.ndarray):
    """(K, m) arrays: whether each edge is rainbow, and its frozen node count.
    Colors 1..r are distinct exactly when their values 1 << c sum to
    2^(r+1) - 2."""
    bits = _powers(r)[colors]
    total = bits[:, edges[:, 0]]
    count = frozen[:, edges[:, 0]].astype(np.min_scalar_type(r + 1))
    for j in range(1, r):
        total += bits[:, edges[:, j]]
        count += frozen[:, edges[:, j]]
    return total == (1 << (r + 1)) - 2, count


def _recolor(r, edges, colors, frozen, rows, rainbow, frozen_count, rng) -> None:
    """One step of each walk in rows: on the lowest rainbow edge with the
    most frozen nodes (the lowest with r-1 when there is one), recolor a
    uniform unfrozen node to a uniform other color and freeze it."""
    edge = edges[(rainbow * (frozen_count + 1)).argmax(axis=1)]
    free = ~frozen[rows[:, None], edge]
    pick = rng.integers(free.sum(axis=1))
    v = edge[np.arange(len(rows)), (free.cumsum(axis=1) > pick[:, None]).argmax(axis=1)]
    color = rng.integers(1, r, size=len(rows))
    color += color >= colors[rows, v]
    colors[rows, v] = color
    frozen[rows, v] = True


def _powers(r: int) -> np.ndarray:
    """1 << c for c in 0..r, in a dtype that holds any sum of r of them."""
    return np.array([1 << c for c in range(r + 1)], dtype=np.min_scalar_type(r << r))


def _checked_starts(hg: Hypergraph, colors, frozen) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the walk starts, checked: integer colors in 1..r, and in
    each row r frozen nodes that carry every color."""
    colors, frozen = np.array(colors), np.array(frozen)
    if colors.ndim != 2 or colors.shape[1] != hg.n or frozen.shape != colors.shape:
        raise ValueError(
            f"starts need colors and frozen arrays of shape (K, n={hg.n}), "
            f"got {colors.shape} and {frozen.shape}"
        )
    if colors.dtype.kind not in "iu" or frozen.dtype != bool:
        raise ValueError(
            f"colors must be integers and frozen flags bools, got {colors.dtype} and {frozen.dtype}"
        )
    bad = (colors < 1) | (colors > hg.r)
    if bad.any():
        raise ValueError(f"color {colors[bad][0]} outside 1..{hg.r}")
    counts = frozen.sum(axis=1)
    if (counts != hg.r).any():
        raise ValueError(f"start needs exactly r={hg.r} frozen nodes, got {counts[counts != hg.r][0]}")
    seen = (_powers(hg.r)[colors] * frozen).sum(axis=1)
    missing = np.flatnonzero(seen != (1 << (hg.r + 1)) - 2)
    if missing.size:
        has = sorted(set(colors[missing[0]][frozen[missing[0]]].tolist()))
        raise ValueError(f"frozen set must witness every color 1..{hg.r}, has {has}")
    return colors, frozen


def rand_nrc(
    hg: Hypergraph,
    alpha: float = 2.0,
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
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_alpha(alpha)
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
    trials and walks from the K that are not edges, as one lockstep batch."""
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
        walks = lockstep_walks(hg, colors, frozen, rng)
        stats.recursion_nodes += int(walks.evaluations.sum())
        stats.max_start_nodes = max(stats.max_start_nodes, int(walks.evaluations.max()))
        hits = np.flatnonzero(walks.certified)
        if hits.size:
            return walks.colors[hits[0]].tolist()
    return None
