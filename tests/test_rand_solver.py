import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from norainbow import (
    COLORABLE,
    NOT_COLORABLE,
    Hypergraph,
    SearchStats,
    is_no_rainbow_coloring,
    lockstep_walks,
    rand_nrc,
    rand_solver,
    trial_count,
)
from norainbow.instances import gen_complete, gen_planted
from norainbow.oracle import oracle_verify_certificate

from reference import (
    completion_exit,
    fallback_edge,
    first_rainbow_edge,
    has_fully_frozen_rainbow,
    rand_local_search,
    reference_walk,
    select_branch_edge,
    witness_aligned_starts,
)
from test_counters import INSTANCES
from test_det_solver import BRANCHY_UNSAT, FALLBACK_COLORING, FALLBACK_FROZEN, FALLBACK_HG


def test_trial_count_values():
    assert trial_count(8, 4, 2.0) == 512
    assert trial_count(4, 3, 1.1) == 6  # ceil(1.1 * 1.5^4) = ceil(5.56875)
    assert trial_count(5, 2, 2.0) == 2  # (r/2)^n degenerates to 1


def test_trial_count_guards():
    with pytest.raises(ValueError, match="alpha"):
        trial_count(5, 3, 1.0)
    with pytest.raises(ValueError, match="alpha must be finite"):
        trial_count(5, 3, float("inf"))
    with pytest.raises(ValueError, match="cap"):
        trial_count(40, 3, 2.0)
    with pytest.raises(ValueError):
        trial_count(2, 3, 2.0)
    # exact arithmetic: ceil(2 * (3/2)^40) = ceil(3^40 / 2^39)
    assert trial_count(40, 3, 2.0, cap=10**8) == -(-(3**40) // 2**39) == 22114665


def _starts(n, colorings, frozen_sets):
    """(K, n) colors and frozen arrays from K colorings and frozen node sets."""
    frozen = np.zeros((len(colorings), n), dtype=bool)
    for row, nodes in enumerate(frozen_sets):
        frozen[row, sorted(nodes)] = True
    return np.array(colorings), frozen


def test_walks_check_their_starts():
    hg = Hypergraph(4, 3)
    rng = np.random.default_rng(0)
    lockstep_walks(hg, *_starts(4, [[1, 2, 3, 1]], [{0, 1, 2}]), rng)
    with pytest.raises(ValueError, match="witness every color"):
        lockstep_walks(hg, *_starts(4, [[1, 2, 3, 1], [1, 2, 3, 1]], [{0, 1, 2}, {0, 1, 3}]), rng)
    with pytest.raises(ValueError, match="shape"):
        lockstep_walks(hg, *_starts(3, [[1, 2, 3]], [{0, 1, 2}]), rng)
    with pytest.raises(ValueError, match="color 5 outside"):
        lockstep_walks(hg, *_starts(4, [[1, 2, 5, 1]], [{0, 1, 2}]), rng)
    with pytest.raises(ValueError, match="exactly r=3 frozen nodes, got 4"):
        lockstep_walks(hg, *_starts(4, [[1, 2, 3, 1]], [{0, 1, 2, 3}]), rng)
    with pytest.raises(ValueError, match="integers"):
        lockstep_walks(hg, np.ones((1, 4)), np.ones((1, 4), dtype=bool), rng)


def test_walk_dead_end_immediately():
    hg = Hypergraph(4, 3, ((0, 1, 2),))
    out = rand_local_search(hg, [1, 2, 3, 1], {0, 1, 2}, np.random.default_rng(0))
    assert out.decision == NOT_COLORABLE
    assert out.stats.recursion_nodes == 1


def test_walk_immediate_success_without_edges():
    hg = Hypergraph(6, 3)
    out = rand_local_search(hg, [1, 2, 3, 1, 1, 2], {0, 1, 2}, np.random.default_rng(0))
    assert out.decision == COLORABLE
    assert out.certificate == [1, 2, 3, 1, 1, 2]


def test_walk_checks_the_state_after_its_last_recoloring():
    # one unfrozen node: either recoloring of it is a certificate
    hg = Hypergraph(4, 3, ((0, 1, 3),))
    for seed in range(4):
        out = rand_local_search(hg, [1, 2, 3, 3], {0, 1, 2}, np.random.default_rng(seed))
        assert out.certificate in ([1, 2, 3, 1], [1, 2, 3, 2])
        assert out.stats.recursion_nodes == 2


def test_walk_without_unfrozen_nodes_checks_its_start():
    out = rand_local_search(Hypergraph(3, 3), [1, 2, 3], {0, 1, 2}, np.random.default_rng(0))
    assert (out.certificate, out.stats.recursion_nodes) == ([1, 2, 3], 1)


def test_walk_requires_r_frozen_nodes():
    hg = Hypergraph(5, 3)
    with pytest.raises(ValueError, match="frozen"):
        rand_local_search(hg, [1, 2, 3, 1, 1], {0, 1, 2, 3}, np.random.default_rng(0))


def test_walk_fallback_state():
    hits = 0
    for seed in range(200):
        out = rand_local_search(FALLBACK_HG, FALLBACK_COLORING, FALLBACK_FROZEN, np.random.default_rng(seed))
        if out.colorable:
            hits += 1
            assert is_no_rainbow_coloring(FALLBACK_HG, out.certificate)
    assert hits > 0


def test_walk_completion_exit_fills_with_one():
    hg = Hypergraph(6, 3, ((0, 2, 3), (2, 3, 4)))
    # frozen {0,1,5} meets the edges in 1 and 0 nodes, never r-1, and the
    # first edge is rainbow
    out = rand_local_search(hg, [1, 2, 2, 3, 3, 3], {0, 1, 5}, np.random.default_rng(0))
    assert out.certificate == [1, 2, 1, 1, 1, 3]
    assert out.stats.recursion_nodes == 1


class _PickRng:
    """Stand-in for a Generator: node picks return index, colors 1."""

    def __init__(self, index):
        self.index = index
        self.draws = []

    def integers(self, low, high=None, size=None):
        if high is None:
            self.draws.append(low.tolist())
            return np.full(len(low), self.index)
        return np.ones(size, dtype=np.int64)


def _gap_states(count, seed):
    """Random walk starts whose first step is the fallback: some edge is
    rainbow, every rainbow edge has at least two unfrozen nodes, and some
    edge has r-1 frozen nodes, so the completion exit does not apply."""
    rng = random.Random(seed)
    while count:
        r = rng.randint(3, 5)
        n = rng.randint(r + 2, 10)
        frozen = set(rng.sample(range(n), r))
        coloring = [rng.randint(1, r) for _ in range(n)]
        for color, v in enumerate(sorted(frozen), start=1):
            coloring[v] = color
        pool = list(itertools.combinations(range(n), r))
        hg = Hypergraph(n, r, tuple(rng.sample(pool, min(len(pool), rng.randint(1, 12)))))
        if (
            first_rainbow_edge(hg, coloring) is not None
            and not has_fully_frozen_rainbow(hg, coloring, frozen)
            and select_branch_edge(hg, coloring, frozen) is None
            and completion_exit(hg, coloring, frozen) is None
        ):
            count -= 1
            yield hg, coloring, frozen


def test_walk_fallback_draws_from_reference_edge():
    # pick i over the fallback edge's unfrozen nodes freezes the i-th one
    not_lowest = 0
    for hg, coloring, frozen in _gap_states(300, seed=8):
        ei = fallback_edge(hg, coloring, frozen)
        not_lowest += ei != first_rainbow_edge(hg, coloring)
        unfrozen = [v for v in hg.edges[ei] if v not in frozen]
        for i, v in enumerate(unfrozen):
            colors, mask = _starts(hg.n, [coloring], [frozen])
            rainbow, frozen_count = rand_solver._edge_state(hg.r, hg.rows, colors, mask)
            rng = _PickRng(i)
            rand_solver._recolor(hg.r, hg.rows, colors, mask, np.arange(1), rainbow, frozen_count, rng)
            assert rng.draws == [[len(unfrozen)]]
            assert np.flatnonzero(mask[0]).tolist() == sorted(frozen | {v})
    assert not_lowest > 0


@st.composite
def walk_batches(draw):
    """A hypergraph and 1 to 6 walk starts (coloring, frozen) on it; half
    the time no edge has exactly r-1 nodes in the first start's frozen set,
    so the completion exit is common."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r + 1, 9))
    starts = []
    for _ in range(draw(st.integers(1, 6))):
        frozen = set(draw(st.permutations(range(n)))[:r])
        coloring = draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
        for color, v in enumerate(sorted(frozen), start=1):
            coloring[v] = color
        starts.append((coloring, frozen))
    pool = list(itertools.combinations(range(n), r))
    if draw(st.booleans()):
        pool = [e for e in pool if len(starts[0][1].intersection(e)) < r - 1]
    edges = draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
    return Hypergraph(n, r, tuple(edges)), starts


@st.composite
def walk_starts(draw):
    """A start (hg, coloring, frozen) for rand_local_search."""
    hg, starts = draw(walk_batches())
    return (hg, *starts[0])


@settings(max_examples=60)
@given(walk_starts())
def test_walk_completion_exit_matches_reference(start):
    # when the first step is the completion exit, the walk must return the
    # reference fill after that one step
    hg, coloring, frozen = start
    expected = completion_exit(hg, coloring, frozen)
    out = rand_local_search(hg, coloring, frozen, np.random.default_rng(0))
    if expected is not None:
        assert (out.certificate, out.stats.recursion_nodes) == (expected, 1)
        assert is_no_rainbow_coloring(hg, out.certificate)
    elif first_rainbow_edge(hg, coloring) is not None and out.stats.recursion_nodes == 1:
        assert not out.colorable


class _RecordingRng:
    """A Generator that keeps every array it draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, *args, **kwargs):
        drawn = self.rng.integers(*args, **kwargs)
        self.draws.append(drawn.copy())
        return drawn


@settings(max_examples=100)
@given(walk_batches(), st.integers(0, 2**32 - 1))
def test_walks_match_reference_walk(batch, seed):
    # each row, fed the draws the kernel gave it, walks like reference_walk
    hg, starts = batch
    colorings, frozen_sets = zip(*starts)
    rng = _RecordingRng(seed)
    walks = lockstep_walks(hg, *_starts(hg.n, colorings, frozen_sets), rng)
    choices = [[] for _ in starts]
    # the rows that step after evaluation j + 1 are those with more evaluations
    for j, (picks, draws) in enumerate(zip(rng.draws[::2], rng.draws[1::2])):
        rows = np.flatnonzero(walks.evaluations > j + 1)
        assert len(rows) == len(picks) == len(draws)
        for row, pick, draw in zip(rows, picks.tolist(), draws.tolist()):
            choices[row].append((pick, draw))
    for row, (coloring, frozen) in enumerate(starts):
        certificate = walks.colors[row].tolist() if walks.certified[row] else None
        expected = reference_walk(hg, coloring, frozen, choices[row])
        assert (certificate, int(walks.evaluations[row])) == expected


def test_walk_recolor_draws_are_uniform():
    # chi-squared over (old -> new) recolorings, read off the start and end
    # arrays: a node is recolored only as it freezes
    hg, _ = gen_planted(10, 15, 3, 11)
    rng = np.random.default_rng(np.random.SeedSequence(11))
    streams = 3000
    colors = np.repeat(rng.integers(1, 4, size=(streams, 1)), hg.n, axis=1)
    colors[:, :3] = [1, 2, 3]
    frozen = np.zeros(colors.shape, dtype=bool)
    frozen[:, :3] = True
    walks = lockstep_walks(hg, colors, frozen, rng)
    recolored = walks.frozen & ~frozen
    counts = {old: {c: 0 for c in range(1, 4) if c != old} for old in range(1, 4)}
    for old, new in zip(colors[recolored].tolist(), walks.colors[recolored].tolist()):
        counts[old][new] += 1
    for old, dist in counts.items():
        observed = list(dist.values())
        if sum(observed) < 60:
            continue
        assert sps.chisquare(observed).pvalue > 1e-4, (old, observed)


def test_rand_nrc_complete_four_exhausts_all_trials():
    hg = gen_complete(4, 3)
    out = rand_nrc(hg, alpha=2.0, master_seed=0)
    assert out.decision == NOT_COLORABLE
    assert out.stats.trials == trial_count(4, 3, 2.0) * math.comb(4, 3)


def test_rand_nrc_zero_edges():
    hg = Hypergraph(5, 3)
    out = rand_nrc(hg, alpha=2.0, master_seed=0)
    assert out.decision == COLORABLE
    assert is_no_rainbow_coloring(hg, out.certificate)


def test_rand_nrc_rejects_alpha_at_most_one():
    # including the inputs answered without any trial
    for hg in (Hypergraph(4, 3), Hypergraph(2, 3), gen_complete(4, 3)):
        for alpha in (0.5, 1.0):
            with pytest.raises(ValueError, match="alpha must be > 1"):
                rand_nrc(hg, alpha=alpha)


def test_rand_nrc_small_n():
    assert rand_nrc(Hypergraph(2, 3), alpha=2.0, master_seed=0).decision == NOT_COLORABLE


def test_rand_nrc_reproducible():
    hg, _ = gen_planted(9, 12, 3, 5)
    a = rand_nrc(hg, alpha=2.0, master_seed=123)
    b = rand_nrc(hg, alpha=2.0, master_seed=123)
    assert (a.decision, a.certificate) == (b.decision, b.certificate)
    assert (a.stats.trials, a.stats.recursion_nodes) == (b.stats.trials, b.stats.recursion_nodes)


def test_rand_nrc_planted_finds_witness():
    hg, _ = gen_planted(10, 15, 3, 2)
    out = rand_nrc(hg, alpha=3.0, master_seed=0)
    assert out.decision == COLORABLE
    assert oracle_verify_certificate(hg, out.certificate)


def test_rand_nrc_one_sided_on_complete_family():
    for n, r in ((4, 3), (5, 3), (6, 3), (5, 4)):
        for seed in range(3):
            out = rand_nrc(gen_complete(n, r), alpha=1.5, master_seed=seed)
            assert out.decision == NOT_COLORABLE


def test_walk_success_rate_beats_scaled_bound():
    # empirical success from witness-aligned starts stays above 0.8*(2/r)^n
    n = 6
    hg, witness = gen_planted(n, 8, 3, 21)
    streams = 1500
    rng = np.random.default_rng(np.random.SeedSequence(555))
    walks = lockstep_walks(hg, *witness_aligned_starts(witness, 3, streams, rng), rng)
    assert walks.certified.sum() / streams >= 0.8 * (2 / 3) ** n


def test_walk_iteration_bound_and_monotone_freezing():
    # each step recolors one unfrozen node and freezes it, so the nodes
    # whose color changed are exactly the ones frozen on the way
    hg, _ = gen_planted(9, 12, 3, 13)
    rng = np.random.default_rng(13)
    colors = rng.integers(1, 4, size=(60, hg.n))
    colors[:, :3] = [1, 2, 3]
    frozen = np.zeros(colors.shape, dtype=bool)
    frozen[:, :3] = True
    walks = lockstep_walks(hg, colors, frozen, rng)
    recolored = walks.frozen & ~frozen
    assert (walks.frozen >= frozen).all()
    assert (recolored.sum(axis=1) == walks.evaluations - 1).all()
    assert (walks.evaluations <= hg.n - hg.r + 1).all()
    assert ((walks.colors != colors) & walks.frozen == recolored).all()


def test_rand_parallel_matches_sequential_decision():
    for hg in (gen_complete(5, 3), gen_planted(8, 12, 3, 7)[0]):
        seq = rand_nrc(hg, alpha=1.5, master_seed=4)
        par = rand_nrc(hg, alpha=1.5, master_seed=4, workers=2)
        assert seq.decision == par.decision
        if par.colorable:
            assert oracle_verify_certificate(hg, par.certificate)


def test_walks_from_no_starts():
    # a batch of no rows draws nothing, so it needs no Generator
    colors, frozen = np.zeros((0, 5), dtype=int), np.zeros((0, 5), dtype=bool)
    walks = lockstep_walks(gen_complete(5, 3), colors, frozen, None)
    assert walks.colors.shape == (0, 5) and not walks.evaluations.size


def test_round_returns_lowest_certified_subset(monkeypatch):
    # the winning round of ("planted718", 0) has two certified walks
    rounds = []

    def recording(*args):
        rounds.append(lockstep_walks(*args))
        return rounds[-1]

    monkeypatch.setattr(rand_solver, "lockstep_walks", recording)
    out = rand_nrc(INSTANCES["planted718"], alpha=1.5, master_seed=0)
    hits = np.flatnonzero(rounds[-1].certified)
    assert len(rounds) > 1 and not rounds[0].certified.any()
    assert len({tuple(rounds[-1].colors[i]) for i in hits}) >= 2
    assert out.certificate == rounds[-1].colors[hits[0]].tolist()


def test_rand_range_split_by_rounds():
    # rounds are keyed by their index, so [0, T) is [0, k) then [k, T)
    for hg, rounds in ((BRANCHY_UNSAT, 18), (INSTANCES["planted718"], 6)):
        whole = SearchStats()
        certificate = rand_solver._rand_range(hg, 0, rounds, whole, master_seed=0)
        for k in (1, 3):
            parts = SearchStats()
            first = rand_solver._rand_range(hg, 0, k, parts, master_seed=0)
            second = first or rand_solver._rand_range(hg, k, rounds, parts, master_seed=0)
            assert second == certificate
            assert parts == whole


def test_rand_parallel_counters_match_sequential():
    seq = rand_nrc(BRANCHY_UNSAT, alpha=1.5, master_seed=4)
    par = rand_nrc(BRANCHY_UNSAT, alpha=1.5, master_seed=4, workers=2)
    assert seq.decision == par.decision == NOT_COLORABLE
    counters = [(o.stats.recursion_nodes, o.stats.trials, o.stats.max_start_nodes) for o in (seq, par)]
    assert counters[0] == counters[1]


def test_round_without_starts_draws_nothing(monkeypatch):
    # every r-subset of complete73 is an edge, so no round has a walk
    def no_draws(*args, **kwargs):
        raise AssertionError("a round without starts made a Generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    stats = SearchStats()
    assert rand_solver._rand_range(gen_complete(7, 3), 0, 4, stats, master_seed=0) is None
    assert (stats.trials, stats.recursion_nodes) == (4 * math.comb(7, 3), 0)
