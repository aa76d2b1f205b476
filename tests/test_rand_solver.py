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
    rand_nrc,
    rand_solver,
    trial_count,
)
from norainbow.instances import gen_complete, gen_planted, gen_random
from norainbow.oracle import oracle_verify_certificate
from norainbow.rand_solver import lockstep_walks

from reference import (
    completion_exit,
    fallback_edge,
    first_rainbow_edge,
    has_fully_frozen_rainbow,
    rand_local_search,
    reference_rand_range,
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


def test_trial_count_refuses_a_huge_n_before_the_exact_power():
    # the exact (3/2)^(10^7) has about 1.76 million digits; the cap error comes first
    with pytest.raises(ValueError, match=r"^trial count ceil\(2\.0 \* \(3/2\)\^10000000\) exceeds cap 1000000;"):
        trial_count(10**7, 3, 2.0)
    for cap in (0, -5):
        with pytest.raises(ValueError, match=f"exceeds cap {cap};"):
            trial_count(4, 3, 1.1, cap=cap)


def test_trial_count_refuses_exactly_the_counts_above_the_cap():
    # the early refusal on (r/2)^n alone never refuses a count the exact power would allow
    for r, cap in itertools.product(range(3, 7), (1, 10, 10**6, 2**40)):
        for n in range(r, 120):
            exact = -(-(101 * r**n) // (100 * 2**n))  # ceil(1.01 * (r/2)^n)
            if exact <= cap:
                assert trial_count(n, r, 1.01, cap) == exact
            else:
                with pytest.raises(ValueError, match="exceeds cap"):
                    trial_count(n, r, 1.01, cap)


def _starts(n, colorings, frozen_sets):
    """(K, n) colors and frozen arrays from K colorings and frozen node sets."""
    frozen = np.zeros((len(colorings), n), dtype=bool)
    for row, nodes in enumerate(frozen_sets):
        frozen[row, sorted(nodes)] = True
    return np.array(colorings), frozen


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
            rand_solver._recolor(hg.r, hg.rows, colors, mask, np.arange(1), rainbow, frozen_count, [rng])
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
    walks = lockstep_walks(hg, *_starts(hg.n, colorings, frozen_sets), [rng])
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
    walks = lockstep_walks(hg, colors, frozen, [rng])
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
    for hg in (Hypergraph(4, 3), Hypergraph(2, 3), Hypergraph(0, 2), gen_complete(4, 3)):
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
    walks = lockstep_walks(hg, *witness_aligned_starts(witness, 3, streams, rng), [rng])
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
    walks = lockstep_walks(hg, colors, frozen, [rng])
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
    walks = lockstep_walks(gen_complete(5, 3), colors, frozen, [])
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
    # rounds are keyed by their index, so [0, T) is [0, k) then [k, T);
    # [0, T) runs the batches [0, 1), [1, 3), [3, 7), ..., so k = 2, 4 and 5
    # fall inside a batch; for planted718, 4 and 5 inside its winning one
    for hg, rounds in ((BRANCHY_UNSAT, 18), (INSTANCES["planted718"], 6)):
        whole = SearchStats()
        certificate = rand_solver._rand_range(hg, 0, rounds, whole, master_seed=0)
        for k in (1, 2, 3, 4, 5):
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


def test_rand_nrc_rejects_a_negative_seed():
    # including the inputs answered without any Generator
    for hg in (gen_planted(8, 12, 3, 7)[0], Hypergraph(4, 3), Hypergraph(0, 2), gen_complete(3, 3)):
        with pytest.raises(ValueError, match=r"^master_seed must be >= 0, got -1$"):
            rand_nrc(hg, master_seed=-1)


def test_rand_nrc_rejects_a_negative_trial_cap():
    # whatever the instance, those answered without any round included; a cap
    # of 0 still answers them, and refuses the others by their trial count
    for hg in (gen_planted(8, 12, 3, 7)[0], Hypergraph(4, 3), Hypergraph(0, 2), gen_complete(3, 3)):
        with pytest.raises(ValueError, match=r"^trial cap must be >= 0, got -1$"):
            rand_nrc(hg, cap=-1)
    assert rand_nrc(Hypergraph(4, 3), cap=0).colorable
    with pytest.raises(ValueError, match=r"exceeds cap 0; raise the cap to proceed$"):
        rand_nrc(gen_complete(3, 3), cap=0)


@settings(max_examples=60)
@given(walk_batches(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_each_block_walks_as_its_own_call(batch, blocks, seed):
    # with a sequence of Generators, each walks its own block of rows: every
    # block ends as a call of its own would, fed a fresh copy of its Generator
    hg, starts = batch
    colors, frozen = _starts(hg.n, *zip(*starts))
    streams = lambda: [np.random.default_rng([seed, b]) for b in range(blocks)]
    together = lockstep_walks(hg, np.tile(colors, (blocks, 1)), np.tile(frozen, (blocks, 1)), streams())
    for b, rng in enumerate(streams()):
        alone = lockstep_walks(hg, colors, frozen, [rng])
        rows = slice(b * len(starts), (b + 1) * len(starts))
        for got, expected in zip(together, alone):
            assert (got[rows] == expected).all()


def _round_rows(hg):
    """K: the walks of one round, one per r-subset that is not an edge."""
    edges = set(hg.edges)
    return sum(s not in edges for s in itertools.combinations(range(hg.n), hg.r))


DEFAULT_BATCH_CELLS = rand_solver._BATCH_CELLS


def _budgets(hg):
    """_BATCH_CELLS values to test on hg: below one round, one round's
    cells, three rounds' cells, and the default."""
    cells = _round_rows(hg) * hg.m
    return (1, cells, 3 * cells, DEFAULT_BATCH_CELLS)


def _small_random_instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(2, 4)
        n = rng.randint(r + 1, 8)
        yield gen_random(n, rng.randint(1, min(20, math.comb(n, r))), r, rng.randrange(10**6))


def _assert_matches_reference(monkeypatch, hg, ranges, seeds):
    for budget in _budgets(hg):
        monkeypatch.setattr(rand_solver, "_BATCH_CELLS", budget)
        for (lo, hi), seed in itertools.product(ranges, seeds):
            batched, expected = SearchStats(), SearchStats()
            certificate = rand_solver._rand_range(hg, lo, hi, batched, master_seed=seed)
            assert certificate == reference_rand_range(hg, lo, hi, expected, master_seed=seed)
            assert batched == expected
            assert all(type(value) is int for value in vars(batched).values())


@pytest.mark.parametrize("name", ["branchy", "planted", "planted718", "complete73", "fallback"])
def test_rand_range_matches_one_round_per_call(monkeypatch, name):
    # planted718 wins in round 3: the range from 1 runs it inside the batch
    # [2, 4), the range from 2 at the head of [3, 5), with round 4 after it
    _assert_matches_reference(monkeypatch, INSTANCES[name], ((0, 12), (1, 12), (2, 9), (5, 6)), (0, 1, 2))


def test_rand_range_matches_one_round_per_call_on_random_instances(monkeypatch):
    for hg in _small_random_instances(30, seed=24):
        _assert_matches_reference(monkeypatch, hg, ((0, 7), (3, 10)), (0, 5))


def _batch_rows(monkeypatch):
    """The row count of every lockstep_walks call rand_solver makes."""
    rows = []

    def recording(hg, colors, frozen, rng):
        rows.append(len(colors))
        return lockstep_walks(hg, colors, frozen, rng)

    monkeypatch.setattr(rand_solver, "lockstep_walks", recording)
    return rows


@pytest.mark.parametrize("hg", [BRANCHY_UNSAT, gen_random(12, 120, 3, 0)], ids=["branchy", "random12"])
def test_batches_double_up_to_the_cell_budget(monkeypatch, hg):
    # both are uncolorable, so every round of [1, 41) runs; the default
    # budget caps random12's batches at 10 rounds of 100 walks on 120 edges
    rounds, k = 40, _round_rows(hg)
    for budget in (*_budgets(hg), 5 * k * hg.m + k * hg.m - 1):
        monkeypatch.setattr(rand_solver, "_BATCH_CELLS", budget)
        rows = _batch_rows(monkeypatch)
        assert rand_solver._rand_range(hg, 1, rounds + 1, SearchStats(), master_seed=0) is None
        cap = max(1, budget // (k * hg.m))
        sizes = [count // k for count in rows]
        assert all(count % k == 0 for count in rows)  # no round is split
        assert all(count * hg.m <= budget or count == k for count in rows)
        assert sum(sizes) == rounds
        assert sizes[:-1] == [min(2**i, cap) for i in range(len(sizes) - 1)]
        assert 1 <= sizes[-1] <= min(2 ** (len(sizes) - 1), cap)
