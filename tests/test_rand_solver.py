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
    derive_rng,
    first_rainbow_edge,
    is_no_rainbow_coloring,
    rand_local_search,
    rand_nrc,
    trial_count,
)
from norainbow.instances import gen_complete, gen_planted
from norainbow.oracle import oracle_verify_certificate

from reference import completion_exit, fallback_edge, has_fully_frozen_rainbow, select_branch_edge
from test_det_solver import FALLBACK_COLORING, FALLBACK_FROZEN, FALLBACK_HG


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


def test_derive_rng_reproducible_and_distinct():
    a = derive_rng(42, 3, 7).integers(0, 1000, size=5)
    b = derive_rng(42, 3, 7).integers(0, 1000, size=5)
    c = derive_rng(42, 4, 7).integers(0, 1000, size=5)
    assert (a == b).all()
    assert not (a == c).all()


def test_walk_dead_end_immediately():
    hg = Hypergraph(4, 3, ((0, 1, 2),))
    out = rand_local_search(hg, [1, 2, 3, 1], {0, 1, 2}, derive_rng(0, 0, 0))
    assert out.decision == NOT_COLORABLE
    assert out.stats.recursion_nodes == 1


def test_walk_immediate_success_without_edges():
    hg = Hypergraph(6, 3)
    out = rand_local_search(hg, [1, 2, 3, 1, 1, 2], {0, 1, 2}, derive_rng(0, 0, 0))
    assert out.decision == COLORABLE
    assert out.certificate == [1, 2, 3, 1, 1, 2]


def test_walk_checks_the_state_after_its_last_recoloring():
    # one unfrozen node: either recoloring of it is a certificate
    hg = Hypergraph(4, 3, ((0, 1, 3),))
    for seed in range(4):
        out = rand_local_search(hg, [1, 2, 3, 3], {0, 1, 2}, derive_rng(seed, 0, 0))
        assert out.certificate in ([1, 2, 3, 1], [1, 2, 3, 2])
        assert out.stats.recursion_nodes == 2


def test_walk_without_unfrozen_nodes_checks_its_start():
    out = rand_local_search(Hypergraph(3, 3), [1, 2, 3], {0, 1, 2}, derive_rng(0, 0, 0))
    assert (out.certificate, out.stats.recursion_nodes) == ([1, 2, 3], 1)


def test_walk_requires_r_frozen_nodes():
    hg = Hypergraph(5, 3)
    with pytest.raises(ValueError, match="frozen"):
        rand_local_search(hg, [1, 2, 3, 1, 1], {0, 1, 2, 3}, derive_rng(0, 0, 0))


def test_walk_fallback_state():
    hits = 0
    for seed in range(200):
        out = rand_local_search(FALLBACK_HG, FALLBACK_COLORING, FALLBACK_FROZEN, derive_rng(seed, 0, 0))
        if out.colorable:
            hits += 1
            assert is_no_rainbow_coloring(FALLBACK_HG, out.certificate)
    assert hits > 0


def test_walk_completion_exit_fills_with_one():
    hg = Hypergraph(6, 3, ((0, 2, 3), (2, 3, 4)))
    # frozen {0,1,5} meets the edges in 1 and 0 nodes, never r-1, and the
    # first edge is rainbow
    out = rand_local_search(hg, [1, 2, 2, 3, 3, 3], {0, 1, 5}, derive_rng(0, 0, 0))
    assert out.certificate == [1, 2, 1, 1, 1, 3]
    assert out.stats.recursion_nodes == 1


class _PickRng:
    """Stand-in for a Generator: the first draw returns index, later ones 0."""

    def __init__(self, index):
        self.index = index
        self.draws = []

    def integers(self, k):
        self.draws.append(k)
        return self.index if len(self.draws) == 1 else 0


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
    # the i-th draw over the fallback edge's unfrozen nodes picks the i-th one
    not_lowest = 0
    for hg, coloring, frozen in _gap_states(300, seed=8):
        ei = fallback_edge(hg, coloring, frozen)
        not_lowest += ei != first_rainbow_edge(hg, coloring)
        unfrozen = [v for v in hg.edges[ei] if v not in frozen]
        for i, v in enumerate(unfrozen):
            rng, trace = _PickRng(i), []
            rand_local_search(hg, coloring, frozen, rng, trace=trace)
            assert (rng.draws[0], trace[0][0]) == (len(unfrozen), v)
    assert not_lowest > 0


@st.composite
def walk_starts(draw):
    """A start (hg, coloring, frozen) for rand_local_search; half the time
    no edge has exactly r-1 frozen nodes, so the completion exit is common."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r + 1, 9))
    frozen = set(draw(st.permutations(range(n)))[:r])
    pool = list(itertools.combinations(range(n), r))
    if draw(st.booleans()):
        pool = [e for e in pool if len(frozen.intersection(e)) < r - 1]
    edges = draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
    coloring = draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
    for color, v in enumerate(sorted(frozen), start=1):
        coloring[v] = color
    return Hypergraph(n, r, tuple(edges)), coloring, frozen


@settings(max_examples=60)
@given(walk_starts())
def test_walk_completion_exit_matches_reference(start):
    # when the first step is the completion exit, the walk must return the
    # reference fill after that one step
    hg, coloring, frozen = start
    expected = completion_exit(hg, coloring, frozen)
    out = rand_local_search(hg, coloring, frozen, derive_rng(0, 0, 0))
    if expected is not None:
        assert (out.certificate, out.stats.recursion_nodes) == (expected, 1)
        assert is_no_rainbow_coloring(hg, out.certificate)
    elif first_rainbow_edge(hg, coloring) is not None and out.stats.recursion_nodes == 1:
        assert not out.colorable


def test_walk_recolor_draws_are_uniform():
    # chi-squared over recorded (old -> new) recolorings, per old color
    hg, _ = gen_planted(10, 15, 3, 11)
    counts = {old: {c: 0 for c in range(1, 4) if c != old} for old in range(1, 4)}
    for seed in range(3000):
        trace = []
        coloring = [1, 2, 3] + [int(derive_rng(seed, 9, 9).integers(1, 4))] * 7
        rand_local_search(hg, coloring, {0, 1, 2}, derive_rng(seed, 0, 0), trace=trace)
        for _, old, new in trace:
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
    classes = {c: [v for v in range(n) if witness[v] == c] for c in (1, 2, 3)}
    streams = 1500
    wins = 0
    for i in range(streams):
        rng = np.random.default_rng(np.random.SeedSequence(555, spawn_key=(i,)))
        frozen = {cls[int(rng.integers(len(cls)))] for cls in classes.values()}
        coloring = [
            witness[v] if v in frozen else int(rng.integers(1, 4)) for v in range(n)
        ]
        out = rand_local_search(hg, coloring, frozen, rng)
        wins += out.colorable
    assert wins / streams >= 0.8 * (2 / 3) ** n


def test_walk_iteration_bound_and_monotone_freezing():
    hg, _ = gen_planted(9, 12, 3, 13)
    for seed in range(60):
        rng = derive_rng(seed, 0, 0)
        coloring = [1, 2, 3] + [int(rng.integers(1, 4)) for _ in range(6)]
        trace = []
        out = rand_local_search(hg, coloring, {0, 1, 2}, rng, trace=trace)
        assert len(trace) <= hg.n - hg.r
        assert out.stats.recursion_nodes <= hg.n - hg.r + 1
        recolored = [v for v, _, _ in trace]
        assert len(recolored) == len(set(recolored))  # frozen nodes never change again
        assert not {0, 1, 2} & set(recolored)


def test_rand_parallel_matches_sequential_decision():
    for hg in (gen_complete(5, 3), gen_planted(8, 12, 3, 7)[0]):
        seq = rand_nrc(hg, alpha=1.5, master_seed=4)
        par = rand_nrc(hg, alpha=1.5, master_seed=4, workers=2)
        assert seq.decision == par.decision
        if par.colorable:
            assert oracle_verify_certificate(hg, par.certificate)
