import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norainbow import (
    COLORABLE,
    NOT_COLORABLE,
    CandidatePair,
    Hypergraph,
    det_nrc,
    enumerate_initial_pairs,
    is_no_rainbow_coloring,
    local_search,
    search_radius,
)
from norainbow.det_solver import initial_pair_count
from norainbow.instances import gen_complete, gen_planted, gen_random
from norainbow.oracle import oracle_decide, oracle_verify_certificate

from reference import hamming
from strategies import hypergraphs

# gen_random(6, 12, 3, 6) is NOT_COLORABLE and forces real branching
BRANCHY_UNSAT = gen_random(6, 12, 3, 6)

# (c, F) below is the gap state: edge (2,3,4) is rainbow with no frozen node
# while edge (0,1,4) has exactly r-1 frozen members, so no rainbow edge has a
# unique unfrozen node. Its background is not uniform, so no det start looks
# like it; the rand walk can reach it and takes its fallback there.
FALLBACK_HG = Hypergraph(6, 3, ((0, 1, 4), (2, 3, 4)))
FALLBACK_PAIR = CandidatePair([1, 2, 2, 3, 1, 3], frozenset({0, 1, 5}))


def test_search_radius_values():
    assert search_radius(6, 3) == 4
    assert search_radius(8, 4) == 6
    assert search_radius(7, 3) == 4  # floor of 14/3


def test_search_radius_rejects_degenerate():
    with pytest.raises(ValueError):
        search_radius(2, 3)
    with pytest.raises(ValueError):
        search_radius(5, 1)


def test_initial_pair_counts():
    assert len(list(enumerate_initial_pairs(Hypergraph(3, 3)))) == 3
    assert len(list(enumerate_initial_pairs(Hypergraph(4, 3)))) == 12
    assert len(list(enumerate_initial_pairs(Hypergraph(5, 4)))) == 20


def test_initial_pairs_structure():
    pairs = list(enumerate_initial_pairs(Hypergraph(4, 3)))
    assert len({(tuple(p.coloring), p.frozen) for p in pairs}) == 12
    for pair in pairs:
        frozen = sorted(pair.frozen)
        assert [pair.coloring[v] for v in frozen] == [1, 2, 3]
        background = {pair.coloring[v] for v in range(4) if v not in pair.frozen}
        assert len(background) == 1
    # subset-major, background-minor ordering
    assert pairs[0].frozen == frozenset({0, 1, 2})
    assert [p.coloring[3] for p in pairs[:3]] == [1, 2, 3]


def test_initial_pairs_require_enough_nodes():
    with pytest.raises(ValueError):
        next(enumerate_initial_pairs(Hypergraph(2, 3)))


def test_local_search_forced_instance():
    hg = Hypergraph(3, 3, ((0, 1, 2),))
    for pair in enumerate_initial_pairs(hg):
        for radius in (0, 1, 2, 5):
            out = local_search(hg, pair, radius)
            assert out.decision == NOT_COLORABLE


def test_local_search_zero_edges_zero_radius():
    hg = Hypergraph(5, 3)
    pair = next(enumerate_initial_pairs(hg))
    out = local_search(hg, pair, 0)
    assert out.decision == COLORABLE
    assert is_no_rainbow_coloring(hg, out.certificate)


def test_local_search_complete_four_all_starts():
    hg = gen_complete(4, 3)
    for pair in enumerate_initial_pairs(hg):
        assert local_search(hg, pair, 2).decision == NOT_COLORABLE


def test_local_search_rejects_mixed_background():
    with pytest.raises(ValueError, match="background"):
        local_search(FALLBACK_HG, FALLBACK_PAIR, 3)


def test_node_count_bound_on_branchy_instance():
    hg = BRANCHY_UNSAT
    g = search_radius(hg.n, hg.r)
    bound = sum((hg.r - 1) ** i for i in range(g + 1))
    for pair in enumerate_initial_pairs(hg):
        out = local_search(hg, pair, g)
        assert out.stats.recursion_nodes <= bound


def test_trace_invariants():
    hg = BRANCHY_UNSAT
    g = search_radius(hg.n, hg.r)
    for pair in list(enumerate_initial_pairs(hg))[:12]:
        initial = list(pair.coloring)
        seen = []

        def watch(depth, state):
            seen.append(depth)
            assert depth <= g
            assert hamming(initial, state.coloring) == depth
            assert len(state.frozen) == len(pair.frozen) + depth
            assert pair.frozen <= state.frozen
            assert all(state.coloring[v] == initial[v] for v in pair.frozen)

        local_search(hg, pair, g, trace=watch)
        assert seen[0] == 0


def test_unsat_standard_nodes_have_r_minus_1_children():
    # on a fully explored (unsatisfiable) search, every expanded node has
    # exactly r-1 children in the preorder trace
    hg = BRANCHY_UNSAT
    g = search_radius(hg.n, hg.r)
    for pair in list(enumerate_initial_pairs(hg))[:8]:
        trace = []
        local_search(hg, pair, g, trace=lambda d, s: trace.append(d))
        children = [0] * len(trace)
        stack = []
        for i, depth in enumerate(trace):
            while stack and trace[stack[-1]] >= depth:
                stack.pop()
            if stack:
                children[stack[-1]] += 1
            stack.append(i)
        assert set(children) <= {0, hg.r - 1}


def test_det_nrc_degenerate_inputs():
    assert det_nrc(Hypergraph(2, 3)).decision == NOT_COLORABLE
    out = det_nrc(Hypergraph(5, 3))
    assert out.decision == COLORABLE
    assert is_no_rainbow_coloring(Hypergraph(5, 3), out.certificate)


def test_det_nrc_complete_five():
    assert det_nrc(gen_complete(5, 3)).decision == NOT_COLORABLE


def test_det_nrc_planted():
    hg, witness = gen_planted(8, 12, 3, 7)
    out = det_nrc(hg)
    assert out.decision == COLORABLE
    assert oracle_verify_certificate(hg, out.certificate)
    assert oracle_verify_certificate(hg, witness)


def test_det_nrc_deterministic():
    hg = gen_random(8, 10, 3, 42)
    a = det_nrc(hg)
    b = det_nrc(hg)
    assert (a.decision, a.certificate) == (b.decision, b.certificate)
    assert (a.stats.recursion_nodes, a.stats.fallback_nodes, a.stats.trials) == (
        b.stats.recursion_nodes,
        b.stats.fallback_nodes,
        b.stats.trials,
    )


def test_det_nrc_radius_zero_still_sound():
    # certificates stay verified even under a crippled radius
    hg, _ = gen_planted(7, 8, 3, 3)
    out = det_nrc(hg, radius=0)
    if out.colorable:
        assert oracle_verify_certificate(hg, out.certificate)


def test_det_agrees_with_oracle_small_corpus():
    rng = random.Random(99)
    for _ in range(60):
        r = rng.choice([3, 4])
        n = rng.randint(r, 8)
        m = rng.randint(0, min(12, math.comb(n, r)))
        hg = gen_random(n, m, r, rng.randrange(10**6))
        assert det_nrc(hg).decision == oracle_decide(hg).decision


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_n=7, max_m=8))
def test_det_certificates_verify(hg):
    out = det_nrc(hg)
    if out.colorable:
        assert oracle_verify_certificate(hg, out.certificate)
    assert out.stats.trials <= initial_pair_count(hg.n, hg.r) if hg.n >= hg.r else True


def test_det_parallel_matches_sequential_decision():
    for hg in (gen_complete(5, 3), gen_planted(8, 12, 3, 7)[0], Hypergraph(6, 3)):
        seq = det_nrc(hg)
        par = det_nrc(hg, workers=2)
        assert seq.decision == par.decision
        if par.colorable:
            assert oracle_verify_certificate(hg, par.certificate)
