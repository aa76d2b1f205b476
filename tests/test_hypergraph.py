import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norainbow import (
    BranchTarget,
    Hypergraph,
    ParseError,
    SearchState,
    background_completion,
    completion_safe,
    first_rainbow_edge,
    has_fully_frozen_rainbow,
    is_no_rainbow_coloring,
    is_rainbow_edge,
    parse_instance,
    write_instance,
)
from norainbow.hypergraph import validate_candidate_pair
from norainbow.instances import gen_complete, gen_random

from reference import hamming, select_branch_edge
from strategies import colored_hypergraphs, hypergraphs


# --- construction -----------------------------------------------------------


def test_edges_canonicalized():
    hg = Hypergraph(4, 3, ((3, 1, 0), (0, 1, 3), (1, 2, 3)))
    assert hg.edges == ((0, 1, 3), (1, 2, 3))
    assert hg.m == 2


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        Hypergraph(3, 3, ((0, 1),))
    with pytest.raises(ValueError):
        Hypergraph(3, 3, ((0, 1, 3),))
    with pytest.raises(ValueError):
        Hypergraph(3, 3, ((0, 1, 1),))
    with pytest.raises(ValueError):
        Hypergraph(3, 1, ())


def test_incidence():
    hg = Hypergraph(5, 3, ((0, 1, 2), (2, 3, 4)))
    assert hg.incidence == ((0,), (0,), (0, 1), (1,), (1,))


# --- parse / write ----------------------------------------------------------


def test_parse_smallest():
    hg = parse_instance("p nrc 3 1 3\n1 2 3\n")
    assert (hg.n, hg.r, hg.edges) == (3, 3, ((0, 1, 2),))


def test_parse_dedups():
    hg = parse_instance("p nrc 4 2 3\n1 2 3\n3 2 1\n")
    assert hg.m == 1
    assert hg.edges == ((0, 1, 2),)


def test_parse_node_out_of_range():
    with pytest.raises(ParseError, match=r"line 2.*node id out of range"):
        parse_instance("p nrc 3 1 3\n1 2 5\n")


def test_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("p cnf 3 1 3\n1 2 3\n")
    with pytest.raises(ParseError, match=r"line 3.*wrong size"):
        parse_instance("c hi\np nrc 4 1 3\n1 2 3 4\n")
    with pytest.raises(ParseError, match=r"line 2.*repeated node"):
        parse_instance("p nrc 4 1 3\n1 2 2\n")
    with pytest.raises(ParseError, match="before header"):
        parse_instance("1 2 3\np nrc 3 1 3\n")
    with pytest.raises(ParseError, match="declares"):
        parse_instance("p nrc 3 2 3\n1 2 3\n")
    with pytest.raises(ParseError, match="header"):
        parse_instance("c only comments\n")


def test_parse_skips_comments_and_blanks():
    hg = parse_instance("c a comment\n\np nrc 3 1 3\nc mid\n1 2 3\n")
    assert hg.m == 1


def test_write_single_edge():
    assert write_instance(Hypergraph(3, 3, ((0, 1, 2),))) == "p nrc 3 1 3\n1 2 3\n"


def test_write_zero_edges():
    assert write_instance(Hypergraph(5, 4)) == "p nrc 5 0 4\n"


def test_roundtrip_generated_corpus():
    for seed in range(30):
        rng = random.Random(seed)
        r = rng.randint(2, 4)
        n = rng.randint(r, 10)
        m = rng.randint(0, 10)
        hg = gen_random(n, min(m, len(list(itertools.combinations(range(n), r)))), r, seed)
        text = write_instance(hg)
        assert parse_instance(text) == hg
        assert write_instance(parse_instance(text)) == text


@given(hypergraphs())
def test_roundtrip_property(hg):
    assert parse_instance(write_instance(hg)) == hg


# --- predicates -------------------------------------------------------------


def test_is_rainbow_edge():
    hg = Hypergraph(3, 3, ((0, 1, 2),))
    assert is_rainbow_edge(hg, [1, 2, 3], 0)
    assert not is_rainbow_edge(hg, [1, 1, 3], 0)
    hg4 = Hypergraph(4, 4, ((0, 1, 2, 3),))
    assert is_rainbow_edge(hg4, [2, 1, 4, 3], 0)


def test_first_rainbow_edge():
    assert first_rainbow_edge(Hypergraph(4, 3), [1, 2, 3, 1]) is None
    assert first_rainbow_edge(Hypergraph(3, 3, ((0, 1, 2),)), [1, 2, 3]) == 0
    # neither edge rainbow: {0,1,2} sees (1,1,2), {0,1,3} sees (1,1,3)
    hg = Hypergraph(4, 3, ((0, 1, 2), (0, 1, 3)))
    assert first_rainbow_edge(hg, [1, 1, 2, 3]) is None


def test_first_rainbow_edge_lowest_index():
    hg = Hypergraph(5, 3, ((0, 1, 2), (0, 1, 4), (2, 3, 4)))
    # colors: edge0 (1,1,2) no, edge1 (1,1,3) no, edge2 (2,3,3) no
    assert first_rainbow_edge(hg, [1, 1, 2, 3, 3]) is None
    # make edges 1 and 2 rainbow; lowest wins
    assert first_rainbow_edge(hg, [1, 2, 1, 2, 3]) == 1


def test_is_no_rainbow_coloring():
    assert is_no_rainbow_coloring(Hypergraph(4, 3), [1, 2, 3, 3])
    assert not is_no_rainbow_coloring(Hypergraph(4, 3), [1, 1, 1, 1])
    # complete 3-uniform on 4 nodes: no surjective coloring avoids a rainbow
    assert not is_no_rainbow_coloring(gen_complete(4, 3), [1, 1, 2, 3])


def test_is_no_rainbow_rejects_bad_shapes():
    hg = Hypergraph(3, 3)
    assert not is_no_rainbow_coloring(hg, [1, 2])
    assert not is_no_rainbow_coloring(hg, [1, 2, 4])


@given(colored_hypergraphs())
def test_rainbow_matches_distinct_count(pair):
    hg, coloring = pair
    for ei, e in enumerate(hg.edges):
        seen = set()
        for v in e:
            seen.add(coloring[v])
        assert is_rainbow_edge(hg, coloring, ei) == (len(seen) == hg.r)


@given(colored_hypergraphs(), st.randoms(use_true_random=False))
def test_color_permutation_invariance(pair, rng):
    hg, coloring = pair
    perm = list(range(1, hg.r + 1))
    rng.shuffle(perm)
    permuted = [perm[c - 1] for c in coloring]
    assert is_no_rainbow_coloring(hg, coloring) == is_no_rainbow_coloring(hg, permuted)


# --- hamming ----------------------------------------------------------------


def test_hamming_basics():
    assert hamming([1, 2, 3], [1, 2, 3]) == 0
    assert hamming([1, 2, 3], [1, 3, 3]) == 1
    assert hamming([1, 1, 1, 1], [2, 2, 2, 2]) == 4
    with pytest.raises(ValueError):
        hamming([1, 2], [1, 2, 3])


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(*(st.lists(st.integers(1, 4), min_size=n, max_size=n),) * 3)
    )
)
def test_hamming_is_a_metric(triple):
    a, b, c = triple
    assert hamming(a, b) == hamming(b, a)
    assert (hamming(a, b) == 0) == (a == b)
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


# --- candidate pairs and completion ----------------------------------------


def test_validate_candidate_pair():
    hg = Hypergraph(4, 3)
    validate_candidate_pair(hg, [1, 2, 3, 1], {0, 1, 2})
    with pytest.raises(ValueError, match="witness every color"):
        validate_candidate_pair(hg, [1, 2, 3, 1], {0, 1, 3})
    with pytest.raises(ValueError, match="length"):
        validate_candidate_pair(hg, [1, 2, 3], {0, 1, 2})
    with pytest.raises(ValueError, match="color"):
        validate_candidate_pair(hg, [1, 2, 5, 1], {0, 1, 2})


def test_has_fully_frozen_rainbow():
    hg = Hypergraph(3, 3, ((0, 1, 2),))
    assert has_fully_frozen_rainbow(hg, [1, 2, 3], {0, 1, 2})
    assert not has_fully_frozen_rainbow(hg, [1, 2, 3], {0, 1})
    # frozen but not rainbow
    hg4 = Hypergraph(4, 3, ((0, 1, 2),))
    assert not has_fully_frozen_rainbow(hg4, [1, 1, 3, 2], {0, 1, 2, 3})


def test_completion_safe():
    assert completion_safe(Hypergraph(4, 3, ((0, 1, 2),)), set())
    assert not completion_safe(Hypergraph(4, 3, ((0, 1, 2),)), {0, 1})
    assert completion_safe(Hypergraph(4, 3, ((0, 1, 2),)), {0, 1, 2, 3})


def test_background_completion_all_frozen_returns_coloring():
    hg = Hypergraph(5, 3, ((0, 1, 2),))
    coloring = [1, 2, 2, 3, 2]
    out = background_completion(hg, coloring, {0, 1, 2, 3, 4})
    assert out == coloring


def test_background_completion_zero_edges():
    hg = Hypergraph(5, 3)
    assert background_completion(hg, [1, 2, 3, 1, 1], {0, 1, 2}) == [1, 2, 3, 1, 1]


def test_background_completion_fills_with_one():
    hg = Hypergraph(6, 3, ((0, 2, 3), (2, 3, 4)))
    # frozen {0,1,5} meets the edges in 1 and 0 nodes, never r-1
    out = background_completion(hg, [1, 2, 2, 3, 3, 3], {0, 1, 5})
    assert out == [1, 2, 1, 1, 1, 3]
    assert is_no_rainbow_coloring(hg, out)


def test_background_completion_precondition_violation():
    hg = Hypergraph(6, 3, ((0, 1, 5), (3, 4, 5)))
    # edge {0,1,5} has exactly 2 = r-1 frozen members
    with pytest.raises(ValueError, match="r-1 frozen"):
        background_completion(hg, [1, 2, 3, 2, 2, 2], {0, 1, 2})


def test_background_completion_rejects_frozen_rainbow():
    hg = Hypergraph(4, 3, ((0, 1, 2),))
    with pytest.raises(ValueError, match="fully frozen rainbow"):
        background_completion(hg, [1, 2, 3, 1], {0, 1, 2, 3})


@settings(max_examples=60)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_background_completion_output_always_verifies(hg, rng):
    # build a random candidate pair, then check the guarded completion
    nodes = list(range(hg.n))
    rng.shuffle(nodes)
    frozen = set(nodes[: hg.r])
    coloring = [rng.randint(1, hg.r) for _ in range(hg.n)]
    for color, v in enumerate(sorted(frozen), start=1):
        coloring[v] = color
    if has_fully_frozen_rainbow(hg, coloring, frozen) or not completion_safe(hg, frozen):
        return
    assert is_no_rainbow_coloring(hg, background_completion(hg, coloring, frozen))


# --- branch selection -------------------------------------------------------


def test_select_branch_edge_single():
    hg = Hypergraph(4, 3, ((0, 1, 3),))
    assert select_branch_edge(hg, [1, 2, 3, 3], {0, 1, 2}) == BranchTarget(0, 3)


def test_select_branch_edge_absent_without_rainbow():
    hg = Hypergraph(4, 3, ((0, 1, 3),))
    assert select_branch_edge(hg, [1, 2, 3, 1], {0, 1, 2}) is None


def test_select_branch_edge_lowest_index():
    edges = ((0, 1, 2), (0, 1, 4), (0, 1, 5), (2, 3, 4))
    hg = Hypergraph(6, 3, edges)
    coloring = [1, 2, 1, 3, 3, 3]
    frozen = {0, 1, 3}
    # edge 0 is not rainbow; edges 1 and 2 both qualify; the lowest wins
    got = select_branch_edge(hg, coloring, frozen)
    assert got == BranchTarget(1, 4)


# --- incremental state ------------------------------------------------------


def _naive_counters(hg, coloring, frozen):
    distinct, fcount = [], []
    for e in hg.edges:
        distinct.append(len({coloring[v] for v in e}))
        fcount.append(sum(1 for v in e if v in frozen))
    rainbow = sum(1 for d in distinct if d == hg.r)
    near = sum(1 for f in fcount if f == hg.r - 1)
    frozen_rainbow = sum(
        1 for d, f in zip(distinct, fcount) if d == hg.r and f == hg.r
    )
    return distinct, fcount, rainbow, near, frozen_rainbow


@settings(max_examples=60)
@given(colored_hypergraphs(), st.randoms(use_true_random=False))
def test_search_state_matches_naive_recount(pair, rng):
    hg, coloring = pair
    state = SearchState(hg, coloring, set())
    for _ in range(20):
        move = rng.random()
        if hg.n and move < 0.6:
            state.recolor(rng.randrange(hg.n), rng.randint(1, hg.r))
        elif hg.n and move < 0.8:
            v = rng.randrange(hg.n)
            state.unfreeze(v) if v in state.frozen else state.freeze(v)
        distinct, fcount, rainbow, near, frozen_rainbow = _naive_counters(
            hg, state.coloring, state.frozen
        )
        assert state.distinct == distinct
        assert state.frozen_count == fcount
        assert state.rainbow_edges == rainbow
        assert state.near_frozen_edges == near
        assert state.frozen_rainbow_edges == frozen_rainbow


def test_search_state_branch_target_matches_pure_function():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.choice([3, 4])
        n = rng.randint(r, 8)
        hg = gen_random(n, rng.randint(0, min(8, math.comb(n, r))), r, rng.randrange(10**6))
        coloring = [rng.randint(1, r) for _ in range(n)]
        frozen = set(rng.sample(range(n), rng.randint(0, n)))
        state = SearchState(hg, coloring, frozen)
        assert state.branch_target() == select_branch_edge(hg, coloring, frozen)
