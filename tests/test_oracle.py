import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norainbow import Hypergraph, is_no_rainbow_coloring, oracle
from norainbow.hypergraph import COLORABLE, NOT_COLORABLE
from norainbow.instances import gen_complete, gen_random
from norainbow.oracle import OracleReport, oracle_decide, oracle_verify_certificate

from strategies import colored_hypergraphs, hypergraphs


def naive_count(hg):
    """Third-opinion enumerator, kept deliberately tiny. Returns the count
    and the first witness in itertools.product order (None if there is none)."""
    count, first = 0, None
    for colors in itertools.product(range(1, hg.r + 1), repeat=hg.n):
        if set(colors) != set(range(1, hg.r + 1)):
            continue
        if any(len({colors[v] for v in e}) == hg.r for e in hg.edges):
            continue
        count += 1
        if first is None:
            first = list(colors)
    return count, first


def random_instances(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.choice([2, 3, 4])
        n = rng.randint(r, max_n)
        m = rng.randint(0, min(8, math.comb(n, r)))
        yield gen_random(n, m, r, rng.randrange(10**6))


def test_forced_single_edge():
    report = oracle_decide(Hypergraph(3, 3, ((0, 1, 2),)))
    assert report.decision == NOT_COLORABLE
    assert report.witness_count == 0
    assert report.sample_witness is None


def test_zero_edge_counts_surjective_colorings():
    report = oracle_decide(Hypergraph(4, 3))
    assert report.decision == COLORABLE
    assert report.witness_count == 36  # 3! * S(4,3)
    # first witness in base-r counting order, node 0 most significant
    assert report.sample_witness == [1, 1, 2, 3]


def test_complete_four():
    report = oracle_decide(gen_complete(4, 3))
    assert (report.decision, report.witness_count) == (NOT_COLORABLE, 0)


def test_budget_refusal_states_requirement():
    with pytest.raises(ValueError, match="59049"):
        oracle_decide(Hypergraph(10, 3), budget=1000)


def test_matches_naive_enumeration():
    for hg in random_instances(7, 40, 6):
        report = oracle_decide(hg)
        assert (report.witness_count, report.sample_witness) == naive_count(hg)
        if report.sample_witness is not None:
            assert oracle_verify_certificate(hg, report.sample_witness)


@pytest.mark.parametrize("cells", [1, 4, 30])
def test_forced_split_matches_naive_enumeration(monkeypatch, cells):
    # A small table cap shortens the suffix, so the prefix loop runs many
    # times; at 1 cell the suffix is empty and every coloring is a prefix.
    monkeypatch.setattr(oracle, "_TABLE_CELLS", cells)
    for hg in random_instances(cells, 70, 7):
        report = oracle_decide(hg)
        assert (report.witness_count, report.sample_witness) == naive_count(hg)


@pytest.mark.parametrize(
    "spec, count, sample",
    [
        ((10, 20, 4, 7), 87_984, [1, 1, 1, 1, 1, 1, 1, 2, 3, 4]),
        ((12, 24, 3, 2000), 6_516, [1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 1, 2]),
    ],
)
def test_pinned_counts(spec, count, sample):
    # Values recorded with the earlier sort-based enumerator. Under the
    # default cap the prefix loop runs 64 and 27 times on these.
    report = oracle_decide(gen_random(*spec))
    assert (report.decision, report.witness_count, report.sample_witness) == (
        COLORABLE,
        count,
        sample,
    )


def test_fewer_nodes_than_colors_is_uncolorable():
    for hg in (Hypergraph(1, 70), Hypergraph(2, 3)):
        assert oracle_decide(hg) == OracleReport(NOT_COLORABLE, 0, None)
    with pytest.raises(ValueError, match="over budget 8"):
        oracle_decide(Hypergraph(2, 3), budget=8)


def test_witness_count_invariant_under_relabeling():
    rng = random.Random(3)
    for _ in range(20):
        n, r = 6, 3
        hg = gen_random(n, rng.randint(0, 10), r, rng.randrange(10**6))
        relabel = list(range(n))
        rng.shuffle(relabel)
        mapped = Hypergraph(n, r, tuple(tuple(relabel[v] for v in e) for e in hg.edges))
        assert oracle_decide(hg).witness_count == oracle_decide(mapped).witness_count


def test_verify_certificate_basics():
    hg = Hypergraph(3, 3)
    assert oracle_verify_certificate(hg, [1, 2, 3])
    assert not oracle_verify_certificate(hg, [1, 2, 2])
    assert not oracle_verify_certificate(Hypergraph(4, 3, ((0, 1, 2),)), [1, 2, 3, 1])
    assert not oracle_verify_certificate(hg, [1, 2, 7])
    assert not oracle_verify_certificate(hg, [0, 2, 3])
    with pytest.raises(ValueError):
        oracle_verify_certificate(hg, [1, 2])


@settings(max_examples=150)
@given(colored_hypergraphs())
def test_verify_agrees_with_solver_side_predicate(pair):
    hg, coloring = pair
    assert oracle_verify_certificate(hg, coloring) == is_no_rainbow_coloring(hg, coloring)


@settings(max_examples=200)
@given(hypergraphs(max_r=5).flatmap(
    lambda hg: st.tuples(st.just(hg), st.lists(st.integers(0, hg.r + 1), min_size=hg.n, max_size=hg.n))
))
def test_verify_agrees_beyond_the_palette(pair):
    # colors 0 and r+1 fall outside the palette, and most draws miss a color
    hg, coloring = pair
    assert oracle_verify_certificate(hg, coloring) == is_no_rainbow_coloring(hg, coloring)
