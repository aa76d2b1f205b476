import itertools
import math
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norainbow import Hypergraph, is_no_rainbow_coloring, oracle
from norainbow.hypergraph import COLORABLE, NOT_COLORABLE
from norainbow.instances import gen_complete, gen_random
from norainbow.oracle import OracleReport, oracle_decide, oracle_verify_certificate

from reference import product_order_decide, reference_no_rainbow
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


def test_budget_refusal_computes_no_huge_power():
    # 3^(10^7) has 4.8 million digits; its bit length alone refuses it
    hg = Hypergraph(10**7, 3)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape("needs 3^10000000 colorings, over budget 100000000; raise")):
        oracle_decide(hg)
    assert time.perf_counter() - t0 < 0.5
    for hg, needs in ((Hypergraph(2, 3), "3^2 = 9"), (Hypergraph(0, 3), "3^0 = 1"), (Hypergraph(0, 2), "2^0 = 1")):
        with pytest.raises(ValueError, match=re.escape(f"needs {needs} colorings, over budget 0;")):
            oracle_decide(hg, budget=0)
        # a negative budget is refused whatever the instance, as nrc bench refuses it before any run
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            oracle_decide(hg, budget=-1)


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


def stirling2(n, k):
    """Stirling number of the second kind: partitions of n items into k
    nonempty blocks, by the recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


@pytest.mark.parametrize("cells", [None, 1, 4, 30])
def test_zero_edge_witnesses_are_surjections(cells):
    # A zero-edge graph's witnesses are its r! S(n, r) surjective colorings.
    # Under the default cap these fit the suffix table whole; at 1 cell only
    # prefixes using all r colors find a witness, and at 4 and 30 cells a
    # nonempty suffix completes prefixes using fewer colors, so each prefix
    # weight r!/(r-j)! is exercised.
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(oracle, "_TABLE_CELLS", cells)
        for r in range(2, 6):
            for n in range(1, 9):
                expected = math.factorial(r) * stirling2(n, r)
                assert oracle_decide(Hypergraph(n, r)).witness_count == expected, (n, r)


@pytest.mark.parametrize("cells", [None, 1, 4, 30])
@settings(max_examples=60, deadline=None)
@given(hg=hypergraphs(max_r=5, max_n=8, max_m=8))
def test_matches_product_order_reference(cells, hg):
    # the restricted-growth prefixes give the same decision, witness count
    # and sample witness as every prefix in product order, under the
    # default table cap and under the small caps that force a long prefix
    expected = product_order_decide(hg)
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(oracle, "_TABLE_CELLS", cells)
        assert oracle_decide(hg) == expected


@pytest.mark.parametrize(
    "spec, count, sample",
    [
        ((10, 20, 4, 7), 87_984, [1, 1, 1, 1, 1, 1, 1, 2, 3, 4]),
        ((12, 24, 3, 2000), 6_516, [1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 1, 2]),
    ],
)
def test_pinned_counts(spec, count, sample):
    # Values recorded with the earlier sort-based enumerator. Under the
    # default cap the prefix loop runs 5 and 5 times on these.
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
    expected = reference_no_rainbow(hg, coloring)
    assert oracle_verify_certificate(hg, coloring) == is_no_rainbow_coloring(hg, coloring) == expected


@settings(max_examples=200)
@given(hypergraphs(max_r=5).flatmap(
    lambda hg: st.tuples(st.just(hg), st.lists(st.integers(0, hg.r + 1), min_size=hg.n, max_size=hg.n))
))
def test_verify_agrees_beyond_the_palette(pair):
    # colors 0 and r+1 fall outside the palette, and most draws miss a color
    hg, coloring = pair
    expected = reference_no_rainbow(hg, coloring)
    assert oracle_verify_certificate(hg, coloring) == is_no_rainbow_coloring(hg, coloring) == expected


@st.composite
def colorings_to_check(draw):
    """A hypergraph with r up to 5 or near 64, and a coloring of it. Most
    colorings use every color of 1..r, and half of the graphs are drawn from
    the edges that coloring leaves unrainbow. The other colorings miss a color,
    hold one off the palette (0, r + 1, negative, beyond int64) or have the
    wrong length."""
    r = draw(st.sampled_from([2, 3, 4, 5, 63, 64, 66]))
    n = draw(st.integers(r, 9 if r <= 5 else r + 2))
    fill = draw(st.lists(st.integers(1, r), min_size=n - r, max_size=n - r))
    coloring = list(draw(st.permutations([*range(1, r + 1), *fill])))
    pool = list(itertools.combinations(range(n), r))
    if draw(st.booleans()):
        pool = [e for e in pool if len({coloring[v] for v in e}) < r] or pool
    hg = Hypergraph(n, r, tuple(draw(st.lists(st.sampled_from(pool), max_size=12))))
    kind = draw(st.sampled_from(["surjective", "surjective", "missing", "off palette", "length"]))
    if kind == "missing":
        gone = draw(st.integers(1, r))
        coloring = [gone % r + 1 if c == gone else c for c in coloring]
    elif kind == "off palette":
        coloring[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, r + 1, -1, -r, 2**64, -(2**70)]))
    elif kind == "length":
        coloring = coloring[:-1] if draw(st.booleans()) else [*coloring, 1]
    return hg, coloring


@settings(max_examples=400)
@given(colorings_to_check())
def test_both_checks_match_the_reference(pair):
    # the two checks are two formulations; each must agree with the plain definition
    hg, coloring = pair
    expected = reference_no_rainbow(hg, coloring)
    assert is_no_rainbow_coloring(hg, coloring) == expected
    if len(coloring) != hg.n:
        with pytest.raises(ValueError, match="certificate length"):
            oracle_verify_certificate(hg, coloring)
    else:
        assert oracle_verify_certificate(hg, coloring) == expected


@pytest.mark.parametrize("check", [is_no_rainbow_coloring, oracle_verify_certificate, reference_no_rainbow])
def test_checks_past_64_colors(check):
    # one edge of 70 nodes: a color bit 1 << c would overflow an int64 mask
    hg = Hypergraph(71, 70, (tuple(range(70)),))
    assert check(hg, [*range(1, 70), 1, 70])
    assert not check(hg, [*range(1, 71), 1])
