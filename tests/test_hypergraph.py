import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from norainbow import (
    Hypergraph,
    ParseError,
    Walks,
    det_nrc,
    det_solver,
    is_no_rainbow_coloring,
    local_search,
    parse_instance,
    rand_nrc,
    rand_solver,
    write_instance,
)
from norainbow.bulk_parse import _parse_bulk
from norainbow.hypergraph import parse_lines
from norainbow.instances import gen_complete, gen_random

from reference import first_rainbow_edge, hamming, is_rainbow_edge, select_branch_edge
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
    for edge in ((0, 1, 2.5), (0, 1, 2.0), (0, 1, "2"), (0, 1, 2**63), (0, 1, 2**64), (0, 1, -(2**70))):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge}")):
            Hypergraph(5, 3, (edge,))
    with pytest.raises(ValueError, match=r"edge \(0\.0, 1\.0, 2\.5\)"):
        Hypergraph(5, 3, np.array([[0, 1, 2.5]]))


@given(hypergraphs(), st.randoms(use_true_random=False))
def test_array_and_tuple_edges_canonicalize_alike(hg, rng):
    edges = [list(e) for e in hg.edges]
    edges += [list(rng.choice(edges)) for _ in range(rng.randint(0, 3))] if edges else []
    rng.shuffle(edges)
    for e in edges:
        rng.shuffle(e)
    from_array = Hypergraph(hg.n, hg.r, np.array(edges, dtype=np.int64).reshape(len(edges), hg.r))
    from_tuples = Hypergraph(hg.n, hg.r, tuple(map(tuple, edges)))
    assert from_array == from_tuples == hg
    for built in (from_array, from_tuples):
        assert built.rows.dtype == np.int64 and built.rows.shape == (hg.m, hg.r)
        assert built.rows.tolist() == [list(e) for e in built.edges]
        assert built.incidence == _shift_incidence(built)
    assert np.array_equal(from_array.rows, from_tuples.rows)


def _shift_incidence(hg):
    inc = [0] * hg.n
    for i, e in enumerate(hg.edges):
        for v in e:
            inc[v] |= 1 << i
    return tuple(inc)


@pytest.mark.parametrize(
    "n, m, r, seed", [(0, 0, 3, 0), (5, 0, 3, 0), (6, 7, 3, 1), (9, 8, 3, 2), (12, 61, 4, 3), (40, 999, 3, 4)]
)
def test_incidence_matches_shift_build(n, m, r, seed):
    hg = gen_random(n, m, r, seed)
    assert hg.incidence == _shift_incidence(hg)


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


# --- bulk parse against the line parser -------------------------------------


def _outcome(parse, text):
    """What a parser makes of text: the graph with its incidence, or the message."""
    try:
        hg = parse(text)
    except ParseError as exc:
        return str(exc)
    return hg, hg.incidence


FAULTS = ("none", "header", "count", "size", "range", "repeat", "token", "comment")


@st.composite
def instance_texts(draw):
    """write_instance text with its edge lines shuffled, the ids of each line
    permuted and some lines repeated, then at most one fault; (text, fault)."""
    hg = draw(hypergraphs())
    rng = draw(st.randoms(use_true_random=False))
    rows = [line.split() for line in write_instance(hg).splitlines()[1:]]
    if rows:
        rows += [list(rng.choice(rows)) for _ in range(draw(st.integers(0, 3)))]
    rng.shuffle(rows)
    for row in rows:
        rng.shuffle(row)
    n, m, r = hg.n, len(rows), hg.r
    header, extra = f"p nrc {n} {m} {r}", None
    fault = draw(st.sampled_from(FAULTS))
    if fault == "header":
        header, extra = draw(
            st.sampled_from(
                [
                    (f"p nrc {n} {m}", None),
                    (f"p cnf {n} {m} {r}", None),
                    (f"p nrc {n} {m} 1", None),
                    (f"p nrc x {m} {r}", None),
                    (header, header),
                ]
            )
        )
    elif fault == "count":
        header = f"p nrc {n} {m + draw(st.sampled_from([-1, 1]))} {r}"
    elif fault == "comment":
        extra = draw(st.sampled_from(["c note", "", "  \t"]))
    elif fault != "none" and rows:
        row = rng.choice(rows)
        k = rng.randrange(r)
        if fault == "size" and rng.random() < 0.5:
            row.insert(k, str(rng.randint(1, n)))
        elif fault == "size":
            row.pop(k)
        elif fault == "range":
            row[k] = str(rng.choice([0, n + 1, -1, 2**64]))
        elif fault == "repeat":
            row[k] = row[k - 1]
        else:
            row[k] = draw(st.sampled_from(["x", "1.5", "0x1", "-" + row[k], "+" + row[k], "0" + row[k], "1_0", "\uff13"]))
    lines = [" ".join(row) for row in rows]
    if extra is not None:
        lines.insert(rng.randint(0, len(lines)), extra)
    return "\n".join([header, *lines]) + "\n", fault


@given(instance_texts())
def test_bulk_parse_matches_line_parser(case):
    text, fault = case
    assert _outcome(parse_instance, text) == _outcome(parse_lines, text)
    if fault == "none":
        assert _parse_bulk(text) is not None


@pytest.mark.parametrize(
    "text, n, edges",
    [
        ("p nrc 4 2 3\r\n3 1 2\r\n4 2 1\r\n", 4, ((0, 1, 2), (0, 1, 3))),
        ("p nrc 4 1 3\n1 2 4\x0c\n", 4, ((0, 1, 3),)),
        ("p nrc 4 1 3\n4 3 2", 4, ((1, 2, 3),)),
        ("p nrc 4 1 3\n+3 1 2\n", 4, ((0, 1, 2),)),
        ("p nrc 4 1 3\n03 1 2\n", 4, ((0, 1, 2),)),
        ("p nrc 4 1 3\n\uff13 1 2\n", 4, ((0, 1, 2),)),
        ("p nrc 10 1 3\n1_0 1 2\n", 10, ((0, 1, 9),)),
        ("p nrc 4 0 3\n", 4, ()),
        ("p nrc 4 0 3", 4, ()),
    ],
)
def test_parse_texts_either_path_takes(text, n, edges):
    hg = parse_instance(text)
    assert (hg.n, hg.r, hg.edges) == (n, 3, edges)
    assert hg.incidence == _shift_incidence(hg)
    assert _outcome(parse_instance, text) == _outcome(parse_lines, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p\x0bnrc 4 1 3\n1 2 4\n", "line 1: malformed header 'p'"),
        ("c a\x85b\np nrc 4 1 3\n1 2 4\n", "line 2: edge line before header"),
        ("p nrc 4 1 3\n1 2\x0c3\n", "line 2: edge of wrong size, expected 3 node ids, got 2"),
        ("p nrc 4 1 3\r\n1 2\r3\r\n", "line 2: edge of wrong size, expected 3 node ids, got 2"),
        ("p nrc 4 1 2\n1 + 2\n", "line 2: edge of wrong size, expected 2 node ids, got 3"),
        ("p nrc 4 2 2\n1 2 0 3 4\n", "line 2: edge of wrong size, expected 2 node ids, got 5"),
        ("p nrc 4 1 3\n1 2 99999999999999999999\n", "line 2: node id out of range (got 99999999999999999999, n=4)"),
    ],
)
def test_parse_errors_match_line_parser(text, message):
    assert _outcome(parse_instance, text) == _outcome(parse_lines, text) == message


def test_parse_huge_header_builds_no_incidence():
    # incidence is built lazily for every graph, so parsing builds none of its 10**13 rows
    hg = parse_instance("p nrc 10000000000000 0 3\n")
    assert (hg.n, hg.m) == (10**13, 0)


def test_parse_at_scale_matches_generator():
    hg = gen_random(200, 20000, 3, 1)
    parsed = parse_instance(write_instance(hg))
    assert parsed == hg
    assert parsed.incidence == _shift_incidence(hg)


def test_parse_dedups_without_packed_keys():
    # 300**8 >= 2**63, so the rows are too wide for one int64 key each
    rng = random.Random(5)
    edges = [tuple(rng.sample(range(300), 8)) for _ in range(6)]
    lines = [" ".join(str(v + 1) for v in rng.sample(e, 8)) for e in edges + edges[:2]]
    text = f"p nrc 300 {len(lines)} 8\n" + "\n".join(lines) + "\n"
    parsed = _parse_bulk(text)
    hg = Hypergraph(300, 8, tuple(edges))
    assert 300**8 >= 2**63
    assert parsed == hg
    assert parsed.incidence == _shift_incidence(hg)


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


def test_solvers_refuse_an_invalid_certificate(monkeypatch):
    # every solver answers through SearchOutcome.of, which checks the certificate
    hg, bad = Hypergraph(4, 3, ((0, 1, 2),)), [1, 2, 3, 1]
    monkeypatch.setattr(det_solver, "_root_certificate", lambda hg, stats: list(bad))
    with pytest.raises(RuntimeError, match="internal error"):
        det_nrc(hg)
    monkeypatch.setattr(det_solver, "_search", lambda *args: list(bad))
    with pytest.raises(RuntimeError, match="internal error"):
        local_search(hg, (0, 1, 3), 1, 1)

    def walks(hg, colors, frozen, rng):
        k = len(colors)
        return Walks(np.array([bad] * k), frozen, np.ones(k, dtype=bool), np.ones(k, dtype=np.int64))

    monkeypatch.setattr(rand_solver, "lockstep_walks", walks)
    with pytest.raises(RuntimeError, match="internal error"):
        rand_nrc(hg)


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


# --- branch selection -------------------------------------------------------


def test_select_branch_edge_single():
    hg = Hypergraph(4, 3, ((0, 1, 3),))
    assert select_branch_edge(hg, [1, 2, 3, 3], {0, 1, 2}) == (0, 3)


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
    assert got == (1, 4)
