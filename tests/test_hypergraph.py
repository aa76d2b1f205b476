import itertools
import pickle
import random
import re
from copy import copy as shallow_copy
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from norainbow import (
    Hypergraph,
    ParseError,
    det_nrc,
    det_solver,
    hypergraph,
    is_no_rainbow_coloring,
    parse_instance,
    rand_nrc,
    rand_solver,
    write_instance,
)
from norainbow.hypergraph import _parse_bulk
from norainbow.instances import gen_complete, gen_planted, gen_random
from norainbow.rand_solver import Walks

from reference import first_rainbow_edge, hamming, is_rainbow_edge, local_search, parse_lines, select_branch_edge
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
    with pytest.raises(ValueError, match="node count must be >= 0, got -1"):
        Hypergraph(-1, 3)
    for edge in ((0, 1, 2.5), (0, 1, 2.0), (0, 1, "2"), (0, 1, 2**63), (0, 1, 2**64), (0, 1, -(2**70))):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge}")):
            Hypergraph(5, 3, (edge,))
    with pytest.raises(ValueError, match=r"edge \(0\.0, 1\.0, 2\.5\)"):
        Hypergraph(5, 3, np.array([[0, 1, 2.5]]))
    # an array edge of the wrong width is named as the same edge given as a tuple is
    for edges in (((0, 0, 0, 0),) * 2, np.zeros((2, 4), int)):
        with pytest.raises(ValueError, match=r"^edge \(0, 0, 0, 0\) has 4 nodes, expected 3$"):
            Hypergraph(5, 3, edges)


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


GRAPHS = {
    "bulk parse": lambda: parse_instance("p nrc 5 3 3\n3 1 2\n2 4 5\n1 2 3\n"),
    "line parse": lambda: parse_instance("p nrc 5 3 3\n3 1 2\nc mid\n2 4 5\n1 2 3\n"),
    "array": lambda: Hypergraph(5, 3, np.array([[2, 0, 1], [1, 3, 4]])),
    "tuples": lambda: Hypergraph(5, 3, ((2, 0, 1), (1, 3, 4))),
    "random": lambda: gen_random(9, 20, 3, 1),
    "random, rejection-sampled": lambda: gen_random(200, 50, 3, 1),
    "planted": lambda: gen_planted(9, 20, 3, 1)[0],
    "complete": lambda: gen_complete(6, 3),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_a_graph_stores_its_edges_once(name):
    with mock.patch.object(hypergraph, "_parse_edge_lines", wraps=hypergraph._parse_edge_lines) as line_parse:
        hg = GRAPHS[name]()
    assert line_parse.called == (name == "line parse")
    assert "edges" not in vars(hg) and "incidence" not in vars(hg)
    assert hg.edges == tuple(map(tuple, hg.rows.tolist()))
    assert "edges" in vars(hg)


def test_equality_is_by_value_and_survives_pickling():
    edges = ((2, 0, 1), (1, 3, 4), (0, 2, 4))
    hg = Hypergraph(5, 3, edges)
    copy = pickle.loads(pickle.dumps(hg))  # as a --threads worker receives it
    assert "edges" not in vars(copy)
    assert hg == Hypergraph(5, 3, np.array(edges)) == copy
    assert hg.edges == copy.edges
    assert "edges" not in vars(pickle.loads(pickle.dumps(hg)))  # a copy rebuilds its views itself
    for other in (pickle.loads(pickle.dumps(hg)), deepcopy(hg), shallow_copy(hg)):
        assert other == hg and not other.rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            other.rows[0, 0] = 3
    assert Hypergraph(5, 3) == Hypergraph(5, 3, np.zeros((0, 3), dtype=np.int64))
    for other in (
        Hypergraph(6, 3, edges),
        Hypergraph(5, 3, edges[:2] + ((0, 1, 3),)),
        Hypergraph(5, 3, edges[:2]),
        Hypergraph(5, 4, ((0, 1, 2, 3),)),
    ):
        assert hg != other
    assert Hypergraph(5, 3) != Hypergraph(5, 4)
    assert Hypergraph(5, 3) != Hypergraph(6, 3)
    assert hg != edges
    with pytest.raises(TypeError, match="unhashable"):
        hash(hg)
    assert "[1, 3, 4]" in repr(hg)  # hypothesis prints the edges of a falsifying graph


def test_a_pickle_holds_compact_rows_and_no_views():
    # a --threads worker receives this pickle; at most 255 nodes, a node id is one byte
    hg = gen_random(200, 20000, 3, 1)
    size = len(pickle.dumps(hg))
    assert size < hg.m * hg.r + 1000
    hg.edges, hg.incidence
    assert len(pickle.dumps(hg)) == size
    copy = pickle.loads(pickle.dumps(hg))
    assert copy == hg and copy.rows.dtype == np.int64
    assert "edges" not in vars(copy) and "incidence" not in vars(copy)
    assert copy.incidence == hg.incidence


@pytest.mark.parametrize("n, edges", [(0, ()), (256, ((0, 255),)), (2**40, ((0, 2**40 - 1),)), (2**70, ((0, 2**63 - 1),))])
def test_a_pickle_round_trips_at_every_id_width(n, edges):
    # the pickled rows take the smallest dtype that holds n: uint8 up to uint64, then Python ints
    hg = Hypergraph(n, 2, edges)
    copy = pickle.loads(pickle.dumps(hg))
    assert copy == hg and copy.rows.dtype == np.int64 and not copy.rows.flags.writeable


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
    with pytest.raises(ParseError, match=r"^line 2: non-integer node id$"):
        parse_instance("p nrc 3 1 3\n1 x 3\n")
    with pytest.raises(ParseError, match="before header"):
        parse_instance("1 2 3\np nrc 3 1 3\n")
    with pytest.raises(ParseError, match="declares"):
        parse_instance("p nrc 3 2 3\n1 2 3\n")
    with pytest.raises(ParseError, match="header"):
        parse_instance("c only comments\n")
    with pytest.raises(ParseError, match=r"^line 1: malformed header 'p nrc 3 x 2'$"):
        parse_instance("p nrc 3 x 2\n")


def test_parse_skips_comments_and_blanks():
    hg = parse_instance("c a comment\n\np nrc 3 1 3\nc mid\n1 2 3\n")
    assert hg.m == 1


def test_write_single_edge():
    assert write_instance(Hypergraph(3, 3, ((0, 1, 2),))) == "p nrc 3 1 3\n1 2 3\n"


def test_write_zero_edges():
    assert write_instance(Hypergraph(5, 4)) == "p nrc 5 0 4\n"


def test_write_keeps_the_largest_id():
    hg = Hypergraph(2**64, 2, ((0, 2**63 - 1),))
    assert write_instance(hg) == f"p nrc {2**64} 1 2\n1 {2**63}\n"
    assert parse_instance(write_instance(hg)) == hg


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
    permuted and some lines repeated, then at most one fault, and its lines
    ended by LF, CRLF or CR; (text, fault)."""
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
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([header, *lines]) + end, fault


@given(instance_texts())
def test_bulk_parse_matches_line_parser(case):
    text, fault = case
    assert _outcome(parse_instance, text) == _outcome(parse_lines, text)
    if fault == "none":  # the bulk conversion takes every fault-free text
        with mock.patch.object(hypergraph, "_parse_edge_lines", side_effect=AssertionError("line loop ran")):
            parse_instance(text)


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
        ("\ufeffp nrc 4 1 3\n1 2 4\n", 4, ((0, 1, 3),)),
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
        (  # np.fromstring would read 2**63 + 6 as 2**63 - 1, an id below this n
            f"p nrc {2**63 - 1} 1 3\n1 2 {2**63 + 6}\n",
            f"line 2: node id out of range (got {2**63 + 6}, n={2**63 - 1})",
        ),
        ("p nrc 4 1 3\np nrc 4 1 3\n1 2 4\n", "line 2: duplicate header"),
    ],
)
def test_parse_errors_match_line_parser(text, message):
    assert _outcome(parse_instance, text) == _outcome(parse_lines, text) == message


def test_parse_huge_header_builds_no_incidence():
    # incidence and the tuple view are built lazily for every graph, so
    # parsing builds none of the 10**13 rows of incidence
    hg = parse_instance("p nrc 10000000000000 0 3\n")
    assert (hg.n, hg.m) == (10**13, 0)
    assert "incidence" not in vars(hg) and "edges" not in vars(hg)


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
    parsed = _parse_bulk(" 0\n".join(lines), 300, len(lines), 8)
    hg = Hypergraph(300, 8, tuple(edges))
    assert 300**8 >= 2**63
    assert parsed == hg
    assert parsed.incidence == _shift_incidence(hg)


@pytest.mark.parametrize("n, r", [(2, 2), (9, 3), (200, 3), (40, 5), (2**21 - 1, 3)])
def test_key_dedup_matches_unique_rows(n, r):
    # below n**r = 2**63 each row is one int64 key; the sorted, deduplicated
    # keys decode to the rows np.unique(axis=0) keeps, in the same order
    assert r * n.bit_length() <= 63
    rng = random.Random(n)
    for m in (0, 1, 7, 3000):
        edges = [rng.sample(range(n), r) for _ in range(m)]
        edges += [rng.sample(e, r) for e in rng.choices(edges, k=m // 2)]  # repeats, reordered
        rows = np.sort(np.array(edges, dtype=np.int64).reshape(len(edges), r), axis=1)
        expected = np.unique(rows, axis=0)
        for given in (edges, rows[::-1]):
            hg = Hypergraph(n, r, given)
            assert hg.rows.dtype == np.int64 and hg.rows.shape == expected.shape
            assert np.array_equal(hg.rows, expected)


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
    monkeypatch.setattr(det_solver, "_start_search", lambda *args: list(bad))
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
