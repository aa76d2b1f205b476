import gc
import itertools
import math
import multiprocessing
import random

import numpy as np
import pytest
from hypothesis import given, settings

from norainbow import (
    COLORABLE,
    NOT_COLORABLE,
    Hypergraph,
    SearchStats,
    det_nrc,
    det_starts,
    hypergraph,
    is_no_rainbow_coloring,
    local_search,
    rand_nrc,
    search_radius,
)
from norainbow.det_solver import start_count
from norainbow.instances import gen_complete, gen_planted, gen_random, gen_shadow
from norainbow.oracle import oracle_decide, oracle_verify_certificate

from reference import (
    class_minimum_starts,
    enumerate_initial_pairs,
    first_root_certificate,
    hamming,
    reference_det_search,
)
from strategies import hypergraphs

# gen_random(6, 12, 3, 6) is NOT_COLORABLE and forces real branching
BRANCHY_UNSAT = gen_random(6, 12, 3, 6)

# (FALLBACK_COLORING, FALLBACK_FROZEN) below is the gap state: edge (2,3,4)
# is rainbow with no frozen node while edge (0,1,4) has exactly r-1 frozen
# members, so no rainbow edge has a unique unfrozen node. Its background is
# not uniform, so no det start looks like it; the rand walk can reach it and
# takes its fallback there.
FALLBACK_HG = Hypergraph(6, 3, ((0, 1, 4), (2, 3, 4)))
FALLBACK_COLORING = [1, 2, 2, 3, 1, 3]
FALLBACK_FROZEN = frozenset({0, 1, 5})


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
    for n, r, every in ((3, 3, 3), (4, 3, 12), (5, 4, 20)):
        hg = Hypergraph(n, r)
        assert len(list(enumerate_initial_pairs(hg))) == every == math.comb(n, r) * r
        assert list(det_starts(n, r)) == class_minimum_starts(hg)
        assert len(class_minimum_starts(hg)) == start_count(n, r) == math.comb(n - 1, r - 1) * r


def test_initial_pairs_structure():
    starts = list(det_starts(4, 3))
    assert starts == class_minimum_starts(Hypergraph(4, 3))
    assert len(set(starts)) == start_count(4, 3) == math.comb(3, 2) * 3
    for subset, b in starts:
        assert list(subset) == sorted(subset) and len(subset) == 3 and subset[0] == 0
        assert 1 <= b <= 3
    # subset-major, background-minor ordering
    assert starts[:3] == [((0, 1, 2), 1), ((0, 1, 2), 2), ((0, 1, 2), 3)]


def test_initial_pairs_require_enough_nodes():
    assert list(det_starts(2, 3)) == [] and start_count(2, 3) == 0


def test_local_search_forced_instance():
    hg = Hypergraph(3, 3, ((0, 1, 2),))
    for start in enumerate_initial_pairs(hg):
        for radius in (0, 1, 2, 5):
            out = local_search(hg, *start, radius)
            assert out.decision == NOT_COLORABLE


def test_local_search_zero_edges_zero_radius():
    hg = Hypergraph(5, 3)
    start = next(enumerate_initial_pairs(hg))
    out = local_search(hg, *start, 0)
    assert out.decision == COLORABLE
    assert is_no_rainbow_coloring(hg, out.certificate)


def test_local_search_complete_four_all_starts():
    hg = gen_complete(4, 3)
    for start in enumerate_initial_pairs(hg):
        assert local_search(hg, *start, 2).decision == NOT_COLORABLE


def test_local_search_rejects_bad_start():
    hg = Hypergraph(5, 3, ((0, 1, 4),))
    for subset in ((0, 0, 1), (0, 1, 5), (-1, 0, 1), (0, 1), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="subset"):
            local_search(hg, subset, 1, 3)
    for b in (0, 4):
        with pytest.raises(ValueError, match="background"):
            local_search(hg, (0, 1, 2), b, 3)
    with pytest.raises(ValueError, match="radius"):
        local_search(hg, (0, 1, 2), 1, -1)


def test_node_count_bound_on_branchy_instance():
    hg = BRANCHY_UNSAT
    g = search_radius(hg.n, hg.r)
    bound = sum((hg.r - 1) ** i for i in range(g + 1))
    for start in enumerate_initial_pairs(hg):
        out = local_search(hg, *start, g)
        assert out.stats.recursion_nodes <= bound


def test_trace_invariants():
    hg = BRANCHY_UNSAT
    g = search_radius(hg.n, hg.r)
    for subset, b in list(enumerate_initial_pairs(hg))[:12]:
        initial = [b] * hg.n
        for color, v in enumerate(subset, start=1):
            initial[v] = color
        w = subset[b - 1]
        seen = []

        def watch(depth, coloring):
            frozen = [c != b or v == w for v, c in enumerate(coloring)]
            seen.append(depth)
            assert depth <= g
            assert hamming(initial, coloring) == depth
            assert sum(frozen) == len(subset) + depth
            assert all(frozen[v] for v in subset)
            assert all(coloring[v] == initial[v] for v in subset)

        local_search(hg, subset, b, g, trace=watch)
        assert seen[0] == 0


def test_unsat_nodes_have_one_child_per_allowed_color():
    # on a fully explored (unsatisfiable) search, every node with children
    # has one per color its branch node v may take, in order: the colors
    # 1..cap other than b, cap being the number of subset nodes below v.
    # So no node has more than r-1, and the caps cut some below that
    hg = BRANCHY_UNSAT
    g = search_radius(hg.n, hg.r)
    widths = set()
    for subset, b in enumerate_initial_pairs(hg):
        trace = []
        local_search(hg, subset, b, g, trace=lambda d, c: trace.append((d, list(c))))
        children = [[] for _ in trace]
        stack = []
        for i, (depth, _) in enumerate(trace):
            while stack and trace[stack[-1]][0] >= depth:
                stack.pop()
            if stack:
                children[stack[-1]].append(i)
            stack.append(i)
        for (_, coloring), kids in zip(trace, children):
            if kids:
                (v,) = {u for k in kids for u in range(hg.n) if trace[k][1][u] != coloring[u]}
                cap = sum(u < v for u in subset)
                assert [trace[k][1][v] for k in kids] == [c for c in range(1, cap + 1) if c != b]
            widths.add(len(kids))
    assert widths == set(range(hg.r))


@pytest.mark.parametrize(
    "hg",
    [
        gen_random(6, 9, 2, 3),
        BRANCHY_UNSAT,
        gen_random(7, 18, 3, 2),
        gen_random(8, 40, 4, 1),
        gen_random(8, 30, 5, 2),
        # 70 colors: wider than any int64 bit mask over the colors
        Hypergraph(71, 70, (tuple(range(70)), tuple(range(1, 71)))),
        # no root certifies on these, so the caps and the forced count prune
        gen_shadow(8, 3, 2)[0],
        gen_shadow(7, 4, 2, planted=False)[0],
    ],
    ids=["r2", "r3-branchy", "r3", "r4", "r5", "r70", "shadow", "free-shadow"],
)
def test_local_search_matches_reference_search(hg):
    # the carried per-color edge sets pick the same node, branch and exit at
    # every search node as a search that re-evaluates each node from scratch;
    # det's frozen flags, derived from its colors (a node is frozen when its
    # color is not b or it is the subset's b node w), match the frozen set
    # the reference tracks on its own
    # the reference counts its budget down, det compares the depth with the
    # radius: radii below the full one cut the tree where the two must agree
    g = search_radius(hg.n, hg.r)
    for radius, (subset, b) in itertools.product((0, 1, g // 2, g), enumerate_initial_pairs(hg)):
        certificate, expected = reference_det_search(hg, subset, b, radius)
        w = subset[b - 1]
        trace = []

        def record(depth, coloring):
            trace.append((depth, list(coloring), [c != b or v == w for v, c in enumerate(coloring)]))

        out = local_search(hg, subset, b, radius, trace=record)
        assert trace == expected, (radius, subset, b)
        assert out.certificate == certificate
        assert out.decision == (NOT_COLORABLE if certificate is None else COLORABLE)
        assert out.stats.recursion_nodes == len(expected)


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


def test_det_root_sweep_builds_no_tuple_view():
    # a root certificate needs only incidence and rows; the branch pick reads edges
    hg, _ = gen_planted(30, 900, 3, 0)
    assert det_nrc(hg).stats.recursion_nodes == 1
    assert "edges" not in vars(hg)
    branchy = gen_random(6, 12, 3, 6)  # BRANCHY_UNSAT, unread
    assert det_nrc(branchy).stats.recursion_nodes > 1 and "edges" in vars(branchy)


def test_det_searches_leave_no_garbage_cycles():
    # a start's search closes over itself; an uncollected closure per start
    # would hold that start's bit sets until the cycle collector ran
    branchy, planted = BRANCHY_UNSAT, gen_planted(30, 900, 3, 1)[0]
    for hg in (branchy, planted):
        hg.edges, hg.incidence  # built before the count, as a graph's views are kept
    gc.collect()
    gc.disable()
    try:
        assert det_nrc(branchy).stats.trials > 1 and det_nrc(planted).colorable
        assert local_search(branchy, (0, 1, 2), 1, 4).decision == NOT_COLORABLE
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_det_checks_its_certificate_once(monkeypatch):
    # the full-radius pass certifies here; its start's search must not check it a second time
    calls = []
    check = hypergraph.is_no_rainbow_coloring
    monkeypatch.setattr(hypergraph, "is_no_rainbow_coloring", lambda *args: calls.append(args) or check(*args))
    hg, _ = gen_planted(30, 900, 3, 1)
    out = det_nrc(hg)
    assert out.decision == COLORABLE and first_root_certificate(hg) is None
    assert len(calls) == 1


def test_deep_searches_raise_the_recursion_limit():
    # a search recurses once per level; both of these go past the default limit of 1,000
    star_and_path = Hypergraph(2200, 2, [(0, v) for v in range(1, 1100)] + [(v, v + 1) for v in range(1100, 2199)])
    out = det_nrc(star_and_path)
    assert (out.decision, out.certificate) == (COLORABLE, [1] * 1100 + [2] * 1100)
    assert out.stats == SearchStats(recursion_nodes=3298, trials=2199, max_start_nodes=1100)
    # from (0, 1050) on background 2 the caps leave every node one color, 1:
    # the search recolors 1..1049 in turn and fails at depth 1,049 on the
    # frozen edge (1049, 1050)
    path = Hypergraph(2100, 2, [(v, v + 1) for v in range(2099)])
    out = local_search(path, (0, 1050), 2, 1050)
    assert (out.decision, out.stats.recursion_nodes) == (NOT_COLORABLE, 1050)
    # from (0, 2099) on background 1 every node between has cap 1 = b, so no
    # color: the root branches on none
    out = local_search(path, (0, 2099), 1, 1050)
    assert (out.decision, out.stats.recursion_nodes) == (NOT_COLORABLE, 1)


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
    assert out.stats.trials <= start_count(hg.n, hg.r) if hg.n >= hg.r else True


def _counts(outcome):
    s = outcome.stats
    return outcome.decision, outcome.certificate, s.recursion_nodes, s.trials, s.max_start_nodes


def test_det_parallel_matches_sequential_decision():
    for hg in (gen_complete(5, 3), gen_planted(8, 12, 3, 7)[0], Hypergraph(6, 3)):
        seq = det_nrc(hg)
        par = det_nrc(hg, workers=2)
        assert seq.decision == par.decision
        if par.colorable:
            assert oracle_verify_certificate(hg, par.certificate)
    # a root certificate comes from the in-process sweep, whatever the workers
    hg = gen_planted(8, 12, 3, 7)[0]
    assert first_root_certificate(hg) is not None
    assert _counts(det_nrc(hg, workers=2)) == _counts(det_nrc(hg))


def test_det_root_certificate_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    for hg in (gen_planted(8, 12, 3, 7)[0], Hypergraph(6, 3)):
        assert det_nrc(hg, workers=2).stats.trials == 1
    # the patch does catch a pool: an instance without a root certificate needs one
    with pytest.raises(AssertionError, match="process pool"):
        det_nrc(gen_complete(5, 3), workers=2)


def _root_sweep_corpus():
    """400 seeded random instances, r 2-5 and n <= 10, about a tenth edgeless."""
    rng = random.Random(2024)
    for _ in range(400):
        r = rng.randint(2, 5)
        n = rng.randint(r, 10)
        m = 0 if rng.random() < 0.1 else rng.randint(1, min(30, math.comb(n, r)))
        yield gen_random(n, m, r, rng.randrange(10**6))


def test_det_returns_the_first_root_certificate():
    found = 0
    for hg in _root_sweep_corpus():
        expected = first_root_certificate(hg)
        if expected is None:
            continue
        found += 1
        out = det_nrc(hg)
        assert out.certificate == expected
        assert (out.stats.recursion_nodes, out.stats.trials) == (1, 1)
    assert found >= 200


def _plain_det(hg, starts):
    """det's two passes on a plain loop over starts: the first root with no
    rainbow edge as 1 node and 1 trial, else local_search from each start
    to the radius less r - 1, up to the first certificate, skipping (and not
    counting) each start with more than that radius of forced nodes, the
    s_b - b + 1 nodes below its b node outside its subset."""
    for subset, b in starts:
        coloring = [b] * hg.n
        for color, v in enumerate(subset, start=1):
            coloring[v] = color
        if is_no_rainbow_coloring(hg, coloring):
            return COLORABLE, coloring, 1, 1, 1
    stats = SearchStats()
    radius = search_radius(hg.n, hg.r) - (hg.r - 1)
    for start in starts:
        subset, b = start
        if sum(v not in subset for v in range(subset[b - 1])) > radius:
            continue
        outcome = local_search(hg, *start, radius)
        stats.absorb(outcome.stats)
        if outcome.colorable:
            return COLORABLE, outcome.certificate, stats.recursion_nodes, stats.trials, stats.max_start_nodes
    return NOT_COLORABLE, None, stats.recursion_nodes, stats.trials, stats.max_start_nodes


def test_class_minimum_starts_are_the_head_of_the_order():
    for r in range(2, 6):
        for n in range(1, 11):
            hg = Hypergraph(n, r)
            prefix = class_minimum_starts(hg)
            assert list(det_starts(n, r)) == prefix
            assert len(prefix) == start_count(n, r) == math.comb(n - 1, r - 1) * r
            assert prefix == list(itertools.islice(enumerate_initial_pairs(hg), start_count(n, r)))


def test_det_is_the_plain_pass_over_class_minimum_starts():
    # every counter of det_nrc is the plain loop's over the starts whose
    # subset holds node 0; on colorable instances the loop over every
    # start stops inside them, so det_nrc is that loop's too. A verified
    # certificate is the oracle's COLORABLE, so only refutations re-count
    colorable = uncolorable = 0
    for hg in _root_sweep_corpus():
        got = _counts(det_nrc(hg))
        assert got == _plain_det(hg, class_minimum_starts(hg))
        if got[0] == COLORABLE:
            colorable += 1
            assert oracle_verify_certificate(hg, got[1])
            assert got == _plain_det(hg, list(enumerate_initial_pairs(hg)))
        else:
            uncolorable += 1
            assert oracle_decide(hg).decision == NOT_COLORABLE
    assert colorable >= 200 and uncolorable >= 20


def _dense_colorable_corpus():
    """100 seeded colorable instances, r 2-5 and n <= 10: a random surjective
    coloring, and each r-subset it leaves non-rainbow as an edge with
    probability 0.7. About half have no root certificate."""
    rng = random.Random(11)
    for _ in range(100):
        r = rng.randint(2, 5)
        n = rng.randint(r + 1, 10)
        witness = list(range(1, r + 1)) + [rng.randint(1, r) for _ in range(n - r)]
        rng.shuffle(witness)
        subsets = itertools.combinations(range(n), r)
        yield Hypergraph(n, r, tuple(e for e in subsets if len({witness[v] for v in e}) < r and rng.random() < 0.7))


def test_det_colorable_full_pass_stops_inside_class_minimum_starts():
    full_pass = 0
    for hg in _dense_colorable_corpus():
        got = _counts(det_nrc(hg))
        assert got[0] == COLORABLE and oracle_verify_certificate(hg, got[1])
        assert got == _plain_det(hg, list(enumerate_initial_pairs(hg)))
        full_pass += first_root_certificate(hg) is None
    assert full_pass >= 40


# (planted, r, largest n) of shadow and free-shadow instances the oracle decides fast
SHADOW_SIZES = ((True, 3, 12), (True, 4, 10), (False, 3, 14), (False, 4, 11))


def _shadow_corpus(sizes=SHADOW_SIZES, seeds=range(3)):
    """(graph, witness) of gen_shadow for each (planted, r, n_max) of sizes,
    each n from r to n_max and each seed: the planted witness for shadow,
    None for free shadow. Every (r-1)-set of nodes lies in an edge, so no
    root certifies unless the planted generator skipped a set (tiny n)."""
    for planted, r, n_max in sizes:
        for n in range(r, n_max + 1):
            for seed in seeds:
                yield gen_shadow(n, r, seed, planted)


def test_det_agrees_with_oracle_on_shadow_instances():
    # the shadow families make det search past its roots, where the caps and
    # the forced count prune: det's decision is the oracle's, its counters
    # the plain loop's, and it stops inside the class-minimum starts
    searched = refuted = 0
    for hg, witness in _shadow_corpus():
        out = det_nrc(hg)
        assert out.decision == oracle_decide(hg).decision
        assert _counts(out) == _plain_det(hg, class_minimum_starts(hg))
        if witness is not None:
            assert oracle_verify_certificate(hg, witness) and out.colorable
        if out.colorable:
            assert oracle_verify_certificate(hg, out.certificate)
            assert _counts(out) == _plain_det(hg, list(enumerate_initial_pairs(hg)))
        searched += out.colorable and out.stats.recursion_nodes > 1
        refuted += not out.colorable
    assert searched >= 30 and refuted >= 50


def _refute_corpus():
    """60 seeded random instances, r 2-4 and n <= 10, about 40% uncolorable."""
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(2, 4)
        n = rng.randint(r, 10)
        m = rng.randint(1, min(30, math.comb(n, r)))
        yield gen_random(n, m, r, rng.randrange(10**6))


def _relabellings(hg, rng):
    """(perm, perm(H)) for the reversal v -> n-1-v, which moves node 0 and so
    every start det searches, and for one random permutation: edge
    (u, ..., w) becomes (perm[u], ..., perm[w])."""
    shuffled = list(range(hg.n))
    rng.shuffle(shuffled)
    for perm in (list(range(hg.n - 1, -1, -1)), shuffled):
        yield perm, Hypergraph(hg.n, hg.r, np.asarray(perm)[hg.rows])


def test_det_decisions_survive_node_relabelling():
    # det searches only the starts that hold node 0; a node relabelling
    # must leave its decision, its certificate's validity and the oracle's
    # witness count where they were
    rng = random.Random(5)
    past_root = refuted = 0
    shadows = (hg for hg, _ in _shadow_corpus(((True, 3, 11), (True, 4, 9), (False, 3, 12), (False, 4, 9)), range(2)))
    for hg in itertools.chain(_dense_colorable_corpus(), _refute_corpus(), shadows):
        base, report = det_nrc(hg), oracle_decide(hg)
        assert base.decision == report.decision
        for perm, moved in _relabellings(hg, rng):
            out = det_nrc(moved)
            assert out.decision == base.decision
            assert oracle_decide(moved).witness_count == report.witness_count
            past_root += out.stats.recursion_nodes > 1 or not out.colorable
            refuted += not out.colorable
            if base.colorable:
                certificate = [0] * hg.n
                for v, color in enumerate(base.certificate):
                    certificate[perm[v]] = color
                assert is_no_rainbow_coloring(moved, certificate)
                assert oracle_verify_certificate(moved, certificate)
    assert past_root >= 220 and refuted >= 100


def test_rand_stays_one_sided_under_node_relabelling():
    rng = random.Random(5)
    refuted = 0
    shadows = (hg for hg, _ in _shadow_corpus(((True, 3, 10), (False, 3, 10), (False, 4, 8)), range(2)))
    for seed, hg in enumerate(itertools.chain(_refute_corpus(), shadows)):
        colorable = oracle_decide(hg).witness_count > 0
        refuted += not colorable
        for _, moved in _relabellings(hg, rng):
            assert colorable or not rand_nrc(moved, master_seed=seed).colorable
    assert refuted >= 45


def test_det_former_n200_hang_certifies_at_a_root():
    # the full-radius pass alone gives no answer here in 10 minutes; start 51's root certifies
    hg = gen_random(200, 20000, 3, 1)
    out = det_nrc(hg)
    assert out.decision == COLORABLE
    assert (out.stats.recursion_nodes, out.stats.trials) == (1, 1)
    expected = [1] * hg.n  # start (0, 1, 19) on background 1
    expected[1], expected[19] = 2, 3
    assert out.certificate == expected
    assert oracle_verify_certificate(hg, out.certificate)
