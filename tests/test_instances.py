import itertools
import math

import pytest

import norainbow
from norainbow import instances, write_instance
from norainbow.hypergraph import COLORABLE, NOT_COLORABLE
from norainbow.instances import (
    FAMILIES,
    InstanceSpec,
    gen_complete,
    gen_planted,
    gen_random,
    gen_shadow,
    planted_comment,
)
from norainbow.oracle import oracle_decide, oracle_verify_certificate

from reference import read_planted_witness


def test_every_generator_is_exported():
    names = [name for name in dir(instances) if name.startswith("gen_")]
    assert "gen_shadow" in names
    for name in names:
        assert getattr(norainbow, name) is getattr(instances, name)


def test_random_unique_triple():
    for seed in (0, 1, 99):
        assert gen_random(3, 1, 3, seed).edges == ((0, 1, 2),)


def test_random_zero_edges():
    assert gen_random(10, 0, 3, 4).m == 0


def test_random_reproducible():
    assert gen_random(10, 15, 3, 7) == gen_random(10, 15, 3, 7)
    assert gen_random(12, 20, 3, 1) == gen_random(12, 20, 3, 1)


def test_random_counts_and_validity():
    hg = gen_random(9, 20, 4, 3)
    assert hg.m == 20
    assert len(set(hg.edges)) == 20


def test_random_m_too_large():
    with pytest.raises(ValueError, match="exceeds"):
        gen_random(4, 5, 3, 0)


@pytest.mark.parametrize("n", [5, 200])  # sampled by enumeration, and by rejection
def test_negative_m_rejected(n):
    with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
        gen_random(n, -1, 3, 0)
    with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
        gen_planted(n, -1, 3, 0)


def test_planted_witness_always_verifies():
    for seed in range(25):
        hg, witness = gen_planted(9, 14, 3, seed)
        assert hg.m == 14
        assert oracle_verify_certificate(hg, witness)


def test_planted_reproducible():
    assert gen_planted(8, 12, 3, 7) == gen_planted(8, 12, 3, 7)


def test_planted_is_colorable_per_oracle():
    hg, _ = gen_planted(8, 12, 3, 7)
    assert oracle_decide(hg).decision == COLORABLE


def test_planted_n_equals_r_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        gen_planted(3, 1, 3, 0)
    # but m=0 degenerates gracefully
    hg, witness = gen_planted(3, 0, 3, 0)
    assert hg.m == 0
    assert sorted(witness) == [1, 2, 3]


def test_planted_rejects_small_n():
    with pytest.raises(ValueError):
        gen_planted(2, 0, 3, 0)


def test_complete_shapes():
    assert gen_complete(4, 3).m == 4
    assert gen_complete(5, 4).m == 5
    assert gen_complete(3, 3).m == 1
    with pytest.raises(ValueError):
        gen_complete(2, 3)


def test_complete_never_colorable():
    for n, r in ((3, 3), (4, 3), (5, 3), (4, 4), (5, 4), (6, 4)):
        assert oracle_decide(gen_complete(n, r)).decision == NOT_COLORABLE


def test_instance_spec_dispatch():
    hg, witness = InstanceSpec("planted", 8, 3, 12, 7).generate()
    assert witness is not None
    hg2, none = InstanceSpec("complete", 5, 3).generate()
    assert none is None and hg2.m == 10
    with pytest.raises(ValueError):
        InstanceSpec("mystery", 5, 3).generate()
    with pytest.raises(ValueError, match="n >= r"):
        InstanceSpec("random", 2, 3).generate()
    assert InstanceSpec("complete", 5, 3).instance_id() == "complete:r=3,n=5"


@pytest.mark.parametrize(
    "spec", [InstanceSpec("random", 8, 3, 10, 1), InstanceSpec("planted", 9, 4, 12, 5), InstanceSpec("complete", 6, 3)]
)
def test_instance_spec_parse_inverts_instance_id(spec):
    assert InstanceSpec.parse(spec.instance_id()) == [spec]


def test_every_generated_spec_is_named_by_its_instance_id():
    # a spec generate accepts is the one spec its instance_id parses back to, and
    # generate refuses exactly the specs that set a key their family does not read
    for family, (reads, _) in FAMILIES.items():
        for m, seed in ((0, 0), (7, 0), (0, 3), (7, 3)):
            spec = InstanceSpec(family, 6, 3, m, seed)
            unread = [(key, value) for key, value in (("m", m), ("seed", seed)) if value and key not in reads]
            try:
                spec.generate()
            except ValueError as exc:
                assert unread, exc
                key, value = unread[0]
                assert str(exc) == f"a {family} instance takes no {key}, got {key}={value}"
                continue
            assert not unread
            assert InstanceSpec.parse(spec.instance_id()) == [spec]


def test_instance_spec_parse_expands_an_n_range():
    assert InstanceSpec.parse("random:n=6..8,r=3,m=4") == [InstanceSpec("random", n, 3, 4) for n in (6, 7, 8)]


def test_planted_comment_roundtrip():
    hg, witness = gen_planted(8, 12, 3, 7)
    text = planted_comment(witness) + "\n" + write_instance(hg)
    assert read_planted_witness(text) == witness
    assert read_planted_witness(write_instance(hg)) is None


@pytest.mark.parametrize("n, r, seed", [(9, 3, 0), (12, 3, 1), (8, 4, 2), (32, 3, 0)])
def test_shadow_covers_every_r_minus_1_set(n, r, seed):
    # one edge per (r-1)-set T, T and a node outside it, so no det root
    # certifies; the planted witness is gen_planted's draw and stays one. It
    # skips only a T of r-1 colors that no other node repeats (9, 3, 0 has one)
    for planted in (True, False):
        hg, witness = gen_shadow(n, r, seed, planted)
        covered = {t for e in hg.edges for t in itertools.combinations(e, r - 1)}
        for t in set(itertools.combinations(range(n), r - 1)) - covered:
            colors = {witness[v] for v in t} if planted else set()
            assert len(colors) == r - 1 and not any(witness[w] in colors for w in range(n) if w not in t)
        assert hg.m <= math.comb(n, r - 1)
        assert gen_shadow(n, r, seed, planted) == (hg, witness)
        if planted:
            assert witness == gen_planted(n, 0, r, seed)[1]
            assert oracle_verify_certificate(hg, witness)
        else:
            assert witness is None


def test_shadow_sizes_pinned():
    # the m of item-sized instances: shadow 3, 32, 0 and free shadow 3, 24, 0
    assert gen_shadow(32, 3, 0)[0].m == 477
    assert gen_shadow(24, 3, 0, planted=False)[0].m == 262


def test_shadow_skips_a_set_no_node_can_join():
    # a 4-coloring of 4 nodes makes every 4-set rainbow: each 3-set is skipped
    hg, witness = gen_shadow(4, 4, 0)
    assert hg.m == 0 and sorted(witness) == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="need n >= r"):
        gen_shadow(2, 3, 0, planted=False)
