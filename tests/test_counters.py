"""Pinned search counters.

Every value below was recorded from det_nrc, rand_nrc and rand_local_search
on small seeded inputs: the decision, the certificate (one digit per node),
recursion_nodes and trials. A change that restructures or speeds up a
search without changing what it searches must leave all of them identical;
seeded rand runs must also keep every random draw in the same order.

det_nrc first sweeps every start's root and only then searches every start
at the full radius, so a colorable instance with a root certificate pins
that certificate with 1 node and 1 trial (planted, fallback), while an
uncolorable one pins the full pass alone.
"""
import pytest

from norainbow import COLORABLE, NOT_COLORABLE, derive_rng, det_nrc, rand_local_search, rand_nrc
from norainbow.instances import gen_complete, gen_planted

from test_det_solver import BRANCHY_UNSAT, FALLBACK_COLORING, FALLBACK_FROZEN, FALLBACK_HG

INSTANCES = {
    "branchy": BRANCHY_UNSAT,
    "planted": gen_planted(8, 12, 3, 7)[0],
    "complete73": gen_complete(7, 3),
    "fallback": FALLBACK_HG,
}

# instance -> (decision, certificate, recursion_nodes, trials)
DET = {
    "branchy": (NOT_COLORABLE, None, 166, 60),
    "planted": (COLORABLE, "12111131", 1, 1),
    "complete73": (NOT_COLORABLE, None, 105, 105),
    "fallback": (COLORABLE, "123111", 1, 1),
}

# (instance, master_seed) at alpha 1.5 -> as above
RAND = {
    ("branchy", 0): (NOT_COLORABLE, None, 343, 360),
    ("branchy", 1): (NOT_COLORABLE, None, 361, 360),
    ("branchy", 2): (NOT_COLORABLE, None, 361, 360),
    ("planted", 0): (COLORABLE, "12221322", 9, 4),
    ("planted", 1): (COLORABLE, "11212231", 44, 19),
    ("planted", 2): (COLORABLE, "12132232", 5, 2),
    ("complete73", 0): (NOT_COLORABLE, None, 0, 910),
    ("complete73", 1): (NOT_COLORABLE, None, 0, 910),
    ("complete73", 2): (NOT_COLORABLE, None, 0, 910),
    ("fallback", 0): (COLORABLE, "122322", 3, 2),
    ("fallback", 1): (COLORABLE, "123321", 2, 1),
    ("fallback", 2): (COLORABLE, "123111", 2, 1),
}

# rand_nrc(FALLBACK_HG, alpha=1.5, master_seed=i, one_subset_per_trial=True):
# the random subsets reach both the fallback step and, for seeds 3 and 12,
# the walk's completion exit
ONE_SUBSET = [
    (COLORABLE, "112233", 3, 2),
    (COLORABLE, "123321", 2, 1),
    (COLORABLE, "132331", 1, 1),
    (COLORABLE, "112113", 1, 1),
    (COLORABLE, "132332", 2, 1),
    (COLORABLE, "112332", 2, 1),
    (COLORABLE, "122113", 2, 1),
    (COLORABLE, "122113", 1, 1),
    (COLORABLE, "121223", 2, 1),
    (COLORABLE, "112233", 2, 1),
    (COLORABLE, "312333", 2, 1),
    (COLORABLE, "112213", 1, 1),
    (COLORABLE, "111213", 1, 1),
    (COLORABLE, "123222", 1, 1),
    (COLORABLE, "232123", 2, 1),
    (COLORABLE, "311213", 2, 1),
    (COLORABLE, "212123", 2, 1),
    (COLORABLE, "321223", 2, 1),
    (COLORABLE, "132232", 2, 1),
    (COLORABLE, "122323", 2, 1),
]

# rand_local_search from (FALLBACK_COLORING, FALLBACK_FROZEN) with
# derive_rng(i, 0, 0); the start is the gap state, so every walk's first
# step is the fallback
WALKS = [
    (COLORABLE, "123313", 2, 1),
    (NOT_COLORABLE, None, 2, 1),
    (COLORABLE, "123313", 2, 1),
    (COLORABLE, "122113", 2, 1),
    (NOT_COLORABLE, None, 2, 1),
    (COLORABLE, "122323", 2, 1),
    (COLORABLE, "121313", 2, 1),
    (COLORABLE, "122323", 2, 1),
]


def _counters(outcome):
    cert = outcome.certificate
    return (
        outcome.decision,
        None if cert is None else "".join(map(str, cert)),
        outcome.stats.recursion_nodes,
        outcome.stats.trials,
    )


@pytest.mark.parametrize("name", sorted(DET))
def test_det_counters_pinned(name):
    assert _counters(det_nrc(INSTANCES[name])) == DET[name]


@pytest.mark.parametrize("name, seed", sorted(RAND))
def test_rand_counters_pinned(name, seed):
    assert _counters(rand_nrc(INSTANCES[name], alpha=1.5, master_seed=seed)) == RAND[(name, seed)]


def test_rand_one_subset_counters_pinned():
    got = [
        _counters(rand_nrc(FALLBACK_HG, alpha=1.5, master_seed=seed, one_subset_per_trial=True))
        for seed in range(len(ONE_SUBSET))
    ]
    assert got == ONE_SUBSET


def test_walk_counters_pinned():
    got = [
        _counters(rand_local_search(FALLBACK_HG, FALLBACK_COLORING, FALLBACK_FROZEN, derive_rng(seed, 0, 0)))
        for seed in range(len(WALKS))
    ]
    assert got == WALKS
