"""Pinned search counters.

Every value below was recorded from det_nrc, rand_nrc and lockstep_walks
on small seeded inputs: the decision, the certificate (one digit per node),
recursion_nodes and trials. A change that restructures or speeds up a
search without changing what it searches must leave all of them identical;
seeded rand runs must also keep every random draw in the same order.

det_nrc searches only the C(n-1, r-1) * r starts whose subset holds node
0. It first sweeps their roots and only then searches them, with the
restricted-growth caps, to the radius less r - 1, so a colorable instance
with a root certificate pins that certificate with 1 node and 1 trial
(planted, fallback), while an uncolorable one pins the second pass alone,
over those starts less the ones it skips (5 of branchy's 30 and 12 of
complete73's 45). No root of shadow32 or free-shadow24 certifies; searched
without caps, to the full radius, they count 50,854 and 139,899 nodes.

rand_nrc runs every walk of a round to its exit and counts all C(n, r)
subsets of each round it runs as trials, so its trials are a multiple of
C(n, r) and its certificate is the lowest certified subset index of the
first round that has one.
"""
import pytest

import numpy as np

from norainbow import COLORABLE, NOT_COLORABLE, det_nrc, rand_nrc
from norainbow.rand_solver import lockstep_walks
from norainbow.instances import gen_complete, gen_planted, gen_shadow

from test_det_solver import BRANCHY_UNSAT, FALLBACK_COLORING, FALLBACK_FROZEN, FALLBACK_HG

INSTANCES = {
    "branchy": BRANCHY_UNSAT,
    "planted": gen_planted(8, 12, 3, 7)[0],
    "complete73": gen_complete(7, 3),
    "fallback": FALLBACK_HG,
    "planted75": gen_planted(7, 5, 3, 5)[0],
    "planted718": gen_planted(7, 18, 3, 17)[0],
    "shadow32": gen_shadow(32, 3, 0)[0],
    "free-shadow24": gen_shadow(24, 3, 0, planted=False)[0],
}

# instance -> (decision, certificate, recursion_nodes, trials)
DET = {
    "branchy": (NOT_COLORABLE, None, 33, 25),
    "planted": (COLORABLE, "12111131", 1, 1),
    "complete73": (NOT_COLORABLE, None, 33, 33),
    "fallback": (COLORABLE, "123111", 1, 1),
    "shadow32": (COLORABLE, "11213111113232122313332123231132", 12468, 84),
    "free-shadow24": (NOT_COLORABLE, None, 11927, 598),
}

# (instance, master_seed) at alpha 1.5 -> as above; ("planted718", 0) wins
# in its fourth round, where the walks from subsets 4 and 15 both certify
RAND = {
    ("branchy", 0): (NOT_COLORABLE, None, 359, 360),
    ("branchy", 1): (NOT_COLORABLE, None, 358, 360),
    ("branchy", 2): (NOT_COLORABLE, None, 365, 360),
    ("planted", 0): (COLORABLE, "12221322", 144, 56),
    ("planted", 1): (COLORABLE, "12111231", 140, 56),
    ("planted", 2): (COLORABLE, "12221312", 132, 56),
    ("complete73", 0): (NOT_COLORABLE, None, 0, 910),
    ("complete73", 1): (NOT_COLORABLE, None, 0, 910),
    ("complete73", 2): (NOT_COLORABLE, None, 0, 910),
    ("fallback", 0): (COLORABLE, "123223", 27, 20),
    ("fallback", 1): (COLORABLE, "123222", 29, 20),
    ("fallback", 2): (COLORABLE, "123222", 31, 20),
    ("planted75", 2): (COLORABLE, "1232121", 70, 35),
    ("planted718", 0): (COLORABLE, "1222231", 165, 140),
}

# lockstep_walks from eight rows of (FALLBACK_COLORING, FALLBACK_FROZEN)
# with default_rng(0): (certificate, evaluations) per row. The start is the
# gap state, so every walk's first step is the fallback
WALKS = [
    ("122323", 2),
    ("122213", 2),
    ("122213", 2),
    ("123313", 2),
    ("123313", 2),
    ("123313", 2),
    ("123313", 2),
    ("123313", 2),
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


def test_walk_counters_pinned():
    colors = np.tile(FALLBACK_COLORING, (len(WALKS), 1))
    frozen = np.zeros(colors.shape, dtype=bool)
    frozen[:, sorted(FALLBACK_FROZEN)] = True
    walks = lockstep_walks(FALLBACK_HG, colors, frozen, [np.random.default_rng(0)])
    got = [
        ("".join(map(str, row)) if ok else None, int(evaluations))
        for row, ok, evaluations in zip(walks.colors, walks.certified, walks.evaluations)
    ]
    assert got == WALKS
