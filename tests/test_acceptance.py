"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The shared corpora are module-scoped fixtures, so criteria that
audit the same runs (decisions, certificates, node bounds) reuse them.
"""
import itertools
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from norainbow import (
    COLORABLE,
    det_nrc,
    det_starts,
    is_no_rainbow_coloring,
    rand_nrc,
    search_radius,
    write_instance,
)
from norainbow.instances import gen_complete, gen_planted, gen_random
from norainbow.oracle import oracle_decide, oracle_verify_certificate
from norainbow.rand_solver import lockstep_walks

from reference import completion_exit, rand_local_search, witness_aligned_starts


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def det_corpus():
    """>=500 random r=3 and >=200 random r=4 instances with oracle reports
    and deterministic-solver outcomes."""
    rng = random.Random(20240817)
    records = []
    for i in range(500):
        n = rng.randint(3, 10)
        m = rng.randint(0, min(20, math.comb(n, 3)))
        hg = gen_random(n, m, 3, 1000 + i)
        records.append((hg, oracle_decide(hg), det_nrc(hg)))
    for i in range(200):
        n = rng.randint(4, 10)
        m = rng.randint(0, min(20, math.comb(n, 4)))
        hg = gen_random(n, m, 4, 2000 + i)
        records.append((hg, oracle_decide(hg), det_nrc(hg)))
    return records


@pytest.fixture(scope="module")
def planted_runs():
    """100 planted r=3 n=10 m=15 instances solved by rand_nrc at alpha=3."""
    runs = []
    for i in range(100):
        hg, witness = gen_planted(10, 15, 3, 3000 + i)
        runs.append((hg, witness, rand_nrc(hg, alpha=3.0, master_seed=3000 + i)))
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_c1_oracle_equivalence_det(det_corpus):
    mismatches = [
        (hg.n, hg.m, hg.r)
        for hg, report, outcome in det_corpus
        if report.decision != outcome.decision
    ]
    _report(
        "C1 oracle equivalence (det)",
        not mismatches,
        f"{len(det_corpus)} instances (500 r=3, 200 r=4), {len(mismatches)} mismatches",
    )


def test_c2_certificate_soundness(det_corpus, planted_runs):
    bad = 0
    checked = 0
    for hg, _, outcome in det_corpus:
        if outcome.colorable:
            checked += 1
            bad += not oracle_verify_certificate(hg, outcome.certificate)
    for hg, _, outcome in planted_runs:
        if outcome.colorable:
            checked += 1
            bad += not oracle_verify_certificate(hg, outcome.certificate)
    # the walk's completion exit, on random starts whose first step takes it
    rng = random.Random(5150)
    completions = 0
    while completions < 200:
        r = rng.choice([3, 4])
        n = rng.randint(r, 9)
        hg = gen_random(n, rng.randint(0, min(10, math.comb(n, r))), r, rng.randrange(10**6))
        frozen = set(rng.sample(range(n), r))
        coloring = [rng.randint(1, r) for _ in range(n)]
        for color, v in enumerate(sorted(frozen), start=1):
            coloring[v] = color
        expected = completion_exit(hg, coloring, frozen)
        if expected is None:
            continue
        completions += 1
        checked += 1
        certificate = rand_local_search(hg, coloring, frozen, np.random.default_rng(0)).certificate
        bad += certificate != expected or not oracle_verify_certificate(hg, certificate)
    _report(
        "C2 certificate soundness",
        bad == 0,
        f"{checked} certificates verified, {bad} failures (zero tolerance)",
    )


def test_c3_branching_bound(det_corpus):
    over = 0
    fallback_total = 0
    for hg, _, outcome in det_corpus:
        if hg.n < hg.r:
            continue
        g = search_radius(hg.n, hg.r)
        bound = sum((hg.r - 1) ** i for i in range(g + 1))
        if outcome.stats.max_start_nodes > bound:
            over += 1
        fallback_total += outcome.stats.fallback_nodes
    _report(
        "C3 branching bound",
        over == 0,
        f"per-start nodes <= sum_i (r-1)^i on all instances; {over} violations, "
        f"{fallback_total} fallback expansions (reported separately)",
    )


def test_c4_initial_pair_count():
    bad = []
    for r in (3, 4, 5):
        for n in range(r, 13):
            got = sum(1 for _ in det_starts(n, r))
            want = math.comb(n - 1, r - 1) * r
            if got != want:
                bad.append((n, r, got, want))
    _report(
        "C4 start count",
        not bad,
        f"C(n-1,r-1)*r exact for r in 3..5, n <= 12; deviations: {bad}",
    )


def test_c5_randomized_global_guarantee(planted_runs):
    wins = sum(1 for _, _, outcome in planted_runs if outcome.colorable)
    _report(
        "C5 randomized global guarantee",
        wins >= 90,
        f"{wins}/100 planted instances decided COLORABLE at alpha=3 (need >= 90)",
    )


def test_c6_walk_success_lower_bound():
    details = []
    ok = True
    for n, m in ((6, 8), (7, 10), (8, 12)):
        hg, witness = gen_planted(n, m, 3, 4000 + n)
        streams = 10_000
        rng = np.random.default_rng(np.random.SeedSequence(777, spawn_key=(n,)))
        walks = lockstep_walks(hg, *witness_aligned_starts(witness, 3, streams, rng), [rng])
        freq = walks.certified.sum() / streams
        floor = 0.8 * (2 / 3) ** n
        ok &= freq >= floor
        details.append(f"n={n}: {freq:.4f} >= {floor:.4f}")
    _report("C6 walk success lower bound", ok, "; ".join(details))


def test_c7_one_sided_error_on_complete_family():
    pairs = [(3, n) for n in range(3, 13)] + [(4, n) for n in range(4, 13)]
    refill = [(r, n) for r, n in pairs if n <= 9]
    runs = pairs + list(itertools.islice(itertools.cycle(refill), 50 - len(pairs)))
    assert len(runs) == 50
    colorable = 0
    for k, (r, n) in enumerate(runs):
        hg = gen_complete(n, r)
        colorable += det_nrc(hg).decision == COLORABLE
        colorable += rand_nrc(hg, alpha=1.5, master_seed=100 + k).decision == COLORABLE
    _report(
        "C7 one-sided error",
        colorable == 0,
        f"50 complete instances x 2 solvers, {colorable} COLORABLE outputs (must be 0)",
    )


def test_c8_reproducibility_byte_identical(tmp_path):
    planted_hg, _ = gen_planted(8, 12, 3, 7)
    ppath = tmp_path / "p.nrc"
    ppath.write_text(write_instance(planted_hg))
    c54 = tmp_path / "c54.nrc"
    c54.write_text(write_instance(gen_complete(5, 4)))
    cert = tmp_path / "cert.txt"
    first = subprocess.run(
        [sys.executable, "-m", "norainbow.cli", "solve", str(ppath)], capture_output=True
    )
    cert.write_bytes(first.stdout)
    # (argv, expected exit code): a run that fails the same way twice is
    # reproducible but proves nothing
    commands = [
        (["solve", str(ppath), "--algo", "det"], 10),
        (["solve", str(ppath), "--algo", "rand", "--seed", "7", "--alpha", "2.5"], 10),
        (["solve", str(ppath), "--algo", "oracle"], 10),
        (["oracle", str(ppath)], 10),
        (["gen", "planted", "--n", "9", "--r", "3", "--m", "10", "--seed", "3"], 0),
        (["decisive", str(c54)], 30),
        (["verify", str(ppath), str(cert)], 0),
    ]
    diffs = 0
    bad_exits = [] if first.returncode == 10 else [("solve", first.returncode)]
    for argv, expected in commands:
        cmd = [sys.executable, "-m", "norainbow.cli", *argv]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        diffs += (a.stdout, a.stderr, a.returncode) != (b.stdout, b.stderr, b.returncode)
        if a.returncode != expected:
            bad_exits.append((argv[0], a.returncode))
    _report(
        "C8 reproducibility",
        diffs == 0 and not bad_exits,
        f"{len(commands)} CLI invocations run twice, {diffs} with differing bytes; "
        f"unexpected exit codes {bad_exits}",
    )


def test_c9_differential_predicates():
    rng = random.Random(31337)
    disagreements = 0
    for _ in range(10_000):
        r = rng.choice([2, 3, 4, 5])
        n = rng.randint(r, 9)
        m = rng.randint(0, min(12, math.comb(n, r)))
        hg = gen_random(n, m, r, rng.randrange(10**6))
        coloring = [rng.randint(1, r) for _ in range(n)]
        disagreements += is_no_rainbow_coloring(hg, coloring) != oracle_verify_certificate(
            hg, coloring
        )
    perm_breaks = 0
    for _ in range(1_000):
        r = rng.choice([3, 4])
        n = rng.randint(r, 9)
        m = rng.randint(0, min(12, math.comb(n, r)))
        hg = gen_random(n, m, r, rng.randrange(10**6))
        coloring = [rng.randint(1, r) for _ in range(n)]
        perm = list(range(1, r + 1))
        rng.shuffle(perm)
        permuted = [perm[c - 1] for c in coloring]
        perm_breaks += is_no_rainbow_coloring(hg, coloring) != is_no_rainbow_coloring(
            hg, permuted
        )
    _report(
        "C9 differential predicates",
        disagreements == 0 and perm_breaks == 0,
        f"10000 (H,c) pairs: {disagreements} disagreements; "
        f"1000 color permutations: {perm_breaks} invariance breaks",
    )
