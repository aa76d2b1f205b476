#!/usr/bin/env python3
"""Empirical success rate of the randomized solver versus its guarantee.

Sweeps the trial multiplier alpha on a corpus of planted (always colorable)
instances, compares the observed COLORABLE fraction against the 1 - 1/e^alpha
floor, and reports how many starts each success actually needed and the
time per walk evaluation (us/eval: rand_nrc's wall time over its
recursion_nodes, every state a walk evaluated, summed over the corpus).

Example:
    python scripts/success_rate.py --n 10 --m 15 --instances 50
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

from norainbow import rand_nrc
from norainbow.instances import gen_planted


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--m", type=int, default=15)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--alphas", default="1.1,1.5,2,3")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    corpus = [
        gen_planted(args.n, args.m, args.r, args.seed + i)[0] for i in range(args.instances)
    ]
    print(f"{args.instances} planted instances, n={args.n}, m={args.m}, r={args.r}")
    print(f"{'alpha':>6} {'floor':>7} {'observed':>9} {'mean starts':>12} {'max starts':>11} {'us/eval':>8}")
    for token in args.alphas.split(","):
        alpha = float(token)
        wins = evaluations = 0
        seconds = 0.0
        starts = []
        for i, hg in enumerate(corpus):
            t0 = time.perf_counter()
            out = rand_nrc(hg, alpha=alpha, master_seed=args.seed + i)
            seconds += time.perf_counter() - t0
            evaluations += out.stats.recursion_nodes
            wins += out.colorable
            if out.colorable:
                starts.append(out.stats.trials)
        floor = 1 - 2.718281828459045 ** (-alpha)
        observed = wins / len(corpus)
        mean_starts = statistics.mean(starts) if starts else float("nan")
        max_starts = max(starts) if starts else 0
        us_per_eval = seconds * 1e6 / evaluations if evaluations else float("nan")
        print(
            f"{alpha:>6.2f} {floor:>7.3f} {observed:>9.3f} {mean_starts:>12.1f} {max_starts:>11} {us_per_eval:>8.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
