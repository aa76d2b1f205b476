#!/usr/bin/env python3
"""Scaling sweep for the deterministic solver.

For each n in a range, generates a batch of random instances at edge
density m = round(density * n), solves each with det_nrc (and the oracle
when it fits the budget), and reports mean search-tree size against the
worst-case bound sum_i (r-1)^i with g = floor((r-1)n/r). Emits one CSV row
per instance, with the time per search node (us_per_node) beside the node
counts and the starts searched beside det's start set, C(n-1, r-1) * r
(start_bound), which an uncolorable instance searches in full but for the
starts det skips, those with more forced nodes than its radius.

Example:
    python scripts/scaling_bench.py --r 3 --n-min 6 --n-max 14 --per-n 10 -o scaling.csv
"""
from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
import time

from norainbow import det_nrc, search_radius
from norainbow.det_solver import start_count
from norainbow.instances import gen_random
from norainbow.oracle import oracle_decide


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--n-min", type=int, default=6)
    ap.add_argument("--n-max", type=int, default=14)
    ap.add_argument("--per-n", type=int, default=10, help="instances per size")
    ap.add_argument("--density", type=float, default=2.5, help="edges per node")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    rows = [["n", "m", "r", "seed", "decision", "recursion_nodes", "max_start_nodes",
             "starts", "start_bound", "per_start_bound", "elapsed_ms", "us_per_node", "oracle_agrees"]]
    print(f"{'n':>3} {'m':>4} {'mean nodes':>12} {'max start':>10} {'per-start bound':>15} {'mean ms':>9}")
    for n in range(args.n_min, args.n_max + 1):
        m = min(round(args.density * n), math.comb(n, args.r))
        g = search_radius(n, args.r)
        # the (r-1)-ary tree bound holds per start, not summed over starts
        bound = sum((args.r - 1) ** i for i in range(g + 1))
        nodes, per_start, times = [], [], []
        for k in range(args.per_n):
            seed = args.seed * 10_000 + n * 100 + k
            hg = gen_random(n, m, args.r, seed)
            t0 = time.perf_counter()
            out = det_nrc(hg)
            dt = (time.perf_counter() - t0) * 1000
            try:
                agrees = str(oracle_decide(hg).decision == out.decision)
            except ValueError:  # over the oracle's budget
                agrees = ""
            nodes.append(out.stats.recursion_nodes)
            per_start.append(out.stats.max_start_nodes)
            times.append(dt)
            rows.append(
                [n, m, args.r, seed, out.decision, out.stats.recursion_nodes,
                 out.stats.max_start_nodes, out.stats.trials, start_count(n, args.r), bound, f"{dt:.3f}",
                 f"{dt * 1000 / out.stats.recursion_nodes:.3f}", agrees]
            )
        print(
            f"{n:>3} {m:>4} {statistics.mean(nodes):>12.1f} {max(per_start):>10} "
            f"{bound:>15} {statistics.mean(times):>9.2f}"
        )

    out = open(args.output, "w", newline="") if args.output else sys.stdout
    csv.writer(out, lineterminator="\n").writerows(rows)
    if args.output:
        out.close()
        print(f"wrote {len(rows) - 1} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
