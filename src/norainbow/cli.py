"""Command-line front end: solve, oracle, gen, verify, decisive, bench.

Output follows the SAT-solver convention of "s <DECISION>" lines plus
"v <colors...>" certificate lines, with distinct exit codes per decision
(10 colorable, 20 uncolorable, 30 decisive, 31 not decisive, 1 error) so
existing harness tooling can drive the binary.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from pathlib import Path
from typing import Optional

from .det_solver import det_nrc
from .hypergraph import (
    COLORABLE,
    Hypergraph,
    ParseError,
    format_certificate,
    parse_certificate,
    parse_instance,
    write_instance,
)
from .instances import InstanceSpec, planted_comment
from .oracle import oracle_decide, oracle_verify_certificate
from .rand_solver import DEFAULT_TRIAL_CAP, rand_nrc

EXIT_COLORABLE = 10
EXIT_UNCOLORABLE = 20
EXIT_DECISIVE = 30
EXIT_NOT_DECISIVE = 31
EXIT_ERROR = 1

CSV_HEADER = [
    "instance",
    "n",
    "m",
    "r",
    "algo",
    "seed",
    "alpha",
    "decision",
    "recursion_nodes",
    "trials",
    "elapsed_ms",
    "error",
]


def _read_instance(path: str) -> Hypergraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_instance(text)


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _solve_with(hg: Hypergraph, args) -> tuple[str, Optional[list[int]], object]:
    """Run the chosen decider; returns (decision, certificate, stats)."""
    if args.algo == "det":
        outcome = det_nrc(hg, workers=args.threads)
        return outcome.decision, outcome.certificate, outcome.stats
    if args.algo == "rand":
        outcome = rand_nrc(hg, alpha=args.alpha, master_seed=args.seed, cap=args.trial_cap, workers=args.threads)
        return outcome.decision, outcome.certificate, outcome.stats
    report = oracle_decide(hg, budget=args.budget)
    return report.decision, report.sample_witness, None


def cmd_solve(args) -> int:
    hg = _read_instance(args.path)
    decision, certificate, stats = _solve_with(hg, args)
    if args.stats and stats is not None:
        print(
            f"c stats nodes={stats.recursion_nodes} fallback={stats.fallback_nodes} "
            f"trials={stats.trials} ms={stats.elapsed * 1000:.3f}"
        )
    if decision == COLORABLE:
        if certificate is None or not oracle_verify_certificate(hg, certificate):
            print("error: certificate failed independent verification", file=sys.stderr)
            return EXIT_ERROR
        print("s COLORABLE")
        print(format_certificate(certificate))
        return EXIT_COLORABLE
    print("s UNCOLORABLE")
    return EXIT_UNCOLORABLE


def cmd_oracle(args) -> int:
    hg = _read_instance(args.path)
    report = oracle_decide(hg, budget=args.budget)
    print(f"c witnesses {report.witness_count}")
    if report.decision == COLORABLE:
        assert report.sample_witness is not None
        if not oracle_verify_certificate(hg, report.sample_witness):
            print("error: certificate failed independent verification", file=sys.stderr)
            return EXIT_ERROR
        print("s COLORABLE")
        print(format_certificate(report.sample_witness))
        return EXIT_COLORABLE
    print("s UNCOLORABLE")
    return EXIT_UNCOLORABLE


def cmd_gen(args) -> int:
    spec = InstanceSpec(args.family, args.n, args.r, args.m, args.seed)
    hg, witness = spec.generate()
    text = write_instance(hg)
    if witness is not None:
        text = planted_comment(witness) + "\n" + text
    _write_output(text, args.output)
    return 0


def cmd_verify(args) -> int:
    hg = _read_instance(args.instance)
    cert_text = sys.stdin.read() if args.certificate == "-" else Path(args.certificate).read_text()
    coloring = None
    for line in cert_text.splitlines():
        if line.split()[:1] == ["v"]:
            coloring = parse_certificate(line)
            break
    if coloring is None:
        print("error: no 'v' certificate line found", file=sys.stderr)
        return EXIT_ERROR
    if len(coloring) != hg.n:
        print(f"error: certificate has {len(coloring)} colors, instance has {hg.n} nodes", file=sys.stderr)
        return EXIT_ERROR
    if oracle_verify_certificate(hg, coloring):
        print("s VALID")
        return 0
    print("s INVALID")
    return EXIT_ERROR


def cmd_decisive(args) -> int:
    hg = _read_instance(args.path)
    if hg.r != 4:
        print(f"error: decisiveness needs a 4-uniform instance, got r={hg.r}", file=sys.stderr)
        return EXIT_ERROR
    decision, certificate, _ = _solve_with(hg, args)
    if decision == COLORABLE:
        assert certificate is not None
        if not oracle_verify_certificate(hg, certificate):
            print("error: certificate failed independent verification", file=sys.stderr)
            return EXIT_ERROR
        print("s NOT-DECISIVE")
        print(format_certificate(certificate))
        return EXIT_NOT_DECISIVE
    if args.algo == "rand":
        print("c note: randomized decider; DECISIVE is a one-sided claim")
    print("s DECISIVE")
    return EXIT_DECISIVE


# ---------------------------------------------------------------------------
# benchmark harness


def expand_corpus_token(token: str) -> list[tuple[str, Hypergraph]]:
    """A corpus token is either an instance file path or a generator spec
    like 'complete:r=3,n=6..12' / 'planted:n=10,m=15,r=3,seed=4' (only n
    may be a lo..hi range)."""
    family = token.split(":", 1)[0]
    if ":" in token and family in {"random", "planted", "complete"}:
        fields = {}
        for item in token.split(":", 1)[1].split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"bad corpus spec field {item!r} in {token!r}")
            fields[key.strip()] = value.strip()
        unknown = set(fields) - {"n", "m", "r", "seed"}
        if unknown:
            raise ValueError(f"unknown corpus spec keys {sorted(unknown)} in {token!r}")
        if "n" not in fields or "r" not in fields:
            raise ValueError(f"corpus spec {token!r} needs at least n and r")
        if ".." in fields["n"]:
            lo, hi = fields["n"].split("..", 1)
            n_values = range(int(lo), int(hi) + 1)
            if not n_values:
                raise ValueError(f"empty n range {fields['n']!r} in {token!r}")
        else:
            n_values = [int(fields["n"])]
        out = []
        for n in n_values:
            spec = InstanceSpec(
                family,
                n,
                int(fields["r"]),
                int(fields.get("m", 0)),
                int(fields.get("seed", 0)),
            )
            hg, _ = spec.generate()
            out.append((spec.instance_id(), hg))
        return out
    return [(token, _read_instance(token))]


def _bench_row(instance_id, hg, algo, seed, alpha, args) -> list:
    row = {
        "instance": instance_id,
        "n": hg.n,
        "m": hg.m,
        "r": hg.r,
        "algo": algo,
        "seed": seed,
        "alpha": alpha if algo == "rand" else "",
        "decision": "",
        "recursion_nodes": "",
        "trials": "",
        "elapsed_ms": "",
        "error": "",
    }
    t0 = time.perf_counter()
    try:
        if algo in ("det", "rand"):
            if algo == "det":
                outcome = det_nrc(hg, workers=args.threads)
            else:
                outcome = rand_nrc(hg, alpha=alpha, master_seed=seed, cap=args.trial_cap, workers=args.threads)
            row["decision"] = outcome.decision
            row["recursion_nodes"] = outcome.stats.recursion_nodes
            row["trials"] = outcome.stats.trials
            row["elapsed_ms"] = f"{outcome.stats.elapsed * 1000:.3f}"
        elif algo == "oracle":
            report = oracle_decide(hg, budget=args.budget)
            row["decision"] = report.decision
            row["recursion_nodes"] = hg.r**hg.n  # colorings enumerated
            row["trials"] = report.witness_count
            row["elapsed_ms"] = f"{(time.perf_counter() - t0) * 1000:.3f}"
        else:
            raise ValueError(f"unknown algo {algo!r}")
    except (ValueError, RuntimeError) as exc:
        row["error"] = str(exc)
        row["elapsed_ms"] = f"{(time.perf_counter() - t0) * 1000:.3f}"
    return [row[k] for k in CSV_HEADER]


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo not in {"det", "rand", "oracle"}:
            raise ValueError(f"unknown algo {algo!r}; choose from det, rand, oracle")
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    corpus: list[tuple[str, Hypergraph]] = []
    for token in args.corpus:
        corpus.extend(expand_corpus_token(token))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for instance_id, hg in corpus:
        for algo in algos:
            for rep in range(args.reps):
                seed = args.seed + rep
                writer.writerow(_bench_row(instance_id, hg, algo, seed, args.alpha, args))
    _write_output(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_solver_options(p: argparse.ArgumentParser, default_algo: str = "det") -> None:
    p.add_argument("--algo", choices=["det", "rand", "oracle"], default=default_algo)
    p.add_argument("--alpha", type=float, default=2.0, help="trial multiplier for rand (> 1)")
    p.add_argument("--seed", type=int, default=0, help="master seed for rand")
    p.add_argument("--threads", type=int, default=1, help="parallel workers (1 = reproducible stats)")
    p.add_argument("--trial-cap", type=int, default=DEFAULT_TRIAL_CAP, help="refuse rand runs needing more trials")
    p.add_argument("--budget", type=int, default=None, help="oracle enumeration budget (colorings)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance and print a certificate")
    p.add_argument("path", help="instance file, or - for stdin")
    _add_solver_options(p)
    p.add_argument("--stats", action="store_true", help="print a 'c stats ...' line")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive count of no-rainbow colorings")
    p.add_argument("path")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("family", choices=["random", "planted", "complete"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("instance")
    p.add_argument("certificate", help="file with a 'v ...' line, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decisive", help="phylogenetic decisiveness view of an r=4 instance")
    p.add_argument("path")
    _add_solver_options(p)
    p.set_defaults(func=cmd_decisive)

    p = sub.add_parser("bench", help="run a corpus and emit CSV records")
    p.add_argument("corpus", nargs="+", help="instance paths or family:k=v,... specs")
    p.add_argument("--algos", default="det", help="comma list from det,rand,oracle")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trial-cap", type=int, default=DEFAULT_TRIAL_CAP)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
