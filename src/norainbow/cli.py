"""Command-line front end: solve, oracle, gen, verify, decisive, bench.

Output follows the SAT-solver convention of "s <DECISION>" lines plus
"v <colors...>" certificate lines, with distinct exit codes per decision
(10 colorable, 20 uncolorable, 30 decisive, 31 not decisive, 1 error) so
existing harness tooling can drive the binary.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time
from pathlib import Path
from typing import Iterable, Optional

from .det_solver import det_nrc
from .hypergraph import (
    COLORABLE,
    Hypergraph,
    ParseError,
    SearchStats,
    format_certificate,
    parse_certificate,
    parse_instance,
    write_instance,
)
from .instances import FAMILIES, InstanceSpec, planted_comment
from .oracle import DEFAULT_BUDGET, oracle_decide, oracle_verify_certificate
from .rand_solver import DEFAULT_ALPHA, DEFAULT_TRIAL_CAP, rand_nrc

ALGOS = ("det", "rand", "oracle")
EXIT_ERROR = 1
EXIT_CODES = {"COLORABLE": 10, "UNCOLORABLE": 20, "DECISIVE": 30, "NOT-DECISIVE": 31}

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


def _read_text(path: str) -> str:
    """The file at path, or stdin for -, decoded as UTF-8 whatever the locale."""
    return (sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()).decode("utf-8")


def _read_instance(path: str) -> Hypergraph:
    return parse_instance(_read_text(path))


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _solve_with(hg: Hypergraph, algo: str, args, seed: int) -> tuple[str, Optional[list[int]], SearchStats]:
    """Run one decider; returns (decision, certificate, stats). The oracle's
    stats count each of the r^n colorings it decides as a node and each
    witness as a trial."""
    if algo == "det":
        outcome = det_nrc(hg, workers=args.threads)
    elif algo == "rand":
        outcome = rand_nrc(hg, alpha=args.alpha, master_seed=seed, cap=args.trial_cap, workers=args.threads)
    else:
        report = oracle_decide(hg, budget=args.budget)
        stats = SearchStats(recursion_nodes=hg.r**hg.n, trials=report.witness_count)
        return report.decision, report.sample_witness, stats
    return outcome.decision, outcome.certificate, outcome.stats


def _answer(hg: Hypergraph, decision: str, certificate: Optional[list[int]], yes: str, no: str) -> int:
    """Print `s <yes>` and the certificate when the decision is COLORABLE,
    else `s <no>`, and return that answer's exit code. A certificate that
    fails the independent check raises instead, before any `s` line."""
    if decision != COLORABLE:
        print(f"s {no}")
        return EXIT_CODES[no]
    if certificate is None or not oracle_verify_certificate(hg, certificate):
        raise RuntimeError("certificate failed independent verification")
    print(f"s {yes}")
    print(format_certificate(certificate))
    return EXIT_CODES[yes]


def cmd_solve(args) -> int:
    hg = _read_instance(args.path)
    t0 = time.perf_counter()
    decision, certificate, stats = _solve_with(hg, args.algo, args, args.seed)
    if args.stats:
        print(
            f"c stats nodes={stats.recursion_nodes} fallback={stats.fallback_nodes} "
            f"trials={stats.trials} ms={(time.perf_counter() - t0) * 1000:.3f}"
        )
    return _answer(hg, decision, certificate, "COLORABLE", "UNCOLORABLE")


def cmd_oracle(args) -> int:
    hg = _read_instance(args.path)
    decision, certificate, stats = _solve_with(hg, "oracle", args, 0)
    print(f"c witnesses {stats.trials}")
    return _answer(hg, decision, certificate, "COLORABLE", "UNCOLORABLE")


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
    coloring = None
    for line in _read_text(args.certificate).splitlines():
        if line.split()[:1] == ["v"]:
            coloring = parse_certificate(line)
            break
    if coloring is None:
        raise ValueError("no 'v' certificate line found")
    if oracle_verify_certificate(hg, coloring):
        print("s VALID")
        return 0
    print("s INVALID")
    return EXIT_ERROR


def cmd_decisive(args) -> int:
    hg = _read_instance(args.path)
    if hg.r != 4:
        raise ValueError(f"decisiveness needs a 4-uniform instance, got r={hg.r}")
    decision, certificate, _ = _solve_with(hg, args.algo, args, args.seed)
    if decision != COLORABLE and args.algo == "rand":
        print("c note: randomized decider; DECISIVE is a one-sided claim")
    return _answer(hg, decision, certificate, "NOT-DECISIVE", "DECISIVE")


# ---------------------------------------------------------------------------
# benchmark harness


def expand_corpus_token(token: str) -> list[tuple[str, Hypergraph]]:
    """A corpus token is a generator spec, read by InstanceSpec.parse, when
    its text before the first ':' is one of FAMILIES; else an instance file path."""
    if ":" in token and token.split(":", 1)[0] in FAMILIES:
        return [(spec.instance_id(), spec.generate()[0]) for spec in InstanceSpec.parse(token)]
    return [(token, _read_instance(token))]


def _bench_row(instance_id: str, hg: Hypergraph, algo: str, seed: int, args) -> list:
    t0 = time.perf_counter()
    try:
        decision, _, stats = _solve_with(hg, algo, args, seed)
        outcome, error = [decision, stats.recursion_nodes, stats.trials], ""
    except (ValueError, RuntimeError) as exc:
        outcome, error = ["", "", ""], str(exc)
    ms = f"{(time.perf_counter() - t0) * 1000:.3f}"
    return [instance_id, hg.n, hg.m, hg.r, algo, seed, args.alpha if algo == "rand" else "", *outcome, ms, error]


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError(f"--algos {args.algos!r} names no algo; choose from {', '.join(ALGOS)}")
    for algo in algos:
        if algo not in ALGOS:
            raise ValueError(f"unknown algo {algo!r}; choose from {', '.join(ALGOS)}")
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    for algo in algos:
        # every decider refuses a bad option on any input and answers n < r at once: any error is an option error
        _solve_with(Hypergraph(0, 2), algo, args, args.seed)
    corpus: list[tuple[str, Hypergraph]] = []
    for token in args.corpus:
        corpus.extend(expand_corpus_token(token))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for instance_id, hg in corpus:
        for algo in algos:
            for rep in range(args.reps):
                writer.writerow(_bench_row(instance_id, hg, algo, args.seed + rep, args))
    _write_output(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# argparse keywords of each option a decider reads, in --help order
SOLVER_OPTIONS = {
    "--algo": dict(choices=ALGOS, default="det"),
    "--alpha": dict(type=float, default=DEFAULT_ALPHA, help="trial multiplier for rand (> 1)"),
    "--seed": dict(type=int, default=0, help="master seed for rand"),
    "--threads": dict(type=int, default=1, help="parallel workers (1 = reproducible stats)"),
    "--trial-cap": dict(type=int, default=DEFAULT_TRIAL_CAP, help="refuse rand runs needing more trials"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET, help="oracle enumeration budget (colorings)"),
}


def _add_solver_options(p: argparse.ArgumentParser, flags: Iterable[str] = SOLVER_OPTIONS) -> None:
    for flag in flags:
        p.add_argument(flag, **SOLVER_OPTIONS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nrc parser, built once per process and shared by every main call;
    the handlers and option defaults are bound at that first build."""
    parser = argparse.ArgumentParser(prog="nrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance and print a certificate")
    p.add_argument("path", help="instance file, or - for stdin")
    _add_solver_options(p)
    p.add_argument("--stats", action="store_true", help="print a 'c stats ...' line")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive count of no-rainbow colorings")
    p.add_argument("path")
    _add_solver_options(p, ["--budget"])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("family", choices=FAMILIES)
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
    _add_solver_options(p, [flag for flag in SOLVER_OPTIONS if flag != "--algo"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:  # every command that takes --threads
            raise ValueError(f"workers must be >= 1, got {args.threads}")
        return args.func(args)
    except (ParseError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
