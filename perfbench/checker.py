"""Output checks that do not import the package under test.

Everything here re-states the problem from its definition: its own
instance parser, a naive certificate validator, and a chunked brute-force
witness counter. A solve is checked against these, never against the
package's own predicates.
"""
from __future__ import annotations

import itertools

import numpy as np

EXIT_FOR_DECISION = {
    "COLORABLE": 10,
    "UNCOLORABLE": 20,
    "DECISIVE": 30,
    "NOT-DECISIVE": 31,
}


def read_instance(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(n, r, edges) from instance text; edges 0-indexed, duplicates dropped."""
    n = r = None
    edges: set[tuple[int, ...]] = set()
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            n, r = int(tokens[2]), int(tokens[4])
            continue
        edges.add(tuple(sorted(int(t) - 1 for t in tokens)))
    if n is None:
        raise ValueError("instance has no header")
    return n, r, sorted(edges)


def certificate_problem(n: int, r: int, edges, coloring: list[int]) -> str | None:
    """None if the coloring is a surjective no-rainbow r-coloring, else why not."""
    if len(coloring) != n:
        return f"certificate has {len(coloring)} colors for {n} nodes"
    if any(not 1 <= c <= r for c in coloring):
        return "certificate uses a color outside 1..r"
    if len(set(coloring)) != r:
        return "certificate does not use every color"
    for e in edges:
        if len({coloring[v] for v in e}) == r:
            return f"edge {[v + 1 for v in e]} is rainbow"
    return None


def count_witnesses(n: int, r: int, edges, chunk: int = 1 << 16) -> int:
    """Number of surjective no-rainbow colorings, by enumerating all r^n.

    A color is a bit; an edge is rainbow when the OR of its nodes' bits has
    all r bits set. Rows are built in chunks so memory stays small.
    """
    if n < r:
        return 0
    full = (1 << r) - 1
    # the last k nodes vary inside a chunk, the first n-k across chunks
    k = min(n, max(1, int(np.log(chunk) / np.log(r))))
    tail = np.array(list(itertools.product(range(r), repeat=k)), dtype=np.uint8)
    tail_bits = (np.uint8(1) << tail).astype(np.uint8)
    total = 0
    for head in itertools.product(range(r), repeat=n - k):
        head_bits = [np.uint8(1 << c) for c in head]

        def column(v):
            return head_bits[v] if v < n - k else tail_bits[:, v - (n - k)]

        seen = np.zeros(len(tail), dtype=np.uint8)
        for v in range(n):
            seen |= column(v)
        ok = seen == full
        for e in edges:
            bits = np.zeros(len(tail), dtype=np.uint8)
            for v in e:
                bits |= column(v)
            ok &= bits != full
        total += int(ok.sum())
    return total


def parse_output(text: str) -> dict:
    """The s line, the v line and the counters of one nrc run's stdout."""
    out: dict = {"decision": None, "coloring": None, "counters": {}}
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["s"] and len(tokens) == 2:
            out["decision"] = tokens[1]
        elif tokens[:1] == ["v"]:
            out["coloring"] = [int(t) for t in tokens[1:]]
        elif tokens[:2] == ["c", "stats"]:
            for item in tokens[2:]:
                key, _, value = item.partition("=")
                if key in ("nodes", "fallback", "trials"):
                    out["counters"][key] = int(value)
        elif tokens[:2] == ["c", "witnesses"]:
            out["counters"]["witnesses"] = int(tokens[2])
    return out


def check_run(code: int, text: str, instance, expected: str | None) -> tuple[dict, list[str]]:
    """Check one nrc run: exit code against its s line, certificate against
    the instance, decision against the expected one. Returns the parsed
    output and the list of problems found (empty when correct)."""
    n, r, edges = instance
    out = parse_output(text)
    problems = []
    decision = out["decision"]
    if decision is None:
        problems.append(f"no s line (exit {code})")
        return out, problems
    if EXIT_FOR_DECISION.get(decision) != code:
        problems.append(f"exit code {code} does not match s {decision}")
    needs_certificate = decision in ("COLORABLE", "NOT-DECISIVE")
    if needs_certificate and out["coloring"] is None:
        problems.append(f"s {decision} without a v line")
    elif needs_certificate:
        why = certificate_problem(n, r, edges, out["coloring"])
        if why:
            problems.append(f"bad certificate: {why}")
    if expected is not None and decision != expected:
        problems.append(f"decision {decision}, expected {expected}")
    return out, problems
