"""In-memory spans around the package's public functions.

The benchmark swaps each layer function named in LAYERS for a wrapper in
`norainbow.cli`'s namespace, which is where the command handlers look them
up. Every `cli.main` call the benchmark makes is a root span; a layer call
inside it is a child span carrying the stats the call returned.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path


def _det_stats(args, result) -> dict:
    s = result.stats
    return {
        "nodes": s.recursion_nodes,
        "fallback_nodes": s.fallback_nodes,
        "starts": s.trials,
        "max_start_nodes": s.max_start_nodes,
        "certificate": result.certificate is not None,
    }


def _rand_stats(args, result) -> dict:
    hg = args[0]
    s = result.stats
    per_round = math.comb(hg.n, hg.r) if hg.n >= hg.r else 1
    return {"steps": s.recursion_nodes, "starts": s.trials, "rounds": -(-s.trials // per_round)}


def _oracle_stats(args, result) -> dict:
    hg = args[0]
    return {"colorings": hg.r**hg.n, "witnesses": result.witness_count}


# cli attribute -> (layer, what to record from (args, result))
LAYERS = {
    "parse_instance": ("hypergraph", lambda args, hg: {"edges": hg.m}),
    "det_nrc": ("det_solver", _det_stats),
    "rand_nrc": ("rand_solver", _rand_stats),
    "oracle_decide": ("oracle", _oracle_stats),
    "oracle_verify_certificate": ("oracle", lambda args, ok: {"edges": args[0].m}),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, layer: str, fn: str, instance: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "layer": layer,
            "fn": fn,
            "instance": instance if parent is None else parent["instance"],
            "status": "ok",
            "stats": {},
        }
        self.spans.append(record)
        self._stack.append(record)
        record["t0"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["status"] = type(exc).__name__
            raise
        finally:
            record["t1"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, fn_name: str, fn, describe):
        def traced(*args, **kwargs):
            with self.span(layer, fn_name) as record:
                result = fn(*args, **kwargs)
                record["stats"] = describe(args, result)
                return result

        return traced

    @contextmanager
    def installed(self, cli):
        """Wrap every LAYERS function inside `cli` for the duration."""
        originals = {name: getattr(cli, name) for name in LAYERS}
        for name, (layer, describe) in LAYERS.items():
            setattr(cli, name, self.wrap(layer, name, originals[name], describe))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered, end = 0.0, span["t0"]
    for child in sorted(children, key=lambda c: c["t0"]):
        lo, hi = max(child["t0"], end), min(child["t1"], span["t1"])
        if hi > lo:
            covered += hi - lo
            end = hi
    return span["t1"] - span["t0"] - covered


def layer_metrics(spans: list[dict], gen_s: float) -> dict[str, float]:
    """Per-layer figures from the spans of one full pass over the corpus."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def busy(layer, fn=None, ok_only=False):
        return sum(
            s["t1"] - s["t0"]
            for s in spans
            if s["layer"] == layer and fn in (None, s["fn"]) and (not ok_only or s["status"] == "ok")
        )

    def total(layer, key, fn=None):
        return sum(s["stats"].get(key, 0) for s in spans if s["layer"] == layer and fn in (None, s["fn"]))

    def rate(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in ("cli", "hypergraph", "det_solver", "rand_solver", "oracle"):
        m[f"{layer}.self_s"] = sum(self_time(s, children.get(s["id"], [])) for s in spans if s["layer"] == layer)
    m["instances.self_s"] = gen_s
    m["instances.gen_s"] = gen_s

    nodes, starts = total("det_solver", "nodes"), total("det_solver", "starts")
    det_ok = busy("det_solver", ok_only=True)
    m["det_solver.busy_s"] = busy("det_solver")
    m["det_solver.nodes"] = nodes
    m["det_solver.starts"] = starts
    m["det_solver.fallback_nodes"] = total("det_solver", "fallback_nodes")
    m["det_solver.max_start_nodes"] = max(
        (s["stats"]["max_start_nodes"] for s in spans if s["layer"] == "det_solver" and s["stats"]), default=0
    )
    m["det_solver.us_per_node"] = rate(det_ok, nodes, 1e6)
    m["det_solver.us_per_start"] = rate(det_ok, starts, 1e6)
    m["det_solver.starts_per_certificate"] = rate(starts, total("det_solver", "certificate"))

    steps, rstarts = total("rand_solver", "steps"), total("rand_solver", "starts")
    rand_ok = busy("rand_solver", ok_only=True)
    m["rand_solver.busy_s"] = busy("rand_solver")
    m["rand_solver.steps"] = steps
    m["rand_solver.starts"] = rstarts
    m["rand_solver.rounds"] = total("rand_solver", "rounds")
    m["rand_solver.us_per_step"] = rate(rand_ok, steps, 1e6)
    m["rand_solver.us_per_start"] = rate(rand_ok, rstarts, 1e6)

    decide_ok = busy("oracle", "oracle_decide", ok_only=True)
    verify_s = busy("oracle", "oracle_verify_certificate")
    colorings = total("oracle", "colorings", "oracle_decide")
    m["oracle.busy_s"] = busy("oracle")
    m["oracle.colorings"] = colorings
    m["oracle.colorings_per_s"] = rate(colorings, decide_ok)
    m["oracle.witnesses"] = total("oracle", "witnesses")
    m["oracle.verify_s"] = verify_s
    m["oracle.verify_us_per_edge"] = rate(verify_s, total("oracle", "edges", "oracle_verify_certificate"), 1e6)

    edges = total("hypergraph", "edges")
    m["hypergraph.parse_s"] = busy("hypergraph")
    m["hypergraph.edges_parsed"] = edges
    m["hypergraph.parse_us_per_edge"] = rate(m["hypergraph.parse_s"], edges, 1e6)
    return m
