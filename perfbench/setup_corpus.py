"""Set-up step of one benchmark run, in a fresh interpreter.

Imports the package, then writes every instance of a corpus plan through
`nrc gen`, with its edge lines shuffled by the plan's seed. Prints one JSON
object: the package's import time (numpy already loaded), generate-and-write
time, and the time spent inside the `instances.gen_*` functions.

    python3 perfbench/setup_corpus.py PLAN.json
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path


def shuffle_edges(text: str, seed: int) -> str:
    """Shuffle the edge lines that follow the header; keep comments and header first."""
    lines = text.splitlines()
    cut = next(i for i, line in enumerate(lines) if line.startswith("p ")) + 1
    head, edges = lines[:cut], lines[cut:]
    random.Random(seed).shuffle(edges)
    return "\n".join(head + edges) + "\n"


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    # numpy's import time swings with the machine's load and file cache and
    # is not the package's code, so it is loaded before the clock starts
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import norainbow.cli as cli
    import norainbow.instances as instances

    t_import = time.perf_counter() - t0

    gen_s = 0.0

    def timed(fn):
        def wrapper(*args, **kwargs):
            nonlocal gen_s
            g0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                gen_s += time.perf_counter() - g0

        return wrapper

    for name in ("gen_random", "gen_planted", "gen_complete"):
        setattr(instances, name, timed(getattr(instances, name)))

    t0 = time.perf_counter()
    for item in plan:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(item["gen_argv"])
        if code != 0:
            raise SystemExit(f"nrc {' '.join(item['gen_argv'])} exited {code}")
        Path(item["path"]).write_text(shuffle_edges(buf.getvalue(), item["shuffle_seed"]))
    t_write = time.perf_counter() - t0
    print(json.dumps({"import_s": t_import, "gen_write_s": t_write, "gen_s": gen_s}))


if __name__ == "__main__":
    main(sys.argv[1])
