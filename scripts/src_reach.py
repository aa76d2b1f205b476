#!/usr/bin/env python3
"""List the lines of src/norainbow that no test reaches.

Runs pytest in this process under a sys.settrace line tracer limited to
src/norainbow, then prints every executable line no test ran, as
path:line, and the src/ line count (as `wc -l src/norainbow/*.py` gives
it). The executable lines of a file are those of every code object
compiled from it, read from co_lines(). With no arguments it runs the
tier-1 suite; any arguments are passed to pytest instead. Exits with
pytest's exit code. Standard library and pytest only.

Lines that run only in other processes are not traced, so they show as
unreached: the chunks that --threads workers run, and the CLI
subprocesses that some tests start.

Example:
    python scripts/src_reach.py
    python scripts/src_reach.py tests/test_rand_solver.py -x
"""
from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "norainbow"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction compiled from the file."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on args, and the lines run per source file."""
    reached = {os.path.realpath(path): set() for path in SRC.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its reached set

    def local(frame, event, arg):
        by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = reached.get(os.path.realpath(name))
        return local(frame, event, arg) if by_name[name] is not None else None

    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), reached


def main() -> int:
    code, reached = traced_run(sys.argv[1:] or ["-q", str(ROOT / "tests")])
    for path in sorted(SRC.glob("*.py")):
        for line in sorted(executable_lines(path) - reached[os.path.realpath(path)]):
            print(f"{path.relative_to(ROOT)}:{line}")
    total = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    print(f"src/norainbow: {total} lines")
    return code


if __name__ == "__main__":
    sys.exit(main())
