"""Smoke tests: each experiment script under scripts/ runs to completion on a
tiny input, so a renamed or removed package function breaks the suite."""
import csv
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("scaling_bench.py", ["--r", "3", "--n-min", "5", "--n-max", "6", "--per-n", "2", "-o", "scaling.csv"]),
        ("success_rate.py", ["--n", "6", "--m", "4", "--instances", "2", "--alphas", "1.1"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_scaling_bench_reports_us_per_node(tmp_path):
    args = ["--r", "3", "--n-min", "5", "--n-max", "5", "--per-n", "2", "-o", "scaling.csv"]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "scaling_bench.py"), *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    # the printed bound is the per-start tree bound, the CSV's per_start_bound
    header = done.stdout.splitlines()[0].split()
    assert header == ["n", "m", "mean", "nodes", "max", "start", "per-start", "bound", "mean", "ms"]
    with open(tmp_path / "scaling.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert all(float(row["us_per_node"]) > 0 for row in rows)
    # m = 10 at n = 5 is the complete 3-graph: uncolorable, so det searches
    # its whole start set of 18 but the 4 starts it skips, those with more
    # forced nodes than the radius 3 - 2 = 1: (0, 3, 4) on b = 2, and the
    # three subsets with s_3 = 4 on b = 3
    assert "start_bound" in rows[0]
    assert all(row["decision"] == "NOT_COLORABLE" for row in rows)
    assert all((row["starts"], row["start_bound"]) == ("14", "18") for row in rows)
    assert all(row["oracle_agrees"] == "True" for row in rows)


def test_success_rate_reports_us_per_walk_evaluation(tmp_path):
    args = ["--n", "6", "--m", "4", "--instances", "2", "--alphas", "1.1,2"]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "success_rate.py"), *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()[1:]
    assert header.split()[-1] == "us/eval"
    assert len(rows) == 2
    assert all(float(row.split()[-1]) > 0 for row in rows)


def test_src_reach_lists_unreached_package_lines(tmp_path):
    tests = Path(__file__).resolve().parent
    args = [tests / "test_python_floor.py", f"{tests / 'test_parallel.py'}::test_solvers_refuse_fewer_than_one_worker"]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "src_reach.py"), "-q", "-p", "no:cacheprovider", *map(str, args)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"src/norainbow: \d+ lines", lines[-1])
    source = (SCRIPTS.parent / "src" / "norainbow" / "det_solver.py").read_text(encoding="utf-8").splitlines()

    def det_line(text):
        return f"src/norainbow/det_solver.py:{1 + next(i for i, line in enumerate(source) if text in line)}"

    # det_nrc's worker check runs; its search does not
    assert det_line("workers must be >= 1") not in lines
    assert det_line("radius = search_radius(hg.n, hg.r)") in lines
