import argparse
import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import norainbow
from norainbow import COLORABLE, OracleReport, SearchOutcome, cli, parse_instance, write_instance
from norainbow.cli import CSV_HEADER, build_parser, expand_corpus_token, main
from norainbow.instances import gen_complete, gen_planted, read_planted_witness
from norainbow.oracle import oracle_verify_certificate


@pytest.fixture
def zero_edge(tmp_path):
    path = tmp_path / "z.nrc"
    path.write_text("p nrc 5 0 3\n")
    return str(path)


@pytest.fixture
def complete43(tmp_path):
    path = tmp_path / "c43.nrc"
    path.write_text(write_instance(gen_complete(4, 3)))
    return str(path)


@pytest.fixture
def planted(tmp_path):
    hg, _ = gen_planted(8, 12, 3, 7)
    path = tmp_path / "p.nrc"
    path.write_text(write_instance(hg))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_zero_edge_colorable(capsys, zero_edge):
    code, out, _ = run_cli(capsys, "solve", zero_edge)
    lines = out.splitlines()
    assert code == 10
    assert lines[0] == "s COLORABLE"
    assert lines[1].startswith("v ")


def test_solve_complete_uncolorable(capsys, complete43):
    for algo in ("det", "rand", "oracle"):
        code, out, _ = run_cli(capsys, "solve", complete43, "--algo", algo)
        assert code == 20
        assert out.splitlines()[-1] == "s UNCOLORABLE"


def test_solve_certificate_is_valid(capsys, planted):
    code, out, _ = run_cli(capsys, "solve", planted, "--algo", "rand", "--seed", "3")
    assert code == 10
    hg = parse_instance(Path(planted).read_text())
    colors = [int(t) for t in out.splitlines()[1].split()[1:]]
    assert oracle_verify_certificate(hg, colors)


def test_solve_det_and_oracle_agree(capsys, planted, complete43):
    for path in (planted, complete43):
        det_code, *_ = run_cli(capsys, "solve", path, "--algo", "det")
        oracle_code, *_ = run_cli(capsys, "solve", path, "--algo", "oracle")
        assert det_code == oracle_code


def test_solve_rand_repeatable_in_process(capsys, planted):
    runs = [run_cli(capsys, "solve", planted, "--algo", "rand", "--seed", "9") for _ in range(2)]
    assert runs[0] == runs[1]


def test_solve_stats_line(capsys, planted):
    code, out, _ = run_cli(capsys, "solve", planted, "--stats")
    assert code == 10
    assert out.splitlines()[0].startswith("c stats nodes=")


def test_solve_oracle_stats_line(capsys, complete43, zero_edge):
    for path, nodes, trials, code in ((complete43, 3**4, 0, 20), (zero_edge, 3**5, 150, 10)):
        got, out, _ = run_cli(capsys, "solve", path, "--algo", "oracle", "--stats")
        assert got == code
        assert re.fullmatch(rf"c stats nodes={nodes} fallback=0 trials={trials} ms=\d+\.\d{{3}}", out.splitlines()[0])


def test_bench_alpha_unchecked_without_rand(capsys):
    code, out, _ = run_cli(capsys, "bench", "complete:r=3,n=5", "--alpha", "1")
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[CSV_HEADER.index("alpha") :][:2] == ["", "NOT_COLORABLE"]


def test_solve_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.nrc"
    bad.write_text("p nrc 3 1 3\n1 2 9\n")
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code == 1
    assert "node id out of range" in err


def test_solve_reads_a_file_with_a_byte_order_mark(capsys, tmp_path):
    plain, marked = tmp_path / "plain.nrc", tmp_path / "bom.nrc"
    plain.write_text("p nrc 4 1 3\n1 2 4\n", encoding="utf-8")
    marked.write_text("\ufeffp nrc 4 1 3\n1 2 4\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(marked))
    assert (code, out, err) == run_cli(capsys, "solve", str(plain))
    assert (code, out.splitlines()[0], err) == (10, "s COLORABLE", "")


def test_input_is_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale with UTF-8 mode and locale coercion off, the default
    # text encoding is ASCII; the instance and certificate are still UTF-8
    marked = tmp_path / "bom.nrc"
    marked.write_bytes("\ufeffp nrc 4 1 3\n1 2 4\n".encode("utf-8"))
    src = str(Path(norainbow.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}

    def nrc(*argv, stdin=b""):
        return subprocess.run([sys.executable, "-m", "norainbow.cli", *argv], input=stdin, capture_output=True, env=env)

    by_path = nrc("solve", str(marked))
    assert (by_path.returncode, by_path.stderr) == (10, b"")
    assert by_path.stdout.splitlines()[0] == b"s COLORABLE"
    by_stdin = nrc("solve", "-", stdin=marked.read_bytes())
    assert (by_stdin.returncode, by_stdin.stdout, by_stdin.stderr) == (10, by_path.stdout, b"")
    verified = nrc("verify", str(marked), "-", stdin=by_path.stdout)
    assert (verified.returncode, verified.stdout, verified.stderr) == (0, b"s VALID\n", b"")


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 72.8 TiB"), "error: out of memory: Unable to allocate 72.8 TiB\n"),
    ],
)
def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch, zero_edge, error, message):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "rand_nrc", exhausted)
    assert run_cli(capsys, "solve", zero_edge, "--algo", "rand") == (1, "", message)


def test_oracle_command(capsys, complete43, zero_edge):
    code, out, _ = run_cli(capsys, "oracle", complete43)
    assert code == 20
    assert "c witnesses 0" in out
    code, out, _ = run_cli(capsys, "oracle", zero_edge)
    assert code == 10
    assert out.splitlines()[0] == "c witnesses 150"


def test_gen_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.nrc"
    code, *_ = run_cli(capsys, "gen", "random", "--n", "8", "--r", "3", "--m", "9",
                       "--seed", "5", "-o", str(out_path))
    assert code == 0
    hg = parse_instance(out_path.read_text())
    assert (hg.n, hg.r, hg.m) == (8, 3, 9)


def test_gen_planted_embeds_witness(capsys, tmp_path):
    out_path = tmp_path / "p.nrc"
    run_cli(capsys, "gen", "planted", "--n", "8", "--r", "3", "--m", "12",
            "--seed", "7", "-o", str(out_path))
    text = out_path.read_text()
    hg = parse_instance(text)
    witness = read_planted_witness(text)
    assert witness is not None
    assert oracle_verify_certificate(hg, witness)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "planted", "--n", "5", "--r", "3", "--m", "-1"], "m must be >= 0, got -1"),
        (["gen", "random", "--n", "5", "--r", "3", "--m", "-1"], "m must be >= 0, got -1"),
        (["bench", "planted:n=5,r=3,m=-2"], "m must be >= 0, got -2"),
        (["bench", "random:n=5,r=3,m=-2"], "m must be >= 0, got -2"),
    ],
)
def test_negative_edge_count_is_an_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_verify_command(capsys, tmp_path, planted):
    code, out, _ = run_cli(capsys, "solve", planted)
    cert = tmp_path / "cert.txt"
    cert.write_text(out)
    code, out, _ = run_cli(capsys, "verify", planted, str(cert))
    assert (code, out.strip()) == (0, "s VALID")
    cert.write_text("v 1 1 1 1 1 1 1 1\n")
    code, out, _ = run_cli(capsys, "verify", planted, str(cert))
    assert (code, out.strip()) == (1, "s INVALID")
    cert.write_text("v 1 2 3\n")
    code, out, err = run_cli(capsys, "verify", planted, str(cert))
    assert (code, out, err) == (1, "", "error: certificate length 3 != n=8\n")


def test_decisive(capsys, tmp_path):
    c54 = tmp_path / "c54.nrc"
    c54.write_text(write_instance(gen_complete(5, 4)))
    code, out, _ = run_cli(capsys, "decisive", str(c54))
    assert (code, out.strip()) == (30, "s DECISIVE")
    code, out, _ = run_cli(capsys, "decisive", str(c54), "--algo", "rand")
    assert (code, out.splitlines()) == (
        30,
        ["c note: randomized decider; DECISIVE is a one-sided claim", "s DECISIVE"],
    )

    z54 = tmp_path / "z54.nrc"
    z54.write_text("p nrc 5 0 4\n")
    code, out, _ = run_cli(capsys, "decisive", str(z54))
    lines = out.splitlines()
    assert code == 31
    assert lines[0] == "s NOT-DECISIVE"
    assert lines[1].startswith("v ")

    r3 = tmp_path / "r3.nrc"
    r3.write_text("p nrc 5 0 3\n")
    code, _, err = run_cli(capsys, "decisive", str(r3))
    assert code == 1
    assert "4-uniform" in err


def test_bench_row_count_and_roundtrip(capsys, planted):
    code, out, _ = run_cli(
        capsys, "bench", planted, "--algos", "det,rand", "--reps", "3", "--seed", "5"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 3
    # deterministic ordering: algo-minor within instance, reps innermost
    assert [r[4] for r in rows[1:]] == ["det"] * 3 + ["rand"] * 3
    assert [r[5] for r in rows[1:]] == ["5", "6", "7"] * 2
    # lossless re-serialization
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    assert buf.getvalue() == out


def test_bench_complete_sweep_nodes_monotone(capsys):
    code, out, _ = run_cli(capsys, "bench", "complete:r=3,n=6..12", "--algos", "det")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    nodes = [int(row["recursion_nodes"]) for row in rows]
    assert all(a <= b for a, b in zip(nodes, nodes[1:]))
    assert all(row["decision"] == "NOT_COLORABLE" for row in rows)


def test_bench_oracle_row_counts_colorings_and_witnesses(capsys, planted):
    _, out, _ = run_cli(capsys, "oracle", planted)
    witnesses = int(out.splitlines()[0].removeprefix("c witnesses "))
    code, out, _ = run_cli(capsys, "bench", planted, "--algos", "oracle")
    (row,) = csv.DictReader(io.StringIO(out))
    assert code == 0
    assert (int(row["recursion_nodes"]), int(row["trials"])) == (3**8, witnesses)


def test_bench_records_errors_in_row(capsys, tmp_path):
    big = tmp_path / "big.nrc"
    big.write_text("p nrc 30 0 3\n")
    code, out, _ = run_cli(capsys, "bench", str(big), "--algos", "oracle", "--budget", "100")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["error"] != ""
    assert rows[0]["decision"] == ""


def test_expand_corpus_token_specs():
    got = expand_corpus_token("complete:r=3,n=4..6")
    assert [i for i, _ in got] == [
        "complete:r=3,n=4",
        "complete:r=3,n=5",
        "complete:r=3,n=6",
    ]
    with pytest.raises(ValueError):
        expand_corpus_token("planted:n=8")
    with pytest.raises(ValueError):
        expand_corpus_token("random:n=8,r=3,bogus=1")


def test_solve_threads_flag(capsys, planted, complete43):
    code, *_ = run_cli(capsys, "solve", planted, "--threads", "2")
    assert code == 10
    code, *_ = run_cli(capsys, "solve", complete43, "--algo", "rand", "--threads", "2")
    assert code == 20


def test_solve_threads_must_be_positive(capsys, planted):
    for algo in ("det", "rand"):
        for threads in ("0", "-1"):
            code, out, err = run_cli(capsys, "solve", planted, "--algo", algo, "--threads", threads)
            assert code == 1
            assert out == ""
            assert err.startswith("error: workers must be >= 1")


def test_solve_rand_alpha_checked_on_degenerate_inputs(capsys, tmp_path):
    # n < r and m = 0 are answered without trials, but alpha is still checked
    for alpha, message in (("0.5", "alpha must be > 1, got 0.5"), ("inf", "alpha must be finite, got inf")):
        for header in ("p nrc 4 0 3", "p nrc 2 0 3"):
            path = tmp_path / "d.nrc"
            path.write_text(header + "\n")
            code, out, err = run_cli(capsys, "solve", str(path), "--algo", "rand", "--alpha", alpha)
            assert (code, out) == (1, "")
            assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["complete:r=3,n=9..6"], "empty n range '9..6' in 'complete:r=3,n=9..6'"),
        (["complete:r=3,n=6", "--reps", "0"], "--reps must be >= 1, got 0"),
        (["complete:r=3,n=6", "--algos", ","], "--algos ',' names no algo; choose from det, rand, oracle"),
        (["complete:r=3,n=6", "--algos", ""], "--algos '' names no algo; choose from det, rand, oracle"),
        (["complete:r=3,n=6", "--threads", "0"], "workers must be >= 1, got 0"),
        (["random:n=x,r=3"], "non-integer n value 'x' in 'random:n=x,r=3'"),
        (["complete:r=3,n=6", "--algos", "rand", "--alpha", "1"], "alpha must be > 1, got 1.0"),
        (["complete:r=3,n=6", "--algos", "det,rand", "--alpha", "-2"], "alpha must be > 1, got -2.0"),
        (["complete:r=3,n=6", "--algos", "rand", "--alpha", "nan"], "alpha must be > 1, got nan"),
        (["complete:r=3,n=6", "--algos", "oracle,rand", "--alpha", "inf"], "alpha must be finite, got inf"),
    ],
)
def test_bench_refuses_to_run_nothing(capsys, argv, message):
    assert run_cli(capsys, "bench", *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, target",
    [
        (["solve"], "det_nrc"),
        (["solve", "--algo", "rand"], "rand_nrc"),
        (["solve", "--algo", "oracle"], "oracle_decide"),
        (["decisive"], "det_nrc"),
        (["oracle"], "oracle_decide"),
    ],
)
def test_unverified_certificate_is_an_error(capsys, monkeypatch, tmp_path, argv, target):
    # The deciders are looked up in norainbow.cli at call time, so a fake
    # installed there is the one every command runs.
    path = tmp_path / "z54.nrc"
    path.write_text("p nrc 5 0 4\n")
    bad = [1] * 5
    fake = OracleReport(COLORABLE, 1, bad) if target == "oracle_decide" else SearchOutcome(COLORABLE, bad)
    monkeypatch.setattr(cli, target, lambda *args, **kwargs: fake)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert not [line for line in out.splitlines() if line.startswith("s ")]
    assert err == "error: certificate failed independent verification\n"


def test_cli_exposes_the_benchmark_layers():
    # the functions perfbench/spans.py LAYERS wraps by name in norainbow.cli
    for name in ("parse_instance", "det_nrc", "rand_nrc", "oracle_decide", "oracle_verify_certificate"):
        assert callable(getattr(cli, name)), name
    assert cli.parse_instance is norainbow.parse_instance


def test_cli_byte_identical_across_processes(planted):
    cmd = [sys.executable, "-m", "norainbow.cli", "solve", planted, "--algo", "rand", "--seed", "11"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 10
    assert a.stdout == b.stdout


def test_readme_cli_synopsis_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    documented = {}
    for line in block.splitlines():
        if line.startswith("nrc "):
            command = line.split()[1]
            documented[command] = set()
        documented[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actual = {
        name: {opt for a in sub._actions for opt in a.option_strings if opt.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == actual
