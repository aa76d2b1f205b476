import argparse
import csv
import hashlib
import inspect
import io
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import norainbow
from norainbow import (
    COLORABLE,
    NOT_COLORABLE,
    Hypergraph,
    OracleReport,
    ParseError,
    SearchOutcome,
    cli,
    det_nrc,
    format_certificate,
    oracle_decide,
    parse_certificate,
    parse_instance,
    rand_nrc,
    write_instance,
)
from norainbow.cli import CSV_HEADER, build_parser, expand_corpus_token, main
from norainbow.instances import FAMILIES, InstanceSpec, gen_complete, gen_planted, gen_shadow
from norainbow.oracle import oracle_verify_certificate

from reference import read_planted_witness


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
    # det reads neither alpha nor the seed, so a negative seed is only recorded
    code, out, _ = run_cli(capsys, "bench", "complete:r=3,n=5", "--alpha", "1", "--seed", "-1")
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[CSV_HEADER.index("seed") :][:3] == ["-1", "", "NOT_COLORABLE"]


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


# SHA-256 of `nrc gen` stdout, one job per family and both of gen_random's samplers;
# perfbench's recorded answers and the DET pins rest on these texts
GEN_DIGESTS = {
    "random --n 18 --m 244 --r 3 --seed 0": "6782c91cb713813d6245bec560d9c5786aa5276a9c63ba2b25106ca3edb1e3c1",
    "random --n 200 --m 20000 --r 3 --seed 1": "9485a7e07b51a1c4379d107c9d3311bf1ba2e2608f29a43506cc78b0c3480df2",
    "planted --n 30 --m 900 --r 3 --seed 1": "2aed5a4d6836cba2a45bd4cc3adf534b42dfb70bc94d05763a190208779e916e",
    "complete --n 16 --r 3": "f81cb15f3e303b2b9c83b4f2297791d9db5fe8e00d36a4713a115abd1dfd3437",
    "shadow --n 32 --r 3 --seed 0": "1589066d9b7abc348dbc5d84a6394173f9646ccbb51f3c2db2bd68bec6a264f5",
    "free-shadow --n 24 --r 3 --seed 0": "ffa7a26533f9fe1e20603be0584787e68487d7989f2c337d136365b6ecb3586e",
}


def test_gen_texts_are_pinned_for_every_family(capsys):
    assert {argv.split()[0] for argv in GEN_DIGESTS} == set(FAMILIES)
    for argv, digest in GEN_DIGESTS.items():
        code, out, _ = run_cli(capsys, "gen", *argv.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_a_family_is_one_entry(capsys, monkeypatch):
    # a family added to FAMILIES alone is generated, named, emitted and benched;
    # the cached parser's choices are the same dict
    monkeypatch.setitem(FAMILIES, "toy", ((), lambda s: (gen_complete(s.n, s.r), None)))
    hg = gen_complete(4, 3)
    assert InstanceSpec.parse("toy:n=4,r=3")[0].generate() == (hg, None)
    assert expand_corpus_token("toy:n=4,r=3") == [("toy:r=3,n=4", hg)]
    assert run_cli(capsys, "gen", "toy", "--n", "4", "--r", "3") == (0, write_instance(hg), "")
    code, out, _ = run_cli(capsys, "bench", "toy:n=4,r=3")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and len(rows) == 1
    assert [rows[0][key] for key in ("instance", "n", "m", "r", "decision")] == ["toy:r=3,n=4", "4", "4", "3", NOT_COLORABLE]


@pytest.mark.parametrize("family, planted", [("shadow", True), ("free-shadow", False)])
def test_gen_shadow_families(capsys, tmp_path, family, planted):
    # gen_shadow's graph, with its witness as a planted comment when it has one
    out_path = tmp_path / "s.nrc"
    assert run_cli(capsys, "gen", family, "--n", "9", "--r", "3", "--seed", "2", "-o", str(out_path))[0] == 0
    text = out_path.read_text()
    hg, witness = gen_shadow(9, 3, 2, planted)
    assert parse_instance(text) == hg
    assert read_planted_witness(text) == witness and (witness is not None) == planted
    code, out, _ = run_cli(capsys, "bench", f"{family}:r=3,n=9,seed=2")
    assert code == 0 and list(csv.reader(io.StringIO(out)))[1][:4] == [f"{family}:r=3,n=9,seed=2", "9", str(hg.m), "3"]


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
        (["gen", "planted", "--n", "4", "--r", "3", "--m", "5"], "m=5 exceeds the 4 distinct r-subsets"),
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
    for text, message in (
        ("c no certificate\n", "no 'v' certificate line found"),
        ("v 1 x 2\n", "non-integer color in certificate line 'v 1 x 2'"),
    ):
        cert.write_text(text)
        assert run_cli(capsys, "verify", planted, str(cert)) == (1, "", f"error: {message}\n")
    with pytest.raises(ParseError, match="certificate line must start with 'v', got '1 2 3'"):
        parse_certificate("1 2 3")


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


def test_bench_names_spec_instances_by_their_ids(capsys):
    code, out, _ = run_cli(capsys, "bench", "random:n=8..9,m=10,r=3,seed=1", "planted:seed=2,r=3,m=10,n=8")
    assert code == 0
    assert [row["instance"] for row in csv.DictReader(io.StringIO(out))] == [
        "random:r=3,n=8,m=10,seed=1",
        "random:r=3,n=9,m=10,seed=1",
        "planted:r=3,n=8,m=10,seed=2",
    ]


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
    for token, key in (("random:n=8,n=9,r=3,m=5", "n"), ("random:r=3,n=8,r=4,m=5", "r")):
        with pytest.raises(ValueError, match=f"repeated corpus spec key '{key}' in"):
            expand_corpus_token(token)


def test_solve_threads_flag(capsys, planted, complete43):
    code, *_ = run_cli(capsys, "solve", planted, "--threads", "2")
    assert code == 10
    code, *_ = run_cli(capsys, "solve", complete43, "--algo", "rand", "--threads", "2")
    assert code == 20


def test_solve_threads_must_be_positive(capsys, planted):
    # the oracle runs no workers, but --threads below 1 is still refused
    for algo in ("det", "rand", "oracle"):
        for threads in ("0", "-1"):
            code, out, err = run_cli(capsys, "solve", planted, "--algo", algo, "--threads", threads)
            assert code == 1
            assert out == ""
            assert err == f"error: workers must be >= 1, got {threads}\n"


def test_decisive_threads_must_be_positive(capsys, tmp_path):
    z54 = tmp_path / "z54.nrc"
    z54.write_text("p nrc 5 0 4\n")  # NOT-DECISIVE on any valid --threads
    for algo in ("det", "rand", "oracle"):
        code, out, err = run_cli(capsys, "decisive", str(z54), "--algo", algo, "--threads", "0")
        assert (code, out, err) == (1, "", "error: workers must be >= 1, got 0\n")


def test_solve_rand_refuses_a_negative_seed(capsys, tmp_path, planted, zero_edge):
    # the edgeless and complete 3,3 inputs are answered without a Generator,
    # but the seed is still checked
    complete33 = tmp_path / "c33.nrc"
    complete33.write_text(write_instance(gen_complete(3, 3)))
    for path in (planted, zero_edge, str(complete33)):
        code, out, err = run_cli(capsys, "solve", path, "--algo", "rand", "--seed", "-1")
        assert (code, out, err) == (1, "", "error: master_seed must be >= 0, got -1\n")


def test_negative_cap_and_budget_are_refused_on_any_input(capsys, tmp_path, planted, zero_edge):
    # the edgeless input is answered without a round, and the oracle's
    # refusal by size would name the instance; a negative value is refused alone
    for path in (planted, zero_edge):
        for argv, message in (
            (["solve", path, "--algo", "rand", "--trial-cap", "-1"], "trial cap must be >= 0, got -1"),
            (["solve", path, "--algo", "oracle", "--budget", "-1"], "budget must be >= 0, got -1"),
            (["oracle", path, "--budget", "-1"], "budget must be >= 0, got -1"),
        ):
            assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    # a solver that does not read the option ignores it, in bench too
    assert run_cli(capsys, "solve", zero_edge, "--trial-cap", "-1", "--budget", "-1")[0] == 10
    code, out, _ = run_cli(capsys, "bench", "complete:r=3,n=5", "--trial-cap", "-1", "--budget", "-1")
    assert code == 0 and list(csv.reader(io.StringIO(out)))[1][CSV_HEADER.index("decision")] == "NOT_COLORABLE"
    # a cap of 0 still answers edgeless inputs, so bench fails only the rows that need a round
    code, out, _ = run_cli(capsys, "bench", zero_edge, "complete:r=3,n=3", "--algos", "rand", "--trial-cap", "0")
    rows = [(row["decision"], row["error"]) for row in csv.DictReader(io.StringIO(out))]
    refused = "trial count ceil(2.0 * (3/2)^3) exceeds cap 0; raise the cap to proceed"
    assert (code, rows) == (0, [("COLORABLE", ""), ("", refused)])


def test_solve_rand_alpha_checked_on_degenerate_inputs(capsys, tmp_path):
    # n < r and m = 0 are answered without trials, but alpha is still checked
    for alpha, message in (("0.5", "alpha must be > 1, got 0.5"), ("inf", "alpha must be finite, got inf")):
        for header in ("p nrc 4 0 3", "p nrc 2 0 3"):
            path = tmp_path / "d.nrc"
            path.write_text(header + "\n")
            code, out, err = run_cli(capsys, "solve", str(path), "--algo", "rand", "--alpha", alpha)
            assert (code, out) == (1, "")
            assert err == f"error: {message}\n"


def test_solve_rand_refuses_a_huge_trial_count(capsys, tmp_path):
    # (3/2)^30000 has 5,283 digits, beyond Python's int-to-str limit: the error names no count
    path = tmp_path / "big.nrc"
    path.write_text("p nrc 30000 1 3\n1 2 3\n")
    code, out, err = run_cli(capsys, "solve", str(path), "--algo", "rand")
    assert (code, out) == (1, "")
    assert err == "error: trial count ceil(2.0 * (3/2)^30000) exceeds cap 1000000; raise the cap to proceed\n"


def test_oracle_refuses_a_huge_enumeration(capsys, tmp_path):
    # 2^15000 has 4,516 digits, beyond Python's int-to-str limit: the error names no count
    path = tmp_path / "big.nrc"
    path.write_text("p nrc 15000 1 2\n1 2\n")
    message = "enumeration needs 2^15000 colorings, over budget 100000000; raise the budget to force"
    assert run_cli(capsys, "oracle", str(path)) == (1, "", f"error: {message}\n")


def test_solve_searches_past_the_default_recursion_limit(capsys, tmp_path):
    # det recurses once per search level; the certifying start here goes
    # 1,100 levels deep, in-process and in a spawned worker
    edges = [(1, v) for v in range(2, 1101)] + [(v, v + 1) for v in range(1101, 2200)]
    path = tmp_path / "deep.nrc"
    path.write_text(f"p nrc 2200 {len(edges)} 2\n" + "".join(f"{a} {b}\n" for a, b in edges))
    certificate = "v " + " ".join(["1"] * 1100 + ["2"] * 1100)
    for threads in ("1", "2"):
        assert run_cli(capsys, "solve", str(path), "--threads", threads) == (10, f"s COLORABLE\n{certificate}\n", "")


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
        (["complete:r=3,n=6", "--algos", "det,foo"], "unknown algo 'foo'; choose from det, rand, oracle"),
        (["random:n=8,r"], "bad corpus spec field 'r' in 'random:n=8,r'"),
        (["complete:r=3,n=6", "--algos", "rand", "--seed", "-1"], "master_seed must be >= 0, got -1"),
        (["complete:r=3,n=6", "--algos", "det,rand", "--reps", "3", "--seed", "-2"], "master_seed must be >= 0, got -2"),
        (["complete:r=3,n=5..6", "--algos", "rand", "--trial-cap", "-1"], "trial cap must be >= 0, got -1"),
        (["complete:r=3,n=6", "missing.nrc", "--algos", "det,rand", "--trial-cap", "-3"], "trial cap must be >= 0, got -3"),
        (["complete:r=3,n=5..6", "--algos", "oracle", "--budget", "-1"], "budget must be >= 0, got -1"),
        (["complete:r=3,n=6", "--algos", "rand,oracle", "--budget", "-2"], "budget must be >= 0, got -2"),
        (
            ["complete:r=3,n=5..6", "--algos", "oracle", "--budget", "0"],
            "enumeration needs 2^0 = 1 colorings, over budget 0; raise the budget to force",
        ),
    ],
)
def test_bench_refuses_to_run_nothing(capsys, argv, message):
    assert run_cli(capsys, "bench", *argv) == (1, "", f"error: {message}\n")


def test_deciders_answer_the_bench_probe_at_once(monkeypatch):
    # nrc bench runs each chosen decider on Hypergraph(0, 2) before any row:
    # with good options each answers it, with any worker count and no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    probe = Hypergraph(0, 2)
    assert det_nrc(probe, workers=2).decision == NOT_COLORABLE
    assert rand_nrc(probe, workers=2).decision == NOT_COLORABLE
    assert oracle_decide(probe).decision == NOT_COLORABLE


def test_bench_refuses_a_new_decider_option_without_a_copy(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("made-up option must be sensible")

    monkeypatch.setattr(cli, "rand_nrc", refuse)
    code, out, err = run_cli(capsys, "bench", "complete:r=3,n=5", "--algos", "rand")
    assert (code, out, err) == (1, "", "error: made-up option must be sensible\n")


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


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [["solve", "x.nrc"], ["bench", "complete:r=3,n=5"]])
def test_rand_option_defaults_are_rand_nrcs_own(argv):
    defaults = inspect.signature(rand_nrc).parameters
    args = build_parser().parse_args(argv)
    assert (args.alpha, args.trial_cap) == (defaults["alpha"].default, defaults["cap"].default) == (2.0, 10**6)


def test_one_main_call_leaks_nothing_into_the_next(capsys, planted):
    code, out, _ = run_cli(capsys, "solve", "--stats", "--algo", "rand", "--seed", "3", planted)
    assert code == 10 and out.startswith("c stats ")
    certificate = det_nrc(parse_instance(Path(planted).read_text())).certificate
    assert run_cli(capsys, "solve", planted) == (10, f"s COLORABLE\n{format_certificate(certificate)}\n", "")

    assert run_cli(capsys, "bench", "complete:r=3,n=5", "complete:r=3,n=6")[0] == 0
    code, out, _ = run_cli(capsys, "bench", "complete:r=4,n=5")
    assert code == 0
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["instance", "complete:r=4,n=5"]


def test_argparse_error_leaves_the_parser_usable(capsys, planted):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
    assert "the following arguments are required: path" in capsys.readouterr().err
    assert run_cli(capsys, "solve", planted)[0] == 10


@pytest.fixture
def command_files(tmp_path, planted, complete43):
    cert = tmp_path / "cert.txt"
    cert.write_text(format_certificate(det_nrc(parse_instance(Path(planted).read_text())).certificate) + "\n")
    z54 = tmp_path / "z54.nrc"
    z54.write_text("p nrc 5 0 4\n")
    return {"P": planted, "C": complete43, "CERT": str(cert), "Z54": str(z54)}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "P"],
        ["solve", "P", "--algo", "rand", "--seed", "3"],
        ["solve", "C", "--algo", "oracle"],
        ["oracle", "C"],
        ["gen", "planted", "--n", "8", "--m", "12", "--r", "3", "--seed", "7"],
        ["verify", "P", "CERT"],
        ["decisive", "Z54"],
        ["bench", "complete:r=3,n=5..6", "P", "--algos", "det,oracle"],
        ["solve"],
        ["solve", "--help"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_warm_process_matches_a_fresh_one(capsys, monkeypatch, command_files, argv):
    # every call after the first reuses the cached parser; a fresh
    # `python -m norainbow.cli` builds its own, and prints the same
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    argv = [command_files.get(arg, arg) for arg in argv]
    run_cli(capsys, "solve", command_files["C"], "--algo", "rand", "--stats")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    warm = capsys.readouterr()
    fresh = subprocess.run([sys.executable, "-m", "norainbow.cli", *argv], capture_output=True)
    assert (code, warm.err.encode()) == (fresh.returncode, fresh.stderr)
    if argv[0] == "bench":  # rows match but for the timing column
        rows = [list(csv.reader(io.StringIO(out))) for out in (warm.out, fresh.stdout.decode())]
        untimed = [[row[:10] + row[11:] for row in table] for table in rows]
        assert untimed[0] == untimed[1] and len(rows[0]) == 7
    else:
        assert warm.out.encode() == fresh.stdout


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "complete:r=3,n=5,m=7,seed=3"], "a complete instance takes no m, got m=7"),
        (["bench", "complete:r=3,n=5,seed=3"], "a complete instance takes no seed, got seed=3"),
        (["gen", "complete", "--n", "5", "--r", "3", "--m", "7"], "a complete instance takes no m, got m=7"),
        (["gen", "complete", "--n", "5", "--r", "3", "--seed", "3"], "a complete instance takes no seed, got seed=3"),
    ],
)
def test_complete_spec_refuses_m_and_seed(capsys, argv, message):
    # a complete graph has no edge count or seed to vary, and its
    # instance_id names neither, so a spec that sets one is refused
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
