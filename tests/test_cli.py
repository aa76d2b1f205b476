import csv
import io
import subprocess
import sys

import pytest

from norainbow import parse_instance, write_instance
from norainbow.cli import CSV_HEADER, expand_corpus_token, main
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
    hg = parse_instance(open(planted).read())
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


def test_solve_radius_override_warns(capsys, planted):
    code, out, _ = run_cli(capsys, "solve", planted, "--radius", "0")
    assert "completeness not guaranteed" in out.splitlines()[0]
    assert code in (10, 20)


def test_solve_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.nrc"
    bad.write_text("p nrc 3 1 3\n1 2 9\n")
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code == 1
    assert "node id out of range" in err


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


def test_verify_command(capsys, tmp_path, planted):
    code, out, _ = run_cli(capsys, "solve", planted)
    cert = tmp_path / "cert.txt"
    cert.write_text(out)
    code, out, _ = run_cli(capsys, "verify", planted, str(cert))
    assert (code, out.strip()) == (0, "s VALID")
    cert.write_text("v 1 1 1 1 1 1 1 1\n")
    code, out, _ = run_cli(capsys, "verify", planted, str(cert))
    assert (code, out.strip()) == (1, "s INVALID")


def test_decisive(capsys, tmp_path):
    c54 = tmp_path / "c54.nrc"
    c54.write_text(write_instance(gen_complete(5, 4)))
    code, out, _ = run_cli(capsys, "decisive", str(c54))
    assert (code, out.strip()) == (30, "s DECISIVE")

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
def test_solve_one_subset_flag(capsys, planted):
    runs = [
        run_cli(capsys, "solve", planted, "--algo", "rand", "--seed", "2", "--one-subset-per-trial")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] in (10, 20)


def test_cli_byte_identical_across_processes(planted):
    cmd = [sys.executable, "-m", "norainbow.cli", "solve", planted, "--algo", "rand", "--seed", "11"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 10
    assert a.stdout == b.stdout
