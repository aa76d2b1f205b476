"""Benchmark of the `nrc` command line, end to end and per layer.

    python3 perfbench/run.py --workload det --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ./src. Set-up
writes the workload's corpus with `nrc gen`, several times, each in a fresh
interpreter. The run then calls `norainbow.cli.main` with the argv a user
would type, one job at a time, each job under a deadline, checks every
output with perfbench/checker.py, and cycles over the corpus (always at
least one full pass) until --seconds have passed.

--trace 0 prints the end-to-end metrics. --trace 1 runs each job traced
and untraced, back to back, and prints the per-layer metrics of the first
pass with the tracing overhead. The last stdout line is one JSON object;
details and spans go to perfbench/out/. --update-baseline merges this run's
search counters into perfbench/baseline_counters.json.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
BASELINE_FILE = BENCH_DIR / "baseline_counters.json"


class Deadline(BaseException):
    """Raised inside a running command when its job's deadline passes."""


def _on_alarm(signum, frame):
    raise Deadline()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up


def set_up(workload, root: Path, corpus_dir: Path) -> dict:
    """Write the corpus SETUP_REPS times, each in a fresh interpreter, and
    return the median timings with the path of each instance file."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    paths = {hg: str(corpus_dir / hg.file_name) for hg in workload.instances}
    plan = [
        {"gen_argv": hg.gen_argv(), "path": paths[hg], "shuffle_seed": f"{workload.seed}/{hg.spec}"}
        for hg in workload.instances
    ]
    plan_path = corpus_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    reps = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_corpus.py"), str(plan_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up failed:\n{proc.stderr}")
        reps.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "paths": paths,
        "setup_s": statistics.median(r["import_s"] + r["gen_write_s"] for r in reps),
        "gen_s": statistics.median(r["gen_s"] for r in reps),
        "reps": reps,
    }


def known_answers(workload, paths) -> dict:
    """Instance data as the checker reads it, the correct decision and,
    where counted, the witness count."""
    out = {}
    for hg in workload.instances:
        data = checker.read_instance(Path(paths[hg]).read_text())
        witnesses = None
        truth = hg.truth
        if truth is None:
            witnesses = checker.count_witnesses(*data)
            truth = workloads.COLORABLE if witnesses else workloads.UNCOLORABLE
        out[hg] = {"data": data, "truth": truth, "witnesses": witnesses}
    return out


# ---------------------------------------------------------------------------
# one job


def call_nrc(cli, argv: list[str], budget: float):
    """Run cli.main(argv) in this process with `budget` seconds of CPU time;
    returns (exit code or None on deadline, stdout, wall seconds, CPU seconds)."""
    if budget <= 0:
        return None, "", 0.0, 0.0
    out = io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    t0, c0 = time.perf_counter(), time.process_time()
    # the timer fires at most once and is armed inside the try, so the one
    # handler catches it wherever it lands
    try:
        try:
            sys.stdout, sys.stderr = out, io.StringIO()
            signal.setitimer(signal.ITIMER_PROF, budget)
            code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except Deadline:
        code = None
    except Exception:
        # what a user would see: Python exits with 1 on an uncaught exception
        code = 1
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return code, out.getvalue(), time.perf_counter() - t0, time.process_time() - c0


def expected_decision(command: str, truth: str) -> str:
    if command == "decisive":
        return "DECISIVE" if truth == workloads.UNCOLORABLE else "NOT-DECISIVE"
    return truth


def run_job(cli, job, path: str, answer: dict, tracer=None) -> dict:
    """Run a job's commands, check their outputs, and return the sample."""
    sample = {"seconds": 0.0, "status": "ok", "problems": [], "counters": [], "traced": tracer is not None}
    budget = job.deadline_s
    decisions = []
    for argv in job.commands:
        full = list(argv) + [path]
        if tracer is None:
            code, text, seconds, cpu = call_nrc(cli, full, budget)
        else:
            with tracer.installed(cli), tracer.span("cli", "main", instance=job.id) as root_span:
                code, text, seconds, cpu = call_nrc(cli, full, budget)
                if code is None:
                    root_span["status"] = Deadline.__name__
        sample["seconds"] += seconds
        budget -= cpu
        if code is None:
            sample["status"] = "deadline"
            sample["problems"].append(f"deadline {job.deadline_s} CPU s hit in nrc {argv[0]}")
            return sample
        parsed, problems = checker.check_run(
            code, text, answer["data"], expected_decision(argv[0], answer["truth"])
        )
        witnesses = parsed["counters"].get("witnesses")
        if answer["witnesses"] is not None and witnesses is not None and witnesses != answer["witnesses"]:
            problems.append(f"{witnesses} witnesses, naive count is {answer['witnesses']}")
        sample["problems"] += [f"nrc {argv[0]}: {p}" for p in problems]
        sample["counters"].append(parsed["counters"])
        decisions.append(parsed["decision"])
    if len(set(decisions)) > 1:
        sample["problems"].append(f"commands disagree: {decisions}")
    if sample["problems"]:
        sample["status"] = "wrong"
    return sample


# ---------------------------------------------------------------------------
# the timed loop


def measure(cli, workload, paths, answers, seconds: float, traced: bool) -> dict:
    """Cycle over the jobs until `seconds` have passed, after at least one
    full pass. A job that hit its deadline is not run again: its one sample
    already counts the whole deadline. A traced run runs each job twice in a
    row, traced and untraced, in an order that alternates between jobs and
    between passes; the spans of its first pass cover every job."""
    jobs = workload.jobs
    samples = {job.id: [] for job in jobs}
    timed_out: set[str] = set()
    tracer = spans.Tracer() if traced else None
    first_pass_spans = 0
    previous = signal.signal(signal.SIGPROF, _on_alarm)
    t_start = time.perf_counter()
    i = 0
    while len(timed_out) < len(jobs) and (i < len(jobs) or time.perf_counter() - t_start < seconds):
        job = jobs[i % len(jobs)]
        hg = job.instance
        modes = [None]
        if traced:
            modes = [tracer, None] if (i + i // len(jobs)) % 2 == 0 else [None, tracer]
        for mode in modes:
            # the first pass traces every job, even one that just timed out untraced
            if job.id in timed_out and not (mode is not None and i < len(jobs)):
                continue
            sample = run_job(cli, job, paths[hg], answers[hg], mode)
            samples[job.id].append(sample)
            if sample["status"] == "deadline":
                timed_out.add(job.id)
        i += 1
        if i == len(jobs) and traced:
            first_pass_spans = len(tracer.spans)
    signal.signal(signal.SIGPROF, previous)
    return {"samples": samples, "tracer": tracer, "first_pass_spans": first_pass_spans}


# ---------------------------------------------------------------------------
# report


def machine_info(root: Path) -> dict:
    # imported only once the metrics are taken: hashlib loads OpenSSL, which
    # alone adds about 3.5 MB to the peak RSS the run reports
    import hashlib

    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    # git is asked only inside a checkout of its own, so that it never
    # reports the commit of a repository that happens to enclose this one
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    # names the code measured where there is no commit to name it
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "norainbow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def counter_report(workload, samples) -> tuple[dict, list[str]]:
    """Each job's search counters, and every place they fail to repeat:
    across samples of this run, or against the stored baseline."""
    stored = json.loads(BASELINE_FILE.read_text()).get(workload.name, {}) if BASELINE_FILE.exists() else {}
    counters, notes = {}, []
    for job_id, runs in samples.items():
        seen = [s["counters"] for s in runs if s["status"] != "deadline"]
        if not seen:
            continue
        counters[job_id] = seen[0]
        if any(c != seen[0] for c in seen):
            notes.append(f"counters differ between samples of {job_id}: {seen}")
        if job_id in stored and stored[job_id] != seen[0]:
            notes.append(f"counter diff for {job_id}: baseline {stored[job_id]}, now {seen[0]}")
    missing = len(set(counters) - set(stored))
    if missing:
        notes.append(f"no stored counters for {missing} of {len(counters)} jobs")
    return counters, notes


def baseline_text(stored: dict) -> str:
    """The baseline file as JSON with one line per job."""
    blocks = []
    for name in sorted(stored):
        jobs = stored[name]
        lines = [f"  {json.dumps(job)}: {json.dumps(jobs[job], sort_keys=True)}" for job in sorted(jobs)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def e2e_metrics(samples, setup_s: float) -> dict[str, tuple[float, str]]:
    # a job gets two to four samples a run; their mean follows the run's
    # speed more steadily than their median
    per_job = [statistics.fmean(s["seconds"] for s in runs) for runs in samples.values()]
    solved = [sum(s["status"] == "ok" for s in runs) / len(runs) for runs in samples.values()]
    return {
        "wall_s": (sum(per_job), "s"),
        "decide_s_p50": (statistics.median(per_job), "s"),
        "solved_frac": (sum(solved) / len(solved), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wrong_samples(samples) -> list[tuple[str, dict]]:
    """The samples whose output was wrong, which the result line counts as
    failed. A deadline hit is an answer not given in time, not a wrong one:
    it counts in solved_frac and wall_s instead."""
    return [(job_id, s) for job_id, runs in samples.items() for s in runs if s["status"] == "wrong"]


def layer_unit(name: str) -> str:
    if "us_per_" in name:
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if "_per_" in name or name.endswith("_frac"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def traced_metrics(result, gen_s: float) -> dict[str, tuple[float, str]]:
    first_pass = result["tracer"].spans[: result["first_pass_spans"]]
    metrics = spans.layer_metrics(first_pass, gen_s)
    # overhead over jobs that finished every sample, traced and untraced
    t_on = t_off = 0.0
    for runs in result["samples"].values():
        if any(s["status"] != "ok" for s in runs):
            continue
        on = [s["seconds"] for s in runs if s["traced"]]
        off = [s["seconds"] for s in runs if not s["traced"]]
        t_on += statistics.median(on)
        t_off += statistics.median(off)
    metrics["trace.overhead_frac"] = t_on / t_off - 1 if t_off else 0.0
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-baseline", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "norainbow" / "cli.py").is_file():
        fail(f"no package source at {root / 'src' / 'norainbow'}; run from the repository root")
    out_dir = BENCH_DIR / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.plan(args.workload, args.seed)

    setup = set_up(workload, root, out_dir / "corpus" / f"{args.workload}-seed{args.seed}")
    sys.path.insert(0, str(root / "src"))
    import norainbow.cli as cli

    if Path(cli.__file__).resolve().parent != (root / "src" / "norainbow").resolve():
        fail(f"imported norainbow from {cli.__file__}, not from ./src")
    answers = known_answers(workload, setup["paths"])

    result = measure(cli, workload, setup["paths"], answers, args.seconds, bool(args.trace))
    samples = result["samples"]
    if args.trace:
        metrics = traced_metrics(result, setup["gen_s"])
        result["tracer"].dump(out_dir / f"{stem}.spans.jsonl")
    else:
        metrics = e2e_metrics(samples, setup["setup_s"])

    all_samples = [s for runs in samples.values() for s in runs]
    wrong = wrong_samples(samples)
    unsolved = sum(s["status"] == "deadline" for s in all_samples)
    counters, notes = counter_report(workload, samples)
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_info(root),
        "setup": {k: setup[k] for k in ("setup_s", "gen_s", "reps")},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "counters": counters,
        "counter_notes": notes,
        "jobs": {
            job_id: [{k: s[k] for k in ("seconds", "status", "problems", "traced")} for s in runs]
            for job_id, runs in samples.items()
        },
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.update_baseline:
        stored = json.loads(BASELINE_FILE.read_text()) if BASELINE_FILE.exists() else {}
        stored.setdefault(workload.name, {}).update(counters)
        BASELINE_FILE.write_text(baseline_text(stored))

    print(f"workload {workload.name} seed {workload.seed}, trace {args.trace}")
    print(f"machine {json.dumps(report['machine'])}")
    for job_id, runs in samples.items():
        bad = sum(s["status"] != "ok" for s in runs)
        mean = statistics.fmean(s["seconds"] for s in runs)
        print(f"  {job_id}: {len(runs)} samples, mean {mean:.4f} s, {bad} unsolved")
    for job_id, s in wrong:
        print(f"WRONG {job_id}: {'; '.join(s['problems'])}")
    for note in notes:
        print(note)
    print(f"{len(all_samples)} samples over {len(samples)} jobs, {unsolved} deadline hits, {len(wrong)} wrong")
    for name, (value, unit) in metrics.items():
        count = f" (over {len(samples)} jobs, {len(all_samples)} samples)" if name == "decide_s_p50" else ""
        print(f"  {name} = {value:.6g} {unit}{count}")
    print(json.dumps({"correct": not wrong, "attempted": len(all_samples), "failed": len(wrong), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
