"""The benchmark workloads: which instances, which nrc commands, what
answer is correct, and how long each job may take.

A workload seed gives the same corpus every time. Where the program's work
would change with a fresh instance by more than the benchmark's bounds (det
search order follows node labels), the instances are pinned and the seed
only shuffles edge lines and job order; elsewhere it draws the instances or
the solver seed.

Each workload joins two job groups, so that a run is long enough to average
over the minutes-long swings in a shared machine's speed: `det` runs every
det job (refute and find), `rand-oracle` the rand walks and the oracle
cross-check, in which det takes under 1% of the time.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("det", "rand-oracle")


@dataclass(frozen=True)
class Instance:
    family: str  # random | planted | complete
    n: int
    r: int
    m: int = 0
    seed: int = 0
    # the known decision: by construction (planted, complete) or recorded
    # with checker.count_witnesses; None means count the witnesses each run
    truth: str | None = None

    @property
    def spec(self) -> str:
        if self.family == "complete":
            return f"complete:r={self.r},n={self.n}"
        return f"{self.family}:r={self.r},n={self.n},m={self.m},seed={self.seed}"

    @property
    def file_name(self) -> str:
        return self.spec.replace(":", "_").replace(",", "_").replace("=", "") + ".nrc"

    def gen_argv(self) -> list[str]:
        argv = ["gen", self.family, "--n", str(self.n), "--r", str(self.r)]
        if self.family != "complete":
            argv += ["--m", str(self.m), "--seed", str(self.seed)]
        return argv


@dataclass(frozen=True)
class Job:
    """One decide job: nrc commands run back to back on one instance. The
    instance path is appended to each command."""

    name: str
    instance: Instance
    commands: tuple[tuple[str, ...], ...]
    deadline_s: float  # CPU seconds; a job still running then counts as unsolved

    @property
    def id(self) -> str:
        extra = [a for a in self.commands[0][1:] if a != "--stats"]
        return " ".join([self.name, self.instance.spec] + extra)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple[Job, ...]

    @property
    def instances(self) -> list[Instance]:
        return list(dict.fromkeys(job.instance for job in self.jobs))


UNCOLORABLE = "UNCOLORABLE"
COLORABLE = "COLORABLE"
SOLVE = ("solve", "--stats")


def _det_refute(seed: int) -> list[Job]:
    """Uncolorable inputs: det explores every start."""
    # the two random baselines were counted uncolorable by count_witnesses
    dense3 = Instance("random", 18, 3, 244, 0, UNCOLORABLE)
    dense4 = Instance("random", 12, 4, 247, 0, UNCOLORABLE)
    complete = Instance("complete", 16, 3, truth=UNCOLORABLE)
    jobs = [Job("solve", hg, (SOLVE,), 10.0) for hg in (dense3, dense4, complete)]
    return jobs + [Job("decisive", dense4, (("decisive",),), 10.0)]


def _det_find(seed: int) -> list[Job]:
    """Planted inputs, consecutive generator seeds, unfiltered: det has to
    find a certificate. Solved ones take at most 1.45 s, the others more
    than 5 s, so the deadline sits well clear of both."""
    planted = [Instance("planted", n, 3, 30 * n, s, COLORABLE) for n in (30, 40, 50, 60, 70, 80) for s in (0, 1)]
    planted += [Instance("planted", n, 4, 60 * n, s, COLORABLE) for n in (30, 35, 40) for s in (0, 1)]
    # the ROADMAP hang: a certificate exists at radius 0 from start (1,2,21)
    hang = Instance("random", 200, 3, 20000, 1, COLORABLE)
    return [Job("solve", hg, (SOLVE,), 2.7) for hg in planted + [hang]]


def _rand_refute(seed: int) -> list[Job]:
    """Uncolorable inputs: every rand start runs. The seed is the walk seed."""
    # counted uncolorable by count_witnesses
    dense = [Instance("random", 12, 3, m, s, UNCOLORABLE) for m, s in ((120, 0), (140, 1), (160, 2))]
    argv = SOLVE + ("--algo", "rand", "--alpha", "1.01", "--seed", str(seed))
    return [Job("solve", hg, (argv,), 10.0) for hg in dense]


def _oracle_crosscheck(seed: int) -> list[Job]:
    """nrc oracle against nrc solve; the seed draws six of the seven instances."""
    shapes = ((12, 24, 3), (12, 20, 3), (11, 20, 3), (10, 20, 3), (9, 20, 4), (8, 15, 4))
    drawn = [Instance("random", n, r, m, 1000 * seed + i) for i, (n, m, r) in enumerate(shapes)]
    corpus = [Instance("random", 10, 4, 20, 7)] + drawn
    return [Job("crosscheck", hg, (("oracle",), SOLVE), 15.0) for hg in corpus]


_PLANS = {
    "det": (_det_refute, _det_find),
    "rand-oracle": (_rand_refute, _oracle_crosscheck),
}


def plan(name: str, seed: int) -> Workload:
    """The workload's jobs in the seed's order."""
    if name not in _PLANS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    jobs = [job for group in _PLANS[name] for job in group(seed)]
    random.Random(seed).shuffle(jobs)
    return Workload(name, seed, tuple(jobs))
