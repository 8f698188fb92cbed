"""Workload definitions: the contracts each workload checks, their budgets,
and the answers that are known independently of the run.

A workload is a list of jobs.  A job is the RCL text handed to the checker,
the build options, and what the verdict must be when that is known by hand
or from the brute-force oracle.  Budgets are counts only: ``time_limit`` is
never set, so verdicts do not depend on the machine.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import median

from rclcheck import BuildOptions, generate, oracle_verdict, relevant_universe, render
from rclcheck.decompose import prepare
from rclcheck.parser import parse_or_raise

WORKLOADS = ("fixtures", "oracle-2x2", "smoke-8x10")

# Contracts per oracle-2x2 pass.  Across base seeds the work in a set of
# this size (summed transitions) varies by about 3%, so a run does not
# depend on which contracts the seed happened to draw.
ORACLE_CONTRACTS = 3000
ORACLE_MAX_LEN = 4

# The two seed groups of acceptance criterion 7.  They are fixed, not drawn
# from the run's seed: with 20 contracts of 0.5-3 s each and 3 of 20
# decided, a fresh draw per run would move every metric by more than any
# bound the benchmark could hold.
SMOKE_SEEDS = tuple(range(0, 10)) + tuple(range(100, 110))

FIXTURE_BUDGET = 20_000
SMOKE_BUDGET = 20_000


@dataclass(frozen=True)
class Expected:
    """An answer known without running the engine.  ``None`` fields are
    not checked.  ``beyond`` is the trace bound of a search that found no
    conflict: a conflict reached in more steps than that is also right."""

    verdict: str
    state: int | None = None
    clash: tuple[str, str] | None = None
    reports: int | None = None
    beyond: int | None = None


@dataclass(frozen=True)
class Job:
    name: str
    text: str
    options: BuildOptions
    expected: Expected | None = None


@dataclass(frozen=True)
class Inputs:
    jobs: tuple[Job, ...]
    root_universe: tuple[int, ...]  # per job, size of the root step universe


def _budget(n: int, complete: bool = False) -> BuildOptions:
    return BuildOptions(complete=complete, max_states=n, max_transitions=n)


def _fixture_jobs(root: Path) -> list[Job]:
    def read(name: str) -> str:
        return (root / "contracts" / name).read_text(encoding="utf-8")

    sales = read("sales-contract.rcl")
    amended = read("sales-contract-amended.rcl")
    simple = read("simple-example.rcl")
    first, complete = _budget(FIXTURE_BUDGET), _budget(FIXTURE_BUDGET, complete=True)
    return [
        Job("sales-first", sales, first,
            Expected("conflicts", state=13,
                     clash=("{c,b}F(deliverProduct)", "{c,b}O(deliverProduct)"))),
        Job("sales-complete", sales, complete, Expected("conflicts", reports=4)),
        Job("amended-first", amended, first, Expected("conflict-free")),
        Job("simple-first", simple, first,
            Expected("conflicts", clash=("{i,j}O(e)", "{i,j}O(f)"))),
        # Uses up its budget on 8 states; no verdict is known by hand.
        Job("simple-complete", simple, complete),
    ]


def _random_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "oracle-2x2":
        base = seed * ORACLE_CONTRACTS
        shape = [(s, dict(individuals=2, actions=2, clauses=1 + s % 2, max_depth=3))
                 for s in range(base, base + ORACLE_CONTRACTS)]
        options = BuildOptions()
    else:
        shape = [(s, dict(individuals=8, actions=10, clauses=4, max_depth=3))
                 for s in SMOKE_SEEDS]
        options = _budget(SMOKE_BUDGET)
    return [Job(f"seed-{s}", render(generate(seed=s, **params)), options)
            for s, params in shape]


def build(workload: str, seed: int, root: Path) -> Inputs:
    """Generate, render and parse a workload's inputs (the timed set-up)."""
    if workload == "fixtures":
        jobs = _fixture_jobs(root)
    elif workload in WORKLOADS:
        jobs = _random_jobs(workload, seed)
    else:
        raise ValueError(f"unknown workload: {workload}")
    universe = []
    for job in jobs:
        spec = parse_or_raise(job.text)
        universe.append(len(relevant_universe(prepare(spec.root()), spec.effective_individuals)))
    return Inputs(tuple(jobs), tuple(universe))


def with_oracle(jobs: tuple[Job, ...]) -> tuple[Job, ...]:
    """Attach the brute-force oracle's verdict to every job that has no
    hand-known answer.  Only practical at oracle scale."""
    out = []
    for job in jobs:
        if job.expected is None:
            found = oracle_verdict(parse_or_raise(job.text), max_len=ORACLE_MAX_LEN)
            expected = (Expected("conflicts") if found.conflict
                        else Expected("conflict-free", beyond=ORACLE_MAX_LEN))
            job = Job(job.name, job.text, job.options, expected)
        out.append(job)
    return tuple(out)


def universe_summary(inputs: Inputs) -> tuple[float, int]:
    return median(inputs.root_universe), max(inputs.root_universe)
