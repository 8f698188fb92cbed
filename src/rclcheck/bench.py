"""Randomized benchmark runs with CSV accounting.

Every run is recorded, including the ones that exhaust their budget: an
unfinished check is a data point, not a dropped sample.
"""
from __future__ import annotations

import csv
import time
from typing import IO, Iterable, NamedTuple

from .automaton import BuildOptions
from .conflicts import VerdictKind, run_check
from .generator import generate


class BenchGroup(NamedTuple):
    """One experiment group: every run draws a fresh seed at these sizes."""

    individuals: int
    actions: int
    clauses: int = 3
    max_depth: int = 3
    label: str = ""

    def name(self) -> str:
        return self.label or f"i{self.individuals}-a{self.actions}"


CSV_FIELDS = (
    "group",
    "seed",
    "individuals",
    "actions",
    "clauses",
    "max_depth",
    "verdict",
    "conflicts",
    "states",
    "transitions",
    "time_s",
    "finished",
)


def bench(
    groups: Iterable[BenchGroup],
    runs_per_group: int,
    base_seed: int = 0,
    budget: int | None = None,
    time_limit: float | None = None,
) -> list[dict]:
    """Generate, check and measure ``runs_per_group`` contracts per group."""
    limits = {}
    if budget is not None:
        limits = {"max_states": budget, "max_transitions": budget}
    options = BuildOptions(time_limit=time_limit, **limits)
    rows: list[dict] = []
    seed = base_seed
    for group in groups:
        for _ in range(runs_per_group):
            spec = generate(
                individuals=group.individuals,
                actions=group.actions,
                clauses=group.clauses,
                max_depth=group.max_depth,
                seed=seed,
            )
            started = time.perf_counter()
            outcome = run_check(spec, options)
            elapsed = time.perf_counter() - started
            verdict = outcome.verdict
            rows.append(
                {
                    "group": group.name(),
                    "seed": seed,
                    "individuals": group.individuals,
                    "actions": group.actions,
                    "clauses": group.clauses,
                    "max_depth": group.max_depth,
                    "verdict": verdict.kind.value,
                    "conflicts": len(verdict.reports),
                    "states": outcome.automaton.n_states,
                    "transitions": len(outcome.automaton.transitions),
                    "time_s": f"{elapsed:.4f}",
                    "finished": verdict.kind is not VerdictKind.INCONCLUSIVE,
                }
            )
            seed += 1
    return rows


def write_csv(rows: list[dict], out: IO[str]) -> None:
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
