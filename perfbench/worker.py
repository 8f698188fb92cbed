"""One workload run in a fresh interpreter.

Started by ``run.py``, never imported.  It times its own set-up (importing
rclcheck, then generating, rendering and parsing the inputs), runs whole
passes over the workload's jobs until the time is used, verifies every
verdict, and prints one JSON object on stdout.

    python3 perfbench/worker.py --workload fixtures --seed 0 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload fixtures --seed 0 --setup-only
"""
from time import perf_counter

import speed

_BEFORE_S = speed.reference_s()
_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median, quantiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import rclcheck  # noqa: E402

if not Path(rclcheck.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"rclcheck was not loaded from {SRC}")

import workloads  # noqa: E402
from rclcheck.conflicts import search_conflicts  # noqa: E402
from rclcheck.decompose import decompose, deontic_tags, prepare  # noqa: E402
from tracer import Tracer  # noqa: E402

conflicts = sys.modules["rclcheck.conflicts"]
parser = sys.modules["rclcheck.parser"]


def report_text(outcome) -> str:
    """The text ``rclcheck FILE`` prints for a verdict."""
    verdict = outcome.verdict
    if verdict.kind.value == "conflict-free":
        return "No conflict detected."
    if verdict.kind.value == "inconclusive":
        return f"Verification inconclusive: {verdict.reason}"
    blocks = []
    for report in verdict.reports:
        trace = [f"s{report.trace[0].state}"]
        for step in report.trace[1:]:
            trace += [f"-T{step.via}->", f"s{step.state}"]
        blocks.append(
            "Conflict found in the contract.\n"
            f"State: s{report.state}\n"
            f"Conflict between: {report.left_clause} AND {report.right_clause}\n"
            f"Trace: {' '.join(trace)}"
        )
    return "\n\n".join(blocks)


def check(job):
    """One check as the command line runs it: parse the text, build and
    search the automaton, and build the report.  Looked up through the
    modules, so a traced pass sees the wrapped functions."""
    spec = parser.parse(job.text).spec
    outcome = conflicts.run_check(spec, job.options)
    return spec, outcome, report_text(outcome)


def summary(outcome, text):
    """What must repeat exactly between passes of the same check."""
    automaton = outcome.automaton
    edges = {(t.source, t.target) for t in automaton.transitions}
    return (outcome.verdict.kind.value, automaton.n_states,
            len(automaton.transitions), len(edges), len(outcome.verdict.reports), text)


def verify(job, spec, outcome) -> list[str]:
    """Problems with one verdict; empty when it is right.

    Every conflict report is replayed from the root through ``prepare`` and
    ``decompose`` along its trace labels, and the state reached must clash.
    """
    problems = []
    verdict = outcome.verdict
    kind = verdict.kind.value
    expected = job.expected
    if expected is not None and kind != "inconclusive":
        if kind != expected.verdict:
            steps = len(verdict.reports[0].trace) - 1 if verdict.reports else 0
            if kind != "conflicts" or expected.beyond is None or steps <= expected.beyond:
                problems.append(f"verdict {kind}, expected {expected.verdict}")
        elif verdict.reports:
            first = verdict.reports[0]
            if expected.state is not None and first.state != expected.state:
                problems.append(f"conflict at s{first.state}, expected s{expected.state}")
            clash = (first.left_clause, first.right_clause)
            if expected.clash is not None and clash != expected.clash:
                problems.append(f"clash {clash}, expected {expected.clash}")
            if expected.reports is not None and len(verdict.reports) != expected.reports:
                problems.append(f"{len(verdict.reports)} reports, expected {expected.reports}")
    individuals = spec.effective_individuals
    for report in verdict.reports:
        state = prepare(spec.root())
        for step in report.trace[1:]:
            state = prepare(decompose(state, step.label, individuals, spec.actions))
        if search_conflicts(deontic_tags(state), spec.conflicts) is None:
            problems.append(f"replayed trace to s{report.state} reaches no clash")
    return problems


class Run:
    """Whole passes over the jobs, each check timed; the first pass is the
    reference that every later pass must repeat exactly."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.pace = speed.Pace()
        self.reference = [None] * len(self.jobs)
        self.problems = {}  # job index -> problems, from the first pass
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.errors = []

    def one_pass(self):
        """Returns the pass's wall time, and its per-check times both raw
        and scaled to the host's nominal speed."""
        gc.collect()
        spans = []
        self.pace.sample()
        started = perf_counter()
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            t0 = perf_counter()
            try:
                spec, outcome, text = check(job)
            except Exception as exc:  # a crash is a failed check, not a dead run
                spans.append((t0, perf_counter()))
                self.failed += 1
                self.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
                continue
            spans.append((t0, perf_counter()))
            record = summary(outcome, text)
            if self.reference[i] is None:
                self.reference[i] = record
                self.problems[i] = verify(job, spec, outcome)
                for problem in self.problems[i]:
                    self.errors.append(f"{job.name}: {problem}")
            elif record != self.reference[i]:
                self.errors.append(f"{job.name}: not deterministic: {record[:5]} "
                                   f"after {self.reference[i][:5]}")
                self.problems[i] = self.problems[i] or ["not deterministic"]
            if self.problems[i]:
                self.failed += 1
            if record[0] != "inconclusive":
                self.decided += 1
        wall = perf_counter() - started
        self.pace.sample()
        raw, scaled = zip(*(self.pace.timed(*span) for span in spans))
        return wall, raw, scaled

    def passes(self, seconds, least, on_pass=None):
        """Whole passes until ``seconds`` are used, and at least ``least``.
        Returns the raw and the scaled check times of each pass."""
        raw, scaled = [], []
        elapsed = 0.0
        with self.pace.running():
            while len(raw) < least or elapsed < seconds:
                wall, raw_times, scaled_times = self.one_pass()
                raw.append(raw_times)
                scaled.append(scaled_times)
                if on_pass is not None:
                    on_pass()
                elapsed += wall
        return raw, scaled


def timing(passes, per_job):
    """Each check's time is its mean over the passes, scaled to the host's
    nominal speed (``speed.py``).  Only check time counts, not the
    bookkeeping between checks."""
    raw, scaled = passes
    per_check = [mean(times) for times in zip(*scaled)]
    out = {
        "passes": len(scaled),
        "wall_checks_per_s": len(scaled) * len(per_check) / sum(map(sum, raw)),
        "checks_per_s": len(per_check) / sum(per_check),
        "check_s.p50": median(per_check),
    }
    if len(per_check) >= 100:  # at least ten checks beyond the p90
        out["check_s.p90"] = quantiles(per_check, n=10)[-1]
    if per_job:
        for job, seconds in zip(per_job, per_check):
            out[f"check_s.p50.{job}"] = seconds
    return out


def layers(run, inputs, tracer_passes, untraced_rate, traced_rate):
    records = [r for r in run.reference if r is not None]
    states = sum(r[1] for r in records)
    transitions = sum(r[2] for r in records)
    edges = sum(r[3] for r in records)
    first = tracer_passes[0]
    universe_p50, universe_max = workloads.universe_summary(inputs)
    out = {
        "automaton.states": states,
        "automaton.transitions": transitions,
        "automaton.new_state_ratio": states / max(transitions, 1),
        "automaton.distinct_edge_ratio": edges / max(transitions, 1),
        "automaton.root_universe.p50": universe_p50,
        "automaton.root_universe.max": universe_max,
        "automaton.budget_exhausted": sum(r[0] == "inconclusive" for r in records),
        "automaton.enumerate.steps": first["calls"].get("automaton.enumerate", 0),
        "conflicts.reports": sum(r[4] for r in records),
        "trace.overhead": traced_rate / untraced_rate,
    }
    for name in ("decompose.decompose", "decompose.prepare", "decompose.deontic_tags",
                 "formula.canonicalize", "conflicts.search", "parser.parse",
                 "decompose.trigger_matched"):
        out[f"{name}.calls"] = first["calls"].get(name, 0)
    for name in ("automaton.enumerate", "automaton.construct", "decompose.decompose",
                 "decompose.prepare", "decompose.rewrite_compound", "decompose.deontic_tags",
                 "formula.canonicalize", "conflicts.search", "conflicts.trace_to",
                 "conflicts.render_tag", "conflicts.run_check", "parser.parse"):
        out[f"{name}.self_s"] = mean([p["self"].get(name, 0.0) for p in tracer_passes])
    chars = sum(len(job.text) for job in run.jobs)
    out["parser.chars_per_s"] = chars / out["parser.parse.self_s"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inputs = workloads.build(args.workload, args.seed, ROOT)
    setup_s = perf_counter() - _STARTED
    setup_s *= speed.NOMINAL_S / ((_BEFORE_S + speed.reference_s()) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    jobs = inputs.jobs
    if args.workload == "oracle-2x2":
        jobs = workloads.with_oracle(jobs)

    run = Run(jobs)
    result = {"setup_s": setup_s}
    if args.trace == 0:
        untraced = run.passes(args.seconds, least=2)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_job = [job.name for job in jobs] if args.workload == "fixtures" else None
        result.update(timing(untraced, per_job))
    else:
        untraced = run.passes(args.seconds / 2, least=1)
        tracer = Tracer()
        per_pass = []

        def collect():
            per_pass.append({"calls": dict(tracer.calls), "self": dict(tracer.self_time)})
            tracer.reset()

        with tracer.installed():
            traced = run.passes(args.seconds / 2, least=1, on_pass=collect)
        result.update(layers(run, inputs, per_pass,
                             timing(untraced, None)["checks_per_s"],
                             timing(traced, None)["checks_per_s"]))

    result.update(
        attempted=run.attempted,
        failed=run.failed,
        decided_share=run.decided / run.attempted,
        failed_share=run.failed / run.attempted,
        verdicts=Counter(r[0] for r in run.reference if r is not None),
        root_universe=list(workloads.universe_summary(inputs)),
        errors=run.errors[:20],
        host_slowdown=run.pace.slowdown(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
