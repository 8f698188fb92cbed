"""Command-line front end.

``rclcheck CONTRACT.rcl`` checks a contract file and reports the first
conflict with its trace.  Exit codes: 0 conflict-free, 1 conflicts found,
2 unreadable or unparsable input or an unwritable output file, 3
inconclusive (budget exhausted), 64 bad command line, 70 internal error.
Every input ends in one of these codes, never in a traceback.

Subcommands ``generate`` and ``bench`` produce random contracts and CSV
benchmark records; ``check`` may be spelled explicitly.
"""
from __future__ import annotations

import argparse
import io
import math
import sys
from typing import Sequence

from .automaton import BuildOptions, export_dot, render_label
from .bench import BenchGroup, bench, write_csv
from .conflicts import CheckOutcome, ConflictReport, VerdictKind, build_check, run_check
from .generator import generate
from .parser import parse, render, render_formula

EXIT_CONFLICT_FREE = 0
EXIT_CONFLICTS = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_INTERNAL_ERROR = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a finite number above 0: {text!r}")
    return value


def _positive_range(text: str) -> list[int]:
    """A positive count ``N`` or an inclusive, nonempty range ``N..M``."""
    lo, dots, hi = text.partition("..")
    first, last = _positive_int(lo), _positive_int(hi if dots else lo)
    if first > last:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return list(range(first, last + 1))


def _write(path: str, text: str) -> bool:
    """Write an output file; on failure say why on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _check_parser() -> _Parser:
    p = _Parser(prog="rclcheck", description="Check an RCL contract for deontic conflicts.")
    p.add_argument("input", help="contract file")
    p.add_argument("-c", "--complete", action="store_true",
                   help="explore the whole automaton and report every conflict")
    p.add_argument("-g", "--dot", metavar="PATH",
                   help="export the constructed automaton to a DOT file")
    p.add_argument("-n", "--no-pruning", action="store_true",
                   help="concrete reference mode: step over every subset of the action "
                        "universe, not one witness step per cube of a state's tests")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print state formulas and transition action sets")
    p.add_argument("--budget", type=_positive_int, metavar="N",
                   help="state and transition budget before giving up")
    return p


def _format_trace(report: ConflictReport) -> str:
    parts = [f"s{report.trace[0].state}"]
    for step in report.trace[1:]:
        parts.append(f"-T{step.via}->")
        parts.append(f"s{step.state}")
    return " ".join(parts)


def _print_report(report: ConflictReport, outcome: CheckOutcome, verbose: bool) -> None:
    print("Conflict found in the contract.")
    print(f"State: s{report.state}")
    print(f"Conflict between: {report.left_clause} AND {report.right_clause}")
    print(f"Trace: {_format_trace(report)}")
    if verbose:
        automaton = outcome.automaton
        for step in report.trace:
            print(f"  s{step.state}: {render_formula(automaton.formulas[step.state])}")
            if step.via is not None:
                print(f"  T{step.via}: {render_label(step.label)}")


def _run_check(args: argparse.Namespace) -> int:
    try:
        # ``utf-8-sig`` drops the byte-order mark that some editors write.
        with open(args.input, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        print(f"error: cannot read {args.input}: {reason}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    result = parse(text)
    for diag in result.diagnostics:
        print(f"{args.input}:{diag}", file=sys.stderr)
    if result.spec is None:
        return EXIT_INPUT_ERROR

    budget = {}
    if args.budget is not None:
        budget = {"max_states": args.budget, "max_transitions": args.budget}
    options = BuildOptions(complete=args.complete, no_pruning=args.no_pruning, **budget)
    outcome = run_check(result.spec, options)
    verdict = outcome.verdict
    automaton = outcome.automaton
    if args.dot and not automaton.n_states:
        # Decided before building: build as far as the budget goes to export.
        automaton = build_check(result.spec, options).automaton
    if args.dot and not _write(args.dot, export_dot(automaton, verbose=args.verbose)):
        return EXIT_INPUT_ERROR

    if verdict.kind is VerdictKind.CONFLICT_FREE:
        print("No conflict detected.")
        if args.verbose and verdict.reason:
            print(f"({verdict.reason})")
        return EXIT_CONFLICT_FREE
    if verdict.kind is VerdictKind.CONFLICTS:
        for i, report in enumerate(verdict.reports):
            if i:
                print()
            _print_report(report, outcome, args.verbose)
        return EXIT_CONFLICTS
    print(f"Verification inconclusive: {verdict.reason}")
    return EXIT_INCONCLUSIVE


def _generate_parser() -> _Parser:
    p = _Parser(prog="rclcheck generate", description="Generate a random RCL contract.")
    p.add_argument("--individuals", type=_positive_int, required=True)
    p.add_argument("--actions", type=_positive_int, required=True)
    p.add_argument("--clauses", type=_positive_int, default=3)
    p.add_argument("--max-depth", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="write the contract here instead of stdout")
    return p


def _run_generate(args: argparse.Namespace) -> int:
    spec = generate(
        individuals=args.individuals,
        actions=args.actions,
        clauses=args.clauses,
        max_depth=args.max_depth,
        seed=args.seed,
    )
    text = render(spec)
    if not args.out:
        sys.stdout.write(text)
    elif not _write(args.out, text):
        return EXIT_INPUT_ERROR
    return 0


def _bench_parser() -> _Parser:
    p = _Parser(prog="rclcheck bench",
                description="Check groups of random contracts and emit CSV records.")
    p.add_argument("--individuals", type=_positive_range, required=True,
                   help="count or inclusive range, e.g. 8 or 5..12")
    p.add_argument("--actions", type=_positive_range, required=True,
                   help="count or inclusive range")
    p.add_argument("--clauses", type=_positive_int, default=3)
    p.add_argument("--max-depth", type=_positive_int, default=3)
    p.add_argument("--runs", type=_positive_int, default=10, help="runs per group")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--budget", type=_positive_int, help="state and transition budget per run")
    p.add_argument("--time-limit", type=_positive_seconds,
                   help="wall-clock limit per run, seconds")
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    return p


def _run_bench(args: argparse.Namespace) -> int:
    groups = [
        BenchGroup(individuals=n, actions=m, clauses=args.clauses, max_depth=args.max_depth)
        for n in args.individuals
        for m in args.actions
    ]
    rows = bench(
        groups,
        runs_per_group=args.runs,
        base_seed=args.seed,
        budget=args.budget,
        time_limit=args.time_limit,
    )
    text = io.StringIO()
    write_csv(rows, text)
    if not args.out:
        sys.stdout.write(text.getvalue())
    elif not _write(args.out, text.getvalue()):
        return EXIT_INPUT_ERROR
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parsers = {
        "check": (_check_parser, _run_check),
        "generate": (_generate_parser, _run_generate),
        "bench": (_bench_parser, _run_bench),
    }
    command = argv.pop(0) if argv and argv[0] in parsers else "check"
    make_parser, run = parsers[command]
    try:
        args = make_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        make_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # -h/--help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return run(args)
    except Exception as exc:  # a crash must not read as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
