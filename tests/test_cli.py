from __future__ import annotations

import csv
import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclcheck import BuildOptions, construct, export_dot, parse_or_raise, run_check
from rclcheck.cli import main
from rclcheck.conflicts import clash_free_tag_count

from conftest import CONTRACTS, REPO_ROOT
from dot_grammar import validate_dot
from strategies import mutated_contracts, token_soup


def test_the_command_line_starts_without_dataclass_machinery():
    # ``dataclasses`` imports ``inspect``, ``ast`` and ``dis``, and every
    # dataclass execs generated code when it is defined; a run pays both.
    code = "import sys, rclcheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_conflict_free_contract_exits_zero(capsys, tmp_path):
    path = tmp_path / "ok.rcl"
    path.write_text("{i,j}O(a+b) ^ {i,j}F(b);\n")
    code, out, _ = run(capsys, str(path))
    assert code == 0
    assert out.strip() == "No conflict detected."


def test_conflicting_contract_report_shape(capsys):
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract.rcl"))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "Conflict found in the contract."
    assert lines[1].startswith("State: s")
    assert lines[2].startswith("Conflict between: ")
    assert " AND " in lines[2]
    assert "deliverProduct" in lines[2]
    assert lines[3].startswith("Trace: s0 -T")


def test_readme_sample_report_is_the_sales_contract_report(capsys):
    readme = (CONTRACTS.parent / "README.md").read_text()
    sample = readme.split("A conflict report looks like:\n\n```\n", 1)[1].split("```", 1)[0]
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract.rcl"))
    assert code == 1
    assert out == sample


def test_reports_do_not_depend_on_the_hash_seed():
    # Cube order and witness steps must not follow set iteration order.
    path = str(REPO_ROOT / "src")
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "rclcheck.cli", str(CONTRACTS / "sales-contract.rcl"), "-c", "-v"],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# Each contract's pinned ``--complete -v`` output, the sha256 of the DOT that
# ``-g FILE`` then writes, and the exit code of both runs.
COMPLETE_VERBOSE_PINS = {
    "sales-contract": ("sales-complete-verbose.txt",
                       "b08bdae86d12b352b5940944eb407faa246c487ef79bb5afc807eb07188c87b6", 1),
    "simple-example": ("simple-complete-verbose.txt",
                       "0bd0415bce80f957b2fe45137622335492b1d962b44496608cd61d55fe6cd9c6", 1),
    # The largest fixture build; it is conflict-free, so the DOT pins it.
    "sales-contract-amended": ("amended-complete-verbose.txt",
                               "c9fe54e99f0918e29e3c1e363f200b9709a5b3cb5db32d8fa2bd1f6543cd0825", 0),
}


@pytest.mark.parametrize("contract", list(COMPLETE_VERBOSE_PINS))
def test_complete_verbose_output_is_pinned(capsys, tmp_path, contract):
    # Canonical child order decides state numbering and every rendered
    # state, so a change to how formulas order or compounds rewrite shows
    # here byte for byte.
    golden_name, dot_sha256, exit_code = COMPLETE_VERBOSE_PINS[contract]
    golden = (REPO_ROOT / "tests" / "data" / golden_name).read_text()
    path = str(CONTRACTS / f"{contract}.rcl")
    code, out, _ = run(capsys, path, "--complete", "-v")
    assert code == exit_code
    assert out == golden
    dot_path = tmp_path / f"{contract}.dot"
    code, _, _ = run(capsys, path, "--complete", "-v", "-g", str(dot_path))
    assert code == exit_code
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == dot_sha256


def test_verbose_report_appends_formulas_and_labels(capsys):
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract.rcl"), "-v")
    assert code == 1
    assert "  s0: " in out
    assert "  T" in out


def test_amended_contract_is_clean(capsys):
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract-amended.rcl"))
    assert code == 0


def test_parse_errors_exit_two(capsys, tmp_path):
    path = tmp_path / "broken.rcl"
    path.write_text("O(a;\n")
    code, _, err = run(capsys, str(path))
    assert code == 2
    assert "error" in err


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, str(tmp_path / "absent.rcl"))
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_contract_exits_two(capsys, tmp_path):
    path = tmp_path / "latin.rcl"
    path.write_bytes(b"\xff\xfeO(a);")
    code, out, err = run(capsys, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {path}: not UTF-8 text\n"


def test_a_byte_order_mark_is_not_part_of_the_contract(capsys, tmp_path):
    path = tmp_path / "bom.rcl"
    path.write_bytes(b"\xef\xbb\xbfO(a);\n")
    code, out, err = run(capsys, str(path))
    assert code == 0
    assert out == "No conflict detected.\n"
    assert err == ""
    # Columns on the first line count from the first character after the mark.
    path.write_bytes(b"\xef\xbb\xbfO(a) $ P(b);\n")
    code, out, err = run(capsys, str(path))
    assert code == 2
    assert out == ""
    assert err == (f"{path}:1:6: error: unknown token '$'\n"
                   f"{path}:1:8: error: expected ';' after a clause, found 'P'\n")


def test_budget_exhaustion_exits_three(capsys):
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract-amended.rcl"), "--budget", "5")
    assert code == 3
    assert "inconclusive" in out.lower()


CHAIN = "O(" + "+".join(f"a{k}" for k in range(60)) + ");"


@pytest.mark.parametrize("text, code, first_line", [
    (CHAIN + " [b]F(a0);", 3,
     "Verification inconclusive: transition budget of 50 exhausted after 4 states"
     " and 50 transitions"),
    (CHAIN, 0, "No conflict detected."),
], ids=["built", "decided-early"])
def test_a_long_choice_chain_is_checked_within_its_budget(tmp_path, text, code, first_line):
    # An obligation over 60 alternatives prepares to 60 leaves; in a child
    # process, so that a normal form that grew with 2^60 fails on the timeout.
    path = tmp_path / "chain.rcl"
    path.write_text(text + "\n")
    src = str(REPO_ROOT / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "rclcheck.cli", str(path), "--budget", "50"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[0] == first_line


CHOICE = "({i,j}O(a) (+) {i,j}O(b)) ^ {i,j}O(c);"


@pytest.mark.parametrize("text, code, report", [
    ("{i,j}O(a) ^ [b]({i,j}F(a));", 0, []),
    ("{i,j}O(a) ^ [b]({i,j}F(a)) ^ [a]({i,j}O(a));", 1,
     ["State: s1", "Conflict between: {i,j}F(a) AND {i,j}O(a)"]),
    # A choice of clauses clashes only when one group blocks every alternative.
    ("conflict { global { (a, c), (b, c) }; }; " + CHOICE, 1,
     ["State: s0", "Conflict between: {i,j}O(a) AND {i,j}O(c)"]),
    ("conflict { global { (a, c) }; }; " + CHOICE, 0, []),
], ids=["conflict-free", "conflict", "choice-blocked", "choice-partly-blocked"])
@pytest.mark.parametrize("flags", [(), ("-n",)], ids=["cubes", "concrete"])
def test_the_concrete_mode_gives_the_same_verdict(capsys, tmp_path, text, code, report, flags):
    # Each contract's tags could clash, so none is decided before its
    # automaton is built.
    assert clash_free_tag_count(parse_or_raise(text)) is None
    path = tmp_path / "contract.rcl"
    path.write_text(text + "\n")
    got, out, _ = run(capsys, str(path), *flags)
    assert got == code
    assert [line for line in out.splitlines()
            if line.startswith(("State: ", "Conflict between: "))] == report


def test_bad_flag_exits_sixtyfour(capsys):
    code, _, err = run(capsys, "--nonsense")
    assert code == 64
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    assert run(capsys, "-h")[0] == 0
    assert run(capsys, "generate", "-h")[0] == 0
    assert run(capsys, "bench", "-h")[0] == 0


def test_dot_export_marks_the_conflict_gray(capsys, tmp_path):
    dot_path = tmp_path / "out.dot"
    code, _, _ = run(capsys, str(CONTRACTS / "sales-contract.rcl"), "-g", str(dot_path))
    assert code == 1
    graph = validate_dot(dot_path.read_text())
    gray = [n for n, attrs in graph["node_attrs"].items() if attrs.get("fillcolor") == "gray"]
    assert len(gray) == 1


def test_an_inconclusive_export_marks_every_reported_state_gray(capsys, tmp_path):
    dot_path = tmp_path / "out.dot"
    argv = ["--complete", "--budget", "200"]
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract.rcl"), *argv, "-g", str(dot_path))
    assert code == 3
    assert out.startswith("Verification inconclusive: ")
    graph = validate_dot(dot_path.read_text())
    gray = {n for n, attrs in graph["node_attrs"].items() if attrs.get("fillcolor") == "gray"}
    options = BuildOptions(complete=True, max_states=200, max_transitions=200)
    reports = run_check(parse_or_raise((CONTRACTS / "sales-contract.rcl").read_text()),
                        options).verdict.reports
    assert len(gray) == len(reports) == 3
    assert gray == {f"s{r.state}" for r in reports}


def test_an_exhausted_export_draws_only_states_a_transition_enters(capsys, tmp_path):
    # The budget runs out on a step to a new state, which is then not added.
    dot_path = tmp_path / "out.dot"
    argv = ["--complete", "--budget", "4", "-g", str(dot_path)]
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract.rcl"), *argv)
    assert code == 3
    assert out == ("Verification inconclusive: transition budget of 4 exhausted"
                   " after 2 states and 4 transitions\n")
    assert len(validate_dot(dot_path.read_text())["nodes"]) == 2


def test_dot_export_of_a_clean_run_has_no_gray_node(capsys, tmp_path):
    dot_path = tmp_path / "out.dot"
    code, _, _ = run(capsys, str(CONTRACTS / "sales-contract-amended.rcl"), "-g", str(dot_path))
    assert code == 0
    graph = validate_dot(dot_path.read_text())
    assert not [n for n, a in graph["node_attrs"].items() if a.get("fillcolor") == "gray"]


NO_CLASH = "{b,s}[request]({b,s}O(pay) ^ {b,s}[pay]({s,b}O(ship)));\n{s,b}[!ship*]({s,b}F(refund));\n"


@pytest.mark.parametrize("argv, options", [
    ([], BuildOptions()),
    (["--budget", "3"], BuildOptions(max_states=3, max_transitions=3)),
], ids=["whole", "partial"])
def test_a_decided_check_exports_the_built_automaton(capsys, tmp_path, argv, options):
    # No two tags can clash, so the check builds nothing; -g builds the
    # automaton anyway, as far as the budget goes.
    path, dot_path = tmp_path / "ok.rcl", tmp_path / "out.dot"
    path.write_text(NO_CLASH)
    code, out, _ = run(capsys, str(path), "-g", str(dot_path), *argv)
    assert code == 0
    assert out == "No conflict detected.\n"
    automaton = construct(parse_or_raise(NO_CLASH), options)
    assert dot_path.read_text() == export_dot(automaton)
    assert len(validate_dot(dot_path.read_text())["nodes"]) >= 2


def test_verbose_says_a_check_was_decided_before_building(capsys, tmp_path):
    path = tmp_path / "ok.rcl"
    path.write_text(NO_CLASH)
    code, out, _ = run(capsys, str(path), "-v")
    assert code == 0
    assert out.splitlines() == [
        "No conflict detected.",
        "(decided before building the automaton: no two of its 3 deontic tags can clash)",
    ]


def test_explicit_check_subcommand(capsys):
    code, out, _ = run(capsys, "check", str(CONTRACTS / "sales-contract-amended.rcl"))
    assert code == 0


def test_generate_is_deterministic_and_parses(capsys):
    argv = ["generate", "--individuals", "4", "--actions", "5", "--seed", "9"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    from rclcheck import parse

    assert parse(out1).ok


def test_generate_writes_a_checkable_file(capsys, tmp_path):
    path = tmp_path / "gen.rcl"
    code, _, _ = run(
        capsys, "generate", "--individuals", "3", "--actions", "3", "--seed", "2",
        "--out", str(path),
    )
    assert code == 0
    exit_code = main([str(path), "--budget", "20000"])
    assert exit_code in (0, 1, 3)


def test_trace_states_appear_in_the_dot_export(capsys, tmp_path):
    dot_path = tmp_path / "out.dot"
    code, out, _ = run(capsys, str(CONTRACTS / "sales-contract.rcl"), "-g", str(dot_path))
    assert code == 1
    graph = validate_dot(dot_path.read_text())
    trace_line = next(l for l in out.splitlines() if l.startswith("Trace: "))
    for state in re.findall(r"s\d+", trace_line):
        assert state in graph["nodes"]


# Every command line ends in exactly this code, never in a traceback.
EXIT_CODES = {
    ("-h",): 0,
    ("--bogus-flag",): 64,
    ("__nope__.rcl",): 2,
    ("generate", "--individuals", "2", "--actions", "2"): 0,
    ("bench", "--individuals", "2", "--actions", "2", "--runs", "1", "--budget", "500"): 0,
    ("generate", "--individuals", "0", "--actions", "2"): 64,
    ("bench", "--individuals", "2..x", "--actions", "2"): 64,
    ("{clean}", "--budget", "0"): 64,
    ("{clean}", "-g", "{missing}/out.dot"): 2,
    ("generate", "--individuals", "2", "--actions", "2", "--out", "{missing}/x.rcl"): 2,
    ("{nested}",): 2,  # deeper than the parser's nesting limit
    ("{undecodable}",): 2,
    ("bench", "--individuals", "2", "--actions", "2", "--time-limit", "0"): 64,
    ("bench", "--individuals", "2", "--actions", "2", "--time-limit", "-1"): 64,
    ("bench", "--individuals", "2", "--actions", "2", "--time-limit", "nan"): 64,
    ("bench", "--individuals", "3..2", "--actions", "2"): 64,
    ("bench", "--individuals", "2", "--actions", "2", "--runs", "1", "--budget", "500",
     "--out", "{missing}/runs.csv"): 2,
    ("bench", "--individuals", "2..", "--actions", "2"): 64,  # a range needs both ends
}


@pytest.mark.parametrize("argv", list(EXIT_CODES))
def test_exit_codes_are_total(capsys, tmp_path, argv):
    fixtures = {
        "clean": "{i}P(a);\n",
        "clash": "{i}O(a) ^ {i}F(a);\n",
        "broken": "O(a;\n",
        "nested": "[a](" * 300 + "O(b)" + ")" * 300 + ";\n",
        "undecodable": "\xff\xfeO(a);\n",  # its latin-1 bytes are not UTF-8
    }
    paths = {name: tmp_path / f"{name}.rcl" for name in fixtures}
    for name, text in fixtures.items():
        paths[name].write_bytes(text.encode("latin-1"))
    expected = EXIT_CODES[argv]
    argv = [arg.format(missing=tmp_path / "missing", **paths) for arg in argv]
    assert main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err
    codes = set()
    for path in paths.values():
        codes.add(main([str(path)]))
        codes.add(main([str(path), "--budget", "1"]))
    capsys.readouterr()
    assert codes <= {0, 1, 2, 3, 64, 70}


def test_a_crash_is_one_line_and_exit_70(capsys, monkeypatch):
    import rclcheck.cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(rclcheck.cli, "run_check", crash)
    code, _, err = run(capsys, str(CONTRACTS / "simple-example.rcl"))
    assert code == 70
    assert err == "error: internal error: RuntimeError: boom\n"


def nested_contract(kind: str, depth: int) -> str:
    """A one-clause contract whose ``kind`` of nesting is ``depth`` deep."""
    def chain(op: str) -> str:
        return "[" + op.join(["a"] * (depth + 1)) + "](O(b));\n"

    return {
        "dynamic": "[a](" * depth + "O(b)" + ")" * depth + ";\n",
        "parentheses": "(" * depth + "O(a)" + ")" * depth + ";\n",
        "reparation": "O(a) _/" * depth + "O(a)" + "/_" * depth + ";\n",
        "sequence": chain("."),
        "concurrency": chain("&"),
        "choice": chain("+"),
        "iteration": "[a" + "*" * depth + "](O(b));\n",
        "bare-dynamic": "[a]" * depth + "O(b);\n",
    }[kind]


NESTINGS = ("dynamic", "parentheses", "reparation", "sequence", "concurrency",
            "choice", "iteration", "bare-dynamic")


@pytest.mark.parametrize("kind", NESTINGS)
@pytest.mark.parametrize("depth", [101, 10_000])
def test_nesting_past_the_limit_is_a_parse_error(capsys, tmp_path, kind, depth):
    path = tmp_path / "deep.rcl"
    path.write_text(nested_contract(kind, depth))
    code, out, err = run(capsys, str(path))
    assert code == 2
    assert out == ""
    assert re.fullmatch(r".*deep\.rcl:1:\d+: error: nesting deeper than 100 levels\n", err)


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_at_the_limit_checks(capsys, tmp_path, kind):
    path = tmp_path / "deep.rcl"
    path.write_text(nested_contract(kind, 100))
    dot_path = tmp_path / "deep.dot"
    code, out, err = run(capsys, str(path), "-c", "-v", "-g", str(dot_path))
    assert code == 0, err
    assert out.startswith("No conflict detected.")
    validate_dot(dot_path.read_text())


def test_bench_range_yields_one_row_per_run(capsys):
    code, out, _ = run(
        capsys, "bench", "--individuals", "8", "--actions", "8..15",
        "--runs", "10", "--budget", "1", "--seed", "0",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 80  # eight action counts, ten runs each


def test_bench_csv_output(capsys):
    code, out, _ = run(
        capsys,
        "bench",
        "--individuals", "2",
        "--actions", "2..3",
        "--runs", "3",
        "--budget", "4000",
        "--seed", "1",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6  # two groups, three runs each
    assert set(rows[0]) >= {"group", "seed", "verdict", "states", "transitions", "finished"}
    for row in rows:
        assert row["verdict"] in ("conflict-free", "conflicts", "inconclusive")
        assert row["finished"] in ("True", "False")
        assert (row["finished"] == "False") == (row["verdict"] == "inconclusive")


def test_bench_takes_a_time_limit(capsys):
    code, out, _ = run(capsys, "bench", "--individuals", "2", "--actions", "2",
                       "--runs", "2", "--time-limit", "30")
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 2


def test_bench_rejects_a_time_limit_that_is_not_a_number(capsys):
    code, _, err = run(capsys, "bench", "--individuals", "2", "--actions", "2",
                       "--time-limit", "soon")
    assert code == 64
    assert "not a number: 'soon'" in err


# ---------------------------------------------------------------------------
# fuzzing: every input ends in a verdict or a diagnostic, never a crash

@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "contract.rcl"


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(token_soup, mutated_contracts(), st.text(max_size=80)))
def test_cli_exit_codes_are_total(fuzz_path, text):
    fuzz_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(fuzz_path), "--budget", "200"])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
