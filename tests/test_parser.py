from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclcheck import (
    Atom,
    Dynamic,
    Obligation,
    Permission,
    Prohibition,
    canonicalize,
    directed,
    parse,
    parse_or_raise,
    performer,
    render,
    render_formula,
)
from rclcheck.formula import GLOBAL
from rclcheck.parser import RclSyntaxError

from strategies import mutated_contracts, specs, token_soup


def canonical_clauses(spec):
    return tuple(canonicalize(c) for c in spec.clauses)


def test_minimal_contract():
    spec = parse_or_raise("O(a);")
    assert spec.clauses == (Obligation(GLOBAL, Atom("a")),)
    assert spec.conflicts.is_empty
    assert spec.individuals == frozenset()
    assert spec.actions == {"a"}


def test_directed_prohibition_with_reparation():
    spec = parse_or_raise("{j,i}F(c) _/{j}O(d)/_ ;")
    clause = spec.clauses[0]
    assert clause == Prohibition(
        directed("j", "i"), Atom("c"), Obligation(performer("j"), Atom("d"))
    )


def test_example_file(simple_example_text):
    spec = parse_or_raise(simple_example_text)
    assert len(spec.clauses) == 2
    assert spec.individuals == {"i", "j", "k"}
    assert spec.actions == {"a", "b", "c", "d", "e", "f", "h"}
    pairs = {tuple(sorted(p)) for p in spec.conflicts.global_pairs}
    assert pairs == {("a", "b"), ("c", "d")}
    pairs = {tuple(sorted(p)) for p in spec.conflicts.relativized_pairs}
    assert pairs == {("e", "f"), ("a", "e")}
    # first clause: a global trigger guarding a three-way conjunction
    first = spec.clauses[0]
    assert isinstance(first, Dynamic) and first.rel.is_global


def test_conflict_header_is_optional():
    assert parse("O(a);").ok
    assert parse("conflict { global { (a, b) }; }; O(a);").ok


def test_header_pairs_are_unordered():
    left = parse_or_raise("conflict { global { (a, b) }; }; O(a);")
    right = parse_or_raise("conflict { global { (b, a) }; }; O(a);")
    assert left.conflicts == right.conflicts


def test_render_rejects_what_is_not_a_formula():
    with pytest.raises(TypeError, match="^not a formula: "):
        render_formula(Dynamic(GLOBAL, Atom("a"), Atom("b")))


def test_comments_and_whitespace_are_insignificant():
    spec = parse_or_raise("O(a);  // trailing note\n   // a whole line\n\tP( b );\r\n")
    assert len(spec.clauses) == 2
    # Only space, tab, CR and LF are skipped.
    result = parse("O(a);\tF(b);\x0cP(c);")
    assert [str(d) for d in result.diagnostics] == ["1:12: error: unknown token '\\x0c'"]


def test_precedence_conjunction_over_choice():
    spec = parse_or_raise("O(a) ^ O(b) (+) O(c);")
    clause = spec.clauses[0]
    # (+) binds loosest: (O(a) ^ O(b)) (+) O(c)
    assert type(clause).__name__ == "XChoice"
    assert len(clause.children) == 2


def test_action_precedence():
    spec = parse_or_raise("O(a&b.c+d);")
    rendered = render_formula(spec.clauses[0])
    assert rendered == "O(a&b.c+d);"[:-1]
    reparsed = parse_or_raise(rendered + ";")
    assert reparsed.clauses == spec.clauses


def test_special_actions_and_trigger_operators():
    spec = parse_or_raise("[!a*](F(b)) ^ [1](P(c)) ^ [0](O(d));")
    assert parse(render(spec)).ok


@settings(max_examples=200, deadline=None)
@given(specs(individuals=(1, 3), actions=(1, 4), clauses=(1, 3)))
def test_roundtrip_random_specs(spec):
    result = parse(render(spec))
    assert result.ok, [str(d) for d in result.errors]
    assert canonical_clauses(result.spec) == canonical_clauses(spec)
    assert result.spec.conflicts == spec.conflicts
    assert result.spec.individuals == spec.individuals
    assert result.spec.actions == spec.actions


def test_render_omits_empty_header():
    spec = parse_or_raise("O(a);")
    assert render(spec) == "O(a);\n"


@pytest.mark.parametrize(
    "text, severity, line, column",
    [
        ("O(a) $ P(b);", "error", 1, 6),                    # a lone '$'
        ("O(a);\n\t$P(b);", "error", 2, 2),                 # a tab is one column
        ("O(a);\n// note\n  $ P(b);", "error", 3, 3),      # after a comment line
        ("O(a);\r\nP(b);\r\n  $;", "error", 3, 3),          # CRLF line endings
        ("O(a);\nO(b)", "error", 2, 5),                     # end of input, no ';'
        ("O(a);\n  {i,i}O(b);", "warning", 2, 3),           # self-directed warning
    ],
    ids=["lone-char", "after-tab", "after-comment", "crlf", "end-of-input", "warning"],
)
def test_diagnostic_position_accuracy(text, severity, line, column):
    diag = next(d for d in parse(text).diagnostics if d.severity == severity)
    assert (diag.line, diag.column) == (line, column)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters() | st.sampled_from(list("O(a);{i,j}^_/ \t\r\n"))))
def test_unknown_token_positions_point_at_the_token(text):
    lines = text.split("\n")
    for diag in parse(text).errors:
        if diag.message.startswith("unknown token "):
            token = ast.literal_eval(diag.message[len("unknown token "):])
            assert lines[diag.line - 1][diag.column - 1] == token


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_contracts(), token_soup))
def test_diagnostics_point_into_the_text(text):
    lines = text.split("\n")
    for diag in parse(text).diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1  # + 1: end of input


@pytest.mark.parametrize(
    "chain, longest, position",
    [
        # Each link opens a level, counted per operator level: an inner
        # chain starts afresh at each outer link, so n units of two levels
        # reach n levels ((n - 1) outer links and one inner), of three n + 1.
        (lambda n: "O(" + "+".join(["a.b"] * n) + ");", 100, "1:404"),
        (lambda n: "[" + ".".join(["a&b"] * n) + "](O(d));", 100, "1:403"),
        (lambda n: "[" + "+".join(["a.b&c"] * n) + "](O(d));", 99, "1:599"),
    ],
    ids=["seq-in-choice", "conc-in-seq", "conc-in-seq-in-choice"],
)
def test_mixed_chain_depth_edges(chain, longest, position):
    assert parse(chain(longest)).diagnostics == []
    assert [str(d) for d in parse(chain(longest + 1)).diagnostics] == [
        f"{position}: error: nesting deeper than 100 levels"]


@pytest.mark.parametrize(
    "text",
    [
        "O(a;",                      # unbalanced parens
        "{i,j,k}O(a);",              # too many individuals
        "O(a) (+) F(b);",            # prohibition in a clause choice
        "O(a) (+) P(b);",            # mixed families
        "[a](O(b)) (+) O(c);",       # dynamic operand in a clause choice
        "O(!a);",                    # negation outside a trigger
        "O(a*);",                    # iteration outside a trigger
        "[!(a.b)](P(c));",           # negation of a compound action
        "P(a) _/O(b)/_ ;",           # permission with a reparation
        "",                          # no clauses
        "O(a) ^^ P(b);",             # stray operator
    ],
)
def test_errors(text):
    result = parse(text)
    assert not result.ok
    assert result.errors


@pytest.mark.parametrize(
    "text, message",
    [
        ("O(a)", "expected ';' after a clause, found end of input"),
        ("O(a) P(b);", "expected ';' after a clause, found 'P'"),
        ("O(a", "expected ')', found end of input"),
        ("O(;", "expected an action, found ';'"),
        ("O(a) ^", "expected a clause, found end of input"),
        ("{1}O(a);", "expected an individual, found '1'"),
        ("conflict { global { (a, 1) }; }; O(a);", "expected an action name, found '1'"),
        ("O(a) _/O(b)", "expected '/_' closing the reparation, found end of input"),
        ("conflict { global { (a, b) }; global { (a, c) }; }; O(a);",
         "duplicate 'global' section"),
        ("(O(a) ^ P(b)) (+) O(c);",
         "clause choice applies only to obligation or permission clauses"),
    ],
)
def test_expected_token_messages(text, message):
    assert parse(text).errors[0].message == message


def test_error_recovery_reports_multiple_clauses():
    result = parse("O(a;\nP(b;\nO(c);")
    assert not result.ok
    assert len(result.errors) >= 2


def test_identifiers_are_ascii_only():
    result = parse("O(café);")
    assert not result.ok
    assert "unknown token" in result.errors[0].message


def test_self_directed_relativization_warns_but_parses():
    result = parse("{i,i}O(a);")
    assert result.ok
    assert result.warnings
    assert result.warnings[0].severity == "warning"


def test_parse_or_raise():
    with pytest.raises(RclSyntaxError):
        parse_or_raise("O(a")


# Every diagnostic of these inputs, as ``str(d)``, is pinned in
# tests/data/diagnostics.txt, one ``name: diagnostic`` line each.
DIAGNOSTIC_INPUTS = {
    "dollar": "O(a) $ P(b);",
    "micro": "O(µ);",
    "accented-identifier": "O(café) ^ P(b²);",
    "lone-underscore": "O(a) _ P(b);",
    "lone-slash": "O(a) / P(b);",
    "lone-two": "O(2);",
    "unknowns-in-a-row": "$$ O(a) @\n#;",
    "unknown-at-end": "O(a);\n~",
    "comment-before-warning": "// a note\n{i,i}O(a);",
    "comment-after-clause": "O(a); // {j,j} in a comment is no token $\n  {i,i}O(b);",
    "tabs": "O(a);\n\t{j,j}P(b)\t$;",
    "crlf": "O(a);\r\nP(b);\r\n  {k,k}F(c) $;\r\n",
    "error-after-warning": "{i,i}O(a) ^ P(;",
    "warning-after-error": "O(;\n{i,i}O(a);",
    "warning-in-reparation": "O(a) _/{k,k}F(b)/_;",
    "two-warnings": "{i1,i1}[a1]({i1,i1}P(a2) (+) {i1}P(a2));{i2}F(a2.a1&a2);",
    "too-many-individuals": "{i,i,i}O(a);",
    "header-errors": "conflict { global { (a, 1) }; relativized {}; relativized {}; };\nO(a);",
    "end-of-input": "O(a);\nO(b)",
    "no-clauses": "// nothing here\n",
    "nested-formulas": "(" * 101 + "O(a)" + ")" * 101 + ";",
    "nested-reparations": "O(a) _/" * 101 + "O(b)" + "/_" * 101 + ";",
    "long-action-chain": "O(" + "+".join(["a"] * 102) + ");",
    "stars": "[" + "a" + "*" * 101 + "](O(b));\nO(c*);",
}


def pinned_diagnostics() -> str:
    return "".join(f"{name}: {d}\n" for name, text in DIAGNOSTIC_INPUTS.items()
                   for d in parse(text).diagnostics)


def test_diagnostics_match_the_pinned_file():
    pinned = (Path(__file__).parent / "data" / "diagnostics.txt").read_text(encoding="utf-8")
    assert pinned_diagnostics() == pinned


def test_a_parse_adds_no_parser_attribute():
    # On CPython 3.11, the first write to an instance's ``__dict__`` after
    # ``__init__`` slows every later attribute read on it: a parse that
    # filled a ``cached_property`` at its first warning took 126.5 µs
    # against 81.0 µs with the warning stubbed out, and 67 µs once the
    # offsets were a plain attribute set in ``__init__``.
    from functools import cached_property

    from rclcheck.parser import _ParseAbort, _Parser

    assert not any(isinstance(v, cached_property) for v in vars(_Parser).values())
    parser = _Parser("{i,i}O(a) ^ P(;", [])
    before = set(vars(parser))
    with pytest.raises(_ParseAbort):
        parser.parse_clause()
    assert [d.severity for d in parser.diagnostics] == ["warning", "error"]
    assert set(vars(parser)) == before


def test_a_commented_contract_is_scanned_once(monkeypatch, sales_contract_text):
    from unittest.mock import Mock

    import rclcheck.parser

    # A stand-in for the compiled scanner that counts its calls.
    scanner = Mock(wraps=rclcheck.parser._SCANNER)
    monkeypatch.setattr(rclcheck.parser, "_SCANNER", scanner)
    assert "//" in sales_contract_text
    result = parse(sales_contract_text)
    assert result.ok and not result.diagnostics
    assert scanner.finditer.call_count == 0
    # An unknown character beside a comment is still found, at its column.
    result = parse("// a note $\nO(a) ^ $P(b);")
    assert [str(d) for d in result.diagnostics] == ["2:8: error: unknown token '$'"]
    assert scanner.finditer.call_count == 1
