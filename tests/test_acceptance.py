"""Acceptance suite.

Each test exercises one release criterion end to end and prints a PASS
line on success; run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they go by.
"""
from __future__ import annotations

import csv
import io
import itertools
import time

import pytest
from hypothesis import given, settings

from rclcheck import (
    BuildOptions,
    DeonticOp,
    VerdictKind,
    canonicalize,
    check,
    directed,
    export_dot,
    oracle_verdict,
    parse,
    parse_or_raise,
    relativized_universe,
    render,
    run_check,
)
from rclcheck.bench import BenchGroup, bench, write_csv
from rclcheck.conflicts import ConflictKind, build_check, tags_conflict
from rclcheck.decompose import DeonticTag
from rclcheck.formula import ConflictRelations, GLOBAL, Relativization

from conftest import CONTRACTS
from dot_grammar import validate_dot
from strategies import action_set_count, rename_spec, specs


def _passline(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_sales_contract_conflict(sales_contract_text):
    started = time.monotonic()
    spec = parse_or_raise(sales_contract_text)
    assert spec.individuals == {"b", "s", "k", "c"}
    assert len(spec.actions) == 9
    verdict = check(spec)
    elapsed = time.monotonic() - started
    assert verdict.kind is VerdictKind.CONFLICTS
    report = verdict.reports[0]
    carrier_to_buyer = directed("c", "b")
    assert {report.left.op, report.right.op} == {
        DeonticOp.OBLIGATION,
        DeonticOp.PROHIBITION,
    }
    assert report.left.rel == carrier_to_buyer and report.right.rel == carrier_to_buyer
    assert report.left.action == report.right.action == "deliverProduct"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passline("1 sales-contract conflict")


def test_criterion_2_amended_contract_is_conflict_free(amended_contract_text):
    started = time.monotonic()
    verdict = check(parse_or_raise(amended_contract_text))
    elapsed = time.monotonic() - started
    assert verdict.kind is VerdictKind.CONFLICT_FREE
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passline("2 amended sales contract conflict-free")


def test_criterion_3_micro_pair():
    conflicted = check(parse_or_raise("{i,j}O(a) ^ {i,j}O(b) ^ {i,j}F(b);"))
    assert conflicted.kind is VerdictKind.CONFLICTS
    assert conflicted.reports[0].state == 0
    assert len(conflicted.reports[0].trace) == 1  # found at the initial state
    relaxed = check(parse_or_raise("{i,j}O(a+b) ^ {i,j}F(b);"))
    assert relaxed.kind is VerdictKind.CONFLICT_FREE
    _passline("3 choice micro-pair")


def test_criterion_4_universe_combinatorics():
    individuals = frozenset({"w", "x", "y", "z"})
    actions = frozenset({"a", "b", "c"})
    universe = relativized_universe(individuals, actions)
    assert len(universe) == 48
    # the unpruned nonempty-set count is computed, never enumerated
    assert action_set_count(len(universe)) == 2**48 - 1
    assert action_set_count(len(universe)) == 281_474_976_710_655
    _passline("4 universe combinatorics")


@settings(max_examples=200, deadline=None)
@given(specs(individuals=(2, 2), actions=(2, 2), clauses=(1, 2), max_depth=3))
def _engine_agrees_with_the_oracle(spec):
    assert check(spec).has_conflicts == oracle_verdict(spec, max_len=4).conflict


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    _engine_agrees_with_the_oracle()
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _passline(f"5 oracle equivalence over 200 specs in {elapsed:.1f}s")


@settings(max_examples=200, deadline=None)
@given(specs(individuals=(3, 3), actions=(3, 3), clauses=(2, 2), max_depth=4))
def test_criterion_6_canonicalize_is_idempotent(spec):
    once = canonicalize(spec.root())
    assert canonicalize(once) == once


@settings(max_examples=40, deadline=None)
@given(specs(individuals=(2, 2), actions=(2, 2), clauses=(2, 2), pairs=True))
def test_criterion_6_renaming_preserves_verdicts(spec):
    ind_map = {"i1": "px", "i2": "qy"}
    act_map = {"a1": "m1", "a2": "m2"}
    assert check(spec).kind == check(rename_spec(spec, ind_map, act_map)).kind


@settings(max_examples=1000, deadline=None)
@given(specs(individuals=(3, 3), actions=(4, 4), clauses=(2, 2), max_depth=3))
def _render_round_trips(spec):
    result = parse(render(spec))
    assert result.ok
    assert tuple(canonicalize(c) for c in result.spec.clauses) == tuple(
        canonicalize(c) for c in spec.clauses
    )


@settings(max_examples=60, deadline=None)
@given(specs(individuals=(2, 2), actions=(2, 2), clauses=(1, 2), max_depth=3))
def _pruning_keeps_the_concrete_verdict(spec):
    # The reference is a concrete build, whatever the pre-check decides.
    concrete = build_check(spec, BuildOptions(no_pruning=True)).verdict
    assert check(spec).kind == concrete.kind


def test_criterion_6_property_suites():
    # parser round-trip over 1,000 generated specs
    _render_round_trips()

    # clash symmetry, exhaustive over three individuals and three actions
    individuals = ("i", "j", "k")
    actions = ("a", "b", "c")
    rel_forms = [GLOBAL]
    rel_forms += [Relativization(i) for i in individuals]
    rel_forms += [Relativization(i, j) for i in individuals for j in individuals]
    tags = [
        DeonticTag(rel, op, action)
        for rel in rel_forms
        for op in DeonticOp
        for action in actions
    ]
    tables = (
        ConflictRelations(),
        ConflictRelations.make(global_pairs=[("a", "b")], relativized_pairs=[("b", "c")]),
    )
    for rels in tables:
        for d1, d2 in itertools.product(tags, repeat=2):
            assert tags_conflict(d1, d2, rels) == tags_conflict(d2, d1, rels)

    # pruning does not change verdicts at small scale
    _pruning_keeps_the_concrete_verdict()

    # a global obligation clashes with any single-party prohibition on
    # the same action
    for action in ("a", "b", "c"):
        for individual in ("i", "j", "k"):
            verdict = check(parse_or_raise(f"O({action}) ^ {{{individual}}}F({action});"))
            assert verdict.kind is VerdictKind.CONFLICTS
    _passline("6 property suites")


def test_criterion_7_scalability_smoke():
    groups = [
        BenchGroup(individuals=8, actions=10, clauses=4, max_depth=3, label="g1"),
        BenchGroup(individuals=8, actions=10, clauses=4, max_depth=3, label="g2"),
    ]
    for base_seed, group in zip((0, 100), groups):
        started = time.monotonic()
        # A count-only budget, so the verdict does not depend on host speed.
        rows = bench([group], runs_per_group=10, base_seed=base_seed, budget=60_000)
        elapsed = time.monotonic() - started
        assert elapsed < 180.0, f"group {group.name()} took {elapsed:.1f}s"
        assert len(rows) == 10
        for row in rows:
            assert row["verdict"] in ("conflict-free", "conflicts"), row
            assert row["finished"] is True
        buffer = io.StringIO()
        write_csv(rows, buffer)
        parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(parsed) == 10
        assert all(r["finished"] == "True" for r in parsed)
    _passline("7 scalability smoke")


def test_criterion_8_dot_outputs_validate(sales_contract_text, amended_contract_text):
    # conflict run: exactly one gray node under the default early stop
    outcome = run_check(parse_or_raise(sales_contract_text))
    graph = validate_dot(export_dot(outcome.automaton))
    gray = [n for n, a in graph["node_attrs"].items() if a.get("fillcolor") == "gray"]
    assert outcome.verdict.kind is VerdictKind.CONFLICTS
    assert len(gray) == 1

    # clean runs validate too
    for text in (
        amended_contract_text,
        "{i,j}O(a) ^ {i,j}O(b) ^ {i,j}F(b);",
        "{i,j}O(a+b) ^ {i,j}F(b);",
    ):
        outcome = run_check(parse_or_raise(text))
        validate_dot(export_dot(outcome.automaton))
    _passline("8 DOT exports validate")
