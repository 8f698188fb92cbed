"""The result and option records keep their public behaviour: the same
fields in the same order with the same defaults, keyword construction,
equality, hashing and repr text."""
from __future__ import annotations

import inspect

import pytest

from rclcheck import (
    GLOBAL,
    TOP,
    Atom,
    BenchGroup,
    BuildOptions,
    CheckOutcome,
    ConflictKind,
    ConflictRelations,
    ConflictReport,
    ContractAutomaton,
    ContractSpec,
    DeonticOp,
    DeonticTag,
    Obligation,
    OracleResult,
    ParseDiagnostic,
    ParseResult,
    SpecialLabel,
    TraceStep,
    Transition,
    Verdict,
    VerdictKind,
    directed,
)

NO_PAIRS = "ConflictRelations(global_pairs=frozenset(), relativized_pairs=frozenset())"
EMPTY_AUTOMATON = ("ContractAutomaton(formulas=(), transitions=(), violation=None, "
                   "conflict_states=frozenset(), exhausted='')")
LEFT = DeonticTag(directed("c", "b"), DeonticOp.OBLIGATION, "a")
RIGHT = DeonticTag(directed("c", "b"), DeonticOp.PROHIBITION, "a")

# (record, fields with their defaults (``...`` for none), keyword arguments
# to build one, one field changed, repr of the built record)
CASES = [
    (ConflictRelations,
     {"global_pairs": frozenset(), "relativized_pairs": frozenset()},
     {},
     {"global_pairs": frozenset({frozenset({"a"})})},
     NO_PAIRS),
    (ContractSpec,
     {"individuals": ..., "actions": ..., "conflicts": ..., "clauses": ...},
     {"individuals": frozenset({"i"}), "actions": frozenset({"a"}),
      "conflicts": ConflictRelations(), "clauses": (Obligation(GLOBAL, Atom("a")),)},
     {"actions": frozenset({"b"})},
     "ContractSpec(individuals=frozenset({'i'}), actions=frozenset({'a'}), "
     f"conflicts={NO_PAIRS}, clauses=(Obligation(('', ''), ('atom', 'a'), ('~',)),))"),
    (BuildOptions,
     {"complete": False, "no_pruning": False, "max_states": 200_000,
      "max_transitions": 500_000, "time_limit": None},
     {"max_states": 7},
     {"time_limit": 2.5},
     "BuildOptions(complete=False, no_pruning=False, max_states=7, "
     "max_transitions=500000, time_limit=None)"),
    (ContractAutomaton,
     {"formulas": ..., "transitions": ..., "violation": None,
      "conflict_states": frozenset(), "exhausted": ""},
     {"formulas": (TOP,), "transitions": (Transition(0, SpecialLabel.TOP_LOOP, 0),)},
     {"exhausted": "state budget of 1 exhausted after 1 states and 0 transitions"},
     "ContractAutomaton(formulas=(Top(),), transitions=(Transition(source=0, "
     "label=<SpecialLabel.TOP_LOOP: 'true'>, target=0),), violation=None, "
     "conflict_states=frozenset(), exhausted='')"),
    (TraceStep,
     {"state": ..., "label": None, "via": None},
     {"state": 0},
     {"via": 3},
     "TraceStep(state=0, label=None, via=None)"),
    (ConflictReport,
     {"state": ..., "kind": ..., "left": ..., "right": ..., "trace": ...,
      "left_clause": ..., "right_clause": ...},
     {"state": 1, "kind": ConflictKind.OBLIGATION_VS_PROHIBITION, "left": LEFT,
      "right": RIGHT, "trace": (TraceStep(0),), "left_clause": "{c,b}O(a)",
      "right_clause": "{c,b}F(a)"},
     {"state": 2},
     "ConflictReport(state=1, kind=<ConflictKind.OBLIGATION_VS_PROHIBITION: "
     "'obligation vs prohibition'>, left=directed('c', 'b'):O(a), "
     "right=directed('c', 'b'):F(a), trace=(TraceStep(state=0, label=None, via=None),), "
     "left_clause='{c,b}O(a)', right_clause='{c,b}F(a)')"),
    (Verdict,
     {"kind": ..., "reports": (), "reason": ""},
     {"kind": VerdictKind.CONFLICT_FREE},
     {"reason": "decided before building the automaton"},
     "Verdict(kind=<VerdictKind.CONFLICT_FREE: 'conflict-free'>, reports=(), reason='')"),
    (CheckOutcome,
     {"verdict": ..., "automaton": ...},
     {"verdict": Verdict(VerdictKind.CONFLICT_FREE), "automaton": ContractAutomaton((), ())},
     {"verdict": Verdict(VerdictKind.INCONCLUSIVE)},
     "CheckOutcome(verdict=Verdict(kind=<VerdictKind.CONFLICT_FREE: 'conflict-free'>, "
     f"reports=(), reason=''), automaton={EMPTY_AUTOMATON})"),
    (ParseDiagnostic,
     {"severity": ..., "line": ..., "column": ..., "message": ...},
     {"severity": "error", "line": 1, "column": 6, "message": "unknown token '$'"},
     {"column": 7},
     "ParseDiagnostic(severity='error', line=1, column=6, message=\"unknown token '$'\")"),
    (OracleResult,
     {"conflict": ..., "trace": None, "clash": None},
     {"conflict": False},
     {"conflict": True},
     "OracleResult(conflict=False, trace=None, clash=None)"),
    (BenchGroup,
     {"individuals": ..., "actions": ..., "clauses": 3, "max_depth": 3, "label": ""},
     {"individuals": 2, "actions": 3},
     {"label": "small"},
     "BenchGroup(individuals=2, actions=3, clauses=3, max_depth=3, label='')"),
]


@pytest.mark.parametrize("record, fields, kwargs, change, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_records_keep_their_fields_equality_hash_and_repr(record, fields, kwargs, change, text):
    params = inspect.signature(record).parameters
    assert list(params) == list(fields)
    assert {name: p.default for name, p in params.items()} == {
        name: inspect.Parameter.empty if default is ... else default
        for name, default in fields.items()}
    built = record(**kwargs)
    full = {name: getattr(built, name) for name in fields}
    assert full == {**{n: d for n, d in fields.items() if d is not ...}, **kwargs}
    again = record(*full.values())
    assert built == again and not built != again
    assert hash(built) == hash(again)
    other = record(**{**kwargs, **change})
    assert built != other and not built == other
    assert repr(built) == text


def test_records_keep_their_methods():
    assert str(ParseDiagnostic("warning", 2, 1, "w")) == "2:1: warning: w"
    assert BenchGroup(2, 3).name() == "i2-a3" and BenchGroup(2, 3, label="x").name() == "x"
    assert Verdict(VerdictKind.CONFLICTS).has_conflicts
    assert Verdict(VerdictKind.CONFLICT_FREE).is_conflict_free
    assert OracleResult(False).is_conflict_free and not OracleResult(True).is_conflict_free
    assert ContractAutomaton((TOP,), ()).n_states == 1
    pairs = ConflictRelations.make([("a", "b")], [("c", "d")])
    assert pairs.globally_conflicting("b", "a") and pairs.relativized_conflicting("d", "c")
    assert pairs.actions() == {"a", "b", "c", "d"} and not pairs.is_empty
    assert ConflictRelations().is_empty
    spec = ContractSpec.from_clauses([Obligation(GLOBAL, Atom("a"))])
    assert spec.root() == Obligation(GLOBAL, Atom("a"))
    assert spec.effective_individuals == {"i"}


def test_a_parse_result_owns_its_diagnostics():
    first, second = ParseResult(None), ParseResult(spec=None)
    assert first.diagnostics == [] and first.diagnostics is not second.diagnostics
    assert first == second and repr(first) == "ParseResult(spec=None, diagnostics=[])"
    with pytest.raises(TypeError):
        hash(first)
    errors = ParseResult(None, [ParseDiagnostic("error", 1, 1, "e"),
                                ParseDiagnostic("warning", 1, 2, "w")])
    assert not errors.ok
    assert [d.message for d in errors.errors] == ["e"]
    assert [d.message for d in errors.warnings] == ["w"]
