from __future__ import annotations

import pytest

from rclcheck import (
    BOTTOM,
    GLOBAL,
    ONE,
    TOP,
    ZERO,
    Atom,
    Bottom,
    BudgetExceeded,
    BuildOptions,
    ContractSpec,
    Dynamic,
    Negation,
    Obligation,
    RelativizedAction,
    SpecialLabel,
    Star,
    Top,
    action_set_count,
    check,
    conj,
    construct,
    directed,
    enumerate_action_sets,
    export_dot,
    oracle_verdict,
    parse_or_raise,
    performer,
    relativized_universe,
    relevant_universe,
    trace_to,
)
from rclcheck.generator import generate

from dot_grammar import validate_dot


def ra(s, a, r):
    return RelativizedAction(s, a, r)


# ---------------------------------------------------------------------------
# universes and enumeration


@pytest.mark.parametrize(
    "n_individuals,n_actions,expected",
    [(4, 3, 48), (1, 1, 1), (2, 3, 12)],
)
def test_relativized_universe_size(n_individuals, n_actions, expected):
    individuals = frozenset(f"i{k}" for k in range(n_individuals))
    actions = frozenset(f"a{k}" for k in range(n_actions))
    assert len(relativized_universe(individuals, actions)) == expected


def test_action_set_count_is_symbolic():
    assert action_set_count(48) == 2**48 - 1
    assert action_set_count(3) == 7


def test_relevance_restricts_to_compatible_actions():
    formula = Obligation(directed("i", "j"), Atom("a"))
    individuals = frozenset({"i", "j"})
    assert relevant_universe(formula, individuals) == {ra("i", "a", "j")}
    sets = list(enumerate_action_sets(formula, individuals))
    assert sets == [frozenset({ra("i", "a", "j")}), frozenset()]


def test_relevance_skips_dynamic_bodies_and_reparations():
    body = Obligation(performer("i"), Atom("b"))
    formula = Dynamic(directed("i", "j"), Atom("a"), body)
    individuals = frozenset({"i", "j"})
    assert relevant_universe(formula, individuals) == {ra("i", "a", "j")}
    with_rep = Obligation(directed("i", "j"), Atom("a"), body)
    assert relevant_universe(with_rep, individuals) == {ra("i", "a", "j")}


def test_wildcard_trigger_adds_one_spare_action():
    individuals = frozenset({"i", "j"})
    actions = frozenset({"a", "b"})
    body = Obligation(GLOBAL, Atom("b"))
    # One spare action, the least one no leaf tests, stands for every
    # nonempty step that makes no atomic test true.
    assert relevant_universe(Dynamic(GLOBAL, ONE, body), individuals, actions) == {
        ra("i", "a", "i")
    }
    guarded = conj(Dynamic(directed("i", "i"), Atom("a"), body), Dynamic(GLOBAL, ONE, body))
    assert relevant_universe(guarded, individuals, actions) == {
        ra("i", "a", "i"), ra("i", "a", "j")
    }
    # A negated wildcard also tells a nonempty step from the empty one.
    negated = Dynamic(GLOBAL, Negation(ONE), body)
    assert len(relevant_universe(negated, individuals, actions)) == 1
    # The impossible action is tested by no step.
    for zero in (Dynamic(GLOBAL, ZERO, body), Dynamic(GLOBAL, Negation(ZERO), body)):
        assert relevant_universe(zero, individuals, actions) == frozenset()


def test_wildcard_adds_no_spare_when_every_action_is_tested():
    individuals = frozenset({"i"})
    actions = frozenset({"a"})
    formula = conj(Obligation(GLOBAL, Atom("a")), Dynamic(GLOBAL, ONE, TOP))
    assert relevant_universe(formula, individuals, actions) == {ra("i", "a", "i")}
    # Without an alphabet there is no action to spare.
    assert relevant_universe(Dynamic(GLOBAL, ONE, TOP), individuals) == frozenset()


# Each of these clashes only after a nonempty step that makes no atomic test
# of its state true.
WITNESS_CONTRACTS = (
    "{i2}[!a2](O(a2) _/P(a1)/_) ^ {i2,i2}[1]({i2}F(a2));",
    "{i1}O(a2) _/{i1}O(a2)/_ (+) O(a3) (+) {i1,i1}O(a3);\n"
    "{i1}[a2*]({i1,i1}F(1.a2) _/F(a1)/_);",
    "[1]([a&b](O(c) ^ F(c)));",
    "[1]([a.b](O(c) ^ F(c)));",
    "O(1) ^ [!a](O(c) ^ F(c));",
)


@pytest.mark.parametrize("text", WITNESS_CONTRACTS)
def test_spare_witness_finds_the_conflict(text):
    spec = parse_or_raise(text)
    assert check(spec).has_conflicts
    assert check(spec, BuildOptions(no_pruning=True)).has_conflicts
    assert oracle_verdict(spec).conflict


def test_trivial_formula_enumerates_only_the_empty_step():
    assert list(enumerate_action_sets(TOP, frozenset({"i"}))) == [frozenset()]


def test_no_pruning_enumeration_order():
    formula = Obligation(directed("i", "i"), Atom("a"))
    options = BuildOptions(no_pruning=True)
    individuals = frozenset({"i"})
    sets = list(
        enumerate_action_sets(formula, individuals, options, actions=frozenset({"a", "b"}))
    )
    assert [len(s) for s in sets] == [2, 1, 1, 0]
    assert sets[-1] == frozenset()


def test_global_operators_keep_all_senders():
    formula = Obligation(GLOBAL, Atom("a"))
    individuals = frozenset({"i", "j"})
    universe = relevant_universe(formula, individuals)
    assert {u.sender for u in universe} == {"i", "j"}
    assert {u.receiver for u in universe} == {"i", "j"}


# ---------------------------------------------------------------------------
# construction


def test_single_global_obligation_automaton():
    spec = parse_or_raise("O(a);")
    automaton = construct(spec)
    # one pending state, the satisfied sink, and the violation sink
    assert automaton.n_states == 3
    kinds = [type(f).__name__ for f in automaton.formulas]
    assert kinds[0] == "Obligation"
    top_state = next(i for i, f in enumerate(automaton.formulas) if isinstance(f, Top))
    labels = {
        (t.source, t.target): t.label
        for t in automaton.transitions
    }
    assert labels[(0, top_state)] == frozenset({ra("i", "a", "i")})
    assert labels[(0, automaton.violation)] == frozenset()
    assert labels[(top_state, top_state)] == SpecialLabel.TOP_LOOP
    assert labels[(automaton.violation, automaton.violation)] == SpecialLabel.VIOLATION_LOOP


def test_trivially_satisfied_contract():
    spec = parse_or_raise("true;")
    automaton = construct(spec)
    assert automaton.n_states == 1
    assert automaton.violation is None
    assert automaton.transitions == (
        type(automaton.transitions[0])(0, SpecialLabel.TOP_LOOP, 0),
    )


def test_no_duplicate_state_formulas():
    for seed in range(40):
        spec = generate(individuals=2, actions=2, clauses=2, max_depth=3, seed=seed)
        automaton = construct(spec)
        assert len(set(automaton.formulas)) == automaton.n_states


def test_construction_is_deterministic():
    spec = generate(individuals=3, actions=3, clauses=2, max_depth=3, seed=11)
    first = construct(spec)
    second = construct(spec)
    assert first.formulas == second.formulas
    assert first.transitions == second.transitions


def test_every_enumerated_set_appears_exactly_once():
    spec = parse_or_raise("{i,j}O(a) ^ {j}P(b);")
    options = BuildOptions(no_pruning=True, complete=True)
    automaton = construct(spec, options)
    expected = list(
        enumerate_action_sets(automaton.formulas[0], spec.effective_individuals,
                              options, spec.actions)
    )
    for sid, formula in enumerate(automaton.formulas):
        if isinstance(formula, (Top, Bottom)):
            continue
        outgoing = [t.label for t in automaton.transitions if t.source == sid]
        assert outgoing == expected


def test_iterated_triggers_reach_a_fixed_point():
    spec = parse_or_raise("{i}[a*]({i}P(b));")
    automaton = construct(spec)
    assert automaton.n_states <= 4
    # the pending state loops back to itself on the iterated trigger
    loops = [t for t in automaton.transitions if t.source == t.target == 0]
    assert loops


def test_state_budget_is_reported_not_silently_truncated():
    spec = parse_or_raise(
        "{b,s}[buyProduct]({b,k}O(payProduct) ^ {b,k}[payProduct]({k,s}O(sendProduct)));"
    )
    with pytest.raises(BudgetExceeded) as exc:
        construct(spec, BuildOptions(max_states=2))
    assert "budget" in str(exc.value)
    assert exc.value.automaton.n_states == 2


def test_transition_budget_is_reported():
    spec = generate(individuals=4, actions=4, clauses=3, max_depth=3, seed=3)
    with pytest.raises(BudgetExceeded):
        construct(spec, BuildOptions(max_transitions=10))


# ---------------------------------------------------------------------------
# traces


def test_trace_to_initial_state_is_empty():
    spec = parse_or_raise("O(a);")
    automaton = construct(spec)
    trace = trace_to(automaton, 0)
    assert len(trace) == 1
    assert trace[0].state == 0 and trace[0].label is None


def test_trace_to_two_step_chain():
    spec = parse_or_raise("[a]([b](O(c)));")
    automaton = construct(spec)
    target = next(
        i
        for i, f in enumerate(automaton.formulas)
        if isinstance(f, Obligation)
    )
    trace = trace_to(automaton, target)
    assert len(trace) == 3  # two transitions
    assert trace[0].state == 0
    assert all(step.via is not None for step in trace[1:])


def test_trace_to_unreachable_state_raises():
    spec = parse_or_raise("O(a);")
    automaton = construct(spec)
    with pytest.raises(ValueError):
        trace_to(automaton, 99)


# ---------------------------------------------------------------------------
# DOT export


def test_dot_of_trivial_automaton():
    spec = parse_or_raise("true;")
    dot = export_dot(construct(spec))
    graph = validate_dot(dot)
    assert graph["nodes"] == {"s0"}
    assert graph["edges"] == [("s0", "s0", {"label": '"true"'})]


def test_dot_marks_violation_and_validates():
    spec = parse_or_raise("O(a);")
    automaton = construct(spec)
    graph = validate_dot(export_dot(automaton))
    violation = f"s{automaton.violation}"
    assert graph["node_attrs"][violation]["shape"] == "doublecircle"
    assert len(graph["edges"]) == len(automaton.transitions)


def test_dot_verbose_labels_validate():
    spec = parse_or_raise("{i,j}O(a) _/{i}P(b)/_ ^ {j}F(c);")
    dot = export_dot(construct(spec), verbose=True)
    validate_dot(dot)
