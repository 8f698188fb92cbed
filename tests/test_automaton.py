from __future__ import annotations

from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rclcheck import (
    BOTTOM,
    GLOBAL,
    ONE,
    TOP,
    ZERO,
    And,
    Atom,
    Bottom,
    BudgetExceeded,
    BuildOptions,
    ContractSpec,
    Dynamic,
    Negation,
    Obligation,
    Permission,
    Prohibition,
    RelativizedAction,
    SpecialLabel,
    Star,
    Top,
    VerdictKind,
    XChoice,
    action_set_count,
    check,
    conj,
    construct,
    decompose,
    directed,
    enumerate_action_sets,
    export_dot,
    oracle_verdict,
    parse_or_raise,
    performer,
    prepare,
    relativized_universe,
    relevant_universe,
    run_check,
    trace_to,
)
from rclcheck.decompose import trigger_matched
from rclcheck.generator import generate

from conftest import CONTRACTS
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


# ---------------------------------------------------------------------------
# witness steps: one per satisfiable valuation of a state's leaf tests


def rows(name, senders, individuals):
    return frozenset(ra(s, name, r) for s in senders for r in individuals)


def test_false_global_test_drops_the_last_free_row():
    individuals = frozenset({"i", "j", "k"})
    formula = conj(Obligation(GLOBAL, Atom("a")),
                   Dynamic(directed("k", "k"), Atom("a"), Obligation(GLOBAL, Atom("b"))))
    # Each row performs with one action: its directed cell when that test
    # is true, else its least action without a directed test.
    assert list(enumerate_action_sets(formula, individuals)) == [
        {ra("i", "a", "i"), ra("j", "a", "i"), ra("k", "a", "k")},  # both true
        # Global false, directed true: k is pinned, j is the last free row.
        {ra("i", "a", "i"), ra("k", "a", "k")},
        {ra("i", "a", "i"), ra("j", "a", "i"), ra("k", "a", "i")},  # global true
        {ra("i", "a", "i"), ra("j", "a", "i")},                     # both false
    ]


def test_performer_witness_holds_one_action():
    individuals = frozenset({"i", "j", "k"})
    formula = Obligation(performer("i"), Atom("a"))
    assert list(enumerate_action_sets(formula, individuals)) == [
        {ra("i", "a", "i")}, frozenset()
    ]


def test_unsatisfiable_valuation_is_skipped():
    # A true global test with a false performer test on the same name
    # cannot happen: every individual, i included, performs the action.
    individuals = frozenset({"i", "j"})
    formula = conj(Obligation(GLOBAL, Atom("a")), Obligation(performer("i"), Atom("a")))
    assert list(enumerate_action_sets(formula, individuals)) == [
        {ra("i", "a", "i"), ra("j", "a", "i")},   # both true
        {ra("i", "a", "i")},                      # global false, performer true
        {ra("j", "a", "i")},                      # both false: i's row is already empty
    ]


@pytest.mark.parametrize("wildcard", [ONE, Negation(ONE)], ids=["[1]", "[!1]"])
def test_wildcard_valuations_use_the_spare_action(wildcard):
    individuals = frozenset({"i", "j"})
    actions = frozenset({"a", "b"})
    body = Obligation(GLOBAL, Atom("b"))
    alone = Dynamic(GLOBAL, wildcard, body)
    # True: the spare action alone; false: the empty step.
    assert list(enumerate_action_sets(alone, individuals, actions=actions)) == [
        frozenset({ra("i", "a", "i")}), frozenset()
    ]
    guarded = conj(Obligation(directed("i", "i"), Atom("a")), alone)
    # The spare action joins only the step that would otherwise be empty.
    assert list(enumerate_action_sets(guarded, individuals, actions=actions)) == [
        frozenset({ra("i", "a", "i")}),   # test true
        frozenset({ra("i", "a", "j")}),   # test false, step nonempty
        frozenset(),
    ]


def test_wildcard_without_a_spare_needs_a_tested_action():
    individuals = frozenset({"i"})
    formula = conj(Obligation(GLOBAL, Atom("a")), Dynamic(GLOBAL, ONE, TOP))
    # With every action tested, a nonempty step makes the global test true.
    assert list(enumerate_action_sets(formula, individuals, actions=frozenset({"a"}))) == [
        frozenset({ra("i", "a", "i")}), frozenset()
    ]


def leaf_tests(formula):
    """The (rel, action) tests ``decompose`` reads at a normal-form state."""
    out, stack = set(), [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, XChoice)):
            stack.extend(f.children)
        elif isinstance(f, (Obligation, Prohibition, Dynamic)):
            test = f.trigger if isinstance(f, Dynamic) else f.action
            out.add((f.rel, test.inner if isinstance(test, Negation) else test))
    return sorted(out, key=repr)


def valuation(tests, step, individuals):
    return tuple(trigger_matched(rel, act, step, individuals) for rel, act in tests)


def valuations_of_witnesses(formula, individuals, actions):
    """The valuation each witness step of a state makes, checked to reach
    every satisfiable valuation of its leaf tests exactly once, and those
    valuations in the order a walk over every subset of the universe,
    largest first, first reaches them.  The universe is the whole
    relativized one when it is small, so that the check does not trust
    ``relevant_universe``."""
    universe = relativized_universe(individuals, actions)
    if len(universe) > 12:
        universe = relevant_universe(formula, individuals, actions)
    tests = leaf_tests(formula)
    reference = list(dict.fromkeys(
        valuation(tests, frozenset(subset), individuals)
        for size in range(len(universe), -1, -1)
        for subset in combinations(sorted(universe), size)))
    steps = enumerate_action_sets(formula, individuals, BuildOptions(), actions)
    witnesses = [valuation(tests, step, individuals) for step in steps]
    assert len(set(witnesses)) == len(witnesses)
    assert set(witnesses) == set(reference)
    return witnesses, reference


@settings(max_examples=60, deadline=None)
@given(n_individuals=st.integers(1, 3), n_actions=st.integers(1, 3),
       clauses=st.integers(1, 2), seed=st.integers(0, 10**6))
def test_witnesses_reach_each_valuation_once(n_individuals, n_actions, clauses, seed):
    spec = generate(individuals=n_individuals, actions=n_actions, clauses=clauses,
                    max_depth=3, seed=seed)
    options = BuildOptions(complete=True, max_states=60, max_transitions=2_000)
    try:
        automaton = construct(spec, options)
    except BudgetExceeded as exc:
        automaton = exc.automaton
    individuals = spec.effective_individuals
    for formula in automaton.formulas:
        if isinstance(formula, (Top, Bottom)):
            continue
        # Keep the reference walk over every subset small.
        if min(len(relativized_universe(individuals, spec.actions)),
               len(relevant_universe(formula, individuals, spec.actions))) > 12:
            continue
        valuations_of_witnesses(formula, individuals, spec.actions)


@settings(max_examples=30, deadline=None)
@given(n_actions=st.integers(2, 3), clauses=st.integers(1, 2), seed=st.integers(0, 10**6))
def test_pruned_verdict_matches_concrete_mode(n_actions, clauses, seed):
    spec = generate(individuals=2, actions=n_actions, clauses=clauses, max_depth=3, seed=seed)
    budget = dict(max_states=2_000, max_transitions=20_000)
    concrete = check(spec, BuildOptions(no_pruning=True, **budget))
    assume(concrete.kind is not VerdictKind.INCONCLUSIVE)
    assert check(spec, BuildOptions(**budget)).kind is concrete.kind


RELS = [GLOBAL, performer("i"), performer("j"), directed("i", "i"), directed("i", "j"),
        directed("j", "i"), directed("j", "j"), directed("k", "i")]
LEAVES = [
    lambda rel, a: Obligation(rel, a),
    lambda rel, a: Prohibition(rel, a),
    lambda rel, a: Permission(rel, a),
    lambda rel, a: Dynamic(rel, a, Obligation(GLOBAL, Atom("c"))),
    lambda rel, a: Dynamic(rel, Negation(a), Obligation(GLOBAL, Atom("c"))),
]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(st.tuples(st.sampled_from(RELS), st.sampled_from("ab"),
                                             st.integers(0, len(LEAVES) - 1)),
                                   min_size=1, max_size=6))
def test_witnesses_of_drawn_leaf_tests(n_individuals, leaves):
    # Global, performer and directed tests mixed on one or two names, so a
    # global test meets performer rows and directed cells of its own name.
    individuals = frozenset("ijk"[:n_individuals])
    leaves = [(rel, name, kind) for rel, name, kind in leaves
              if rel.is_global or rel.sender in individuals]
    assume(leaves)
    formula = prepare(conj(*(LEAVES[kind](rel, Atom(name)) for rel, name, kind in leaves)))
    actions = frozenset("abc")
    assume(len(relevant_universe(formula, individuals, actions)) <= 10)
    valuations_of_witnesses(formula, individuals, actions)


DIRECTED = [rel for rel in RELS if rel.is_directed]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.lists(st.tuples(st.sampled_from(DIRECTED), st.sampled_from("ab"),
                                             st.integers(0, len(LEAVES) - 1)),
                                   min_size=1, max_size=6),
       st.sampled_from([None, ONE, Negation(ONE)]))
def test_directed_tests_keep_combinations_order(n_individuals, leaves, wildcard):
    # Only directed tests decide: the steps come in the order a walk over
    # every subset of the universe first reaches each valuation.
    individuals = frozenset("ijk"[:n_individuals])
    parts = [LEAVES[kind](rel, Atom(name)) for rel, name, kind in leaves
             if rel.sender in individuals]
    if wildcard is not None:
        parts.append(Dynamic(directed("i", "j"), wildcard, Obligation(GLOBAL, Atom("c"))))
    assume(parts)
    formula = prepare(conj(*parts))
    actions = frozenset("abc")
    assume(len(relevant_universe(formula, individuals, actions)) <= 10)
    witnesses, reference = valuations_of_witnesses(formula, individuals, actions)
    assert witnesses == reference


def test_witnesses_are_drawn_lazily():
    # 2**40 valuations on distinct names, and 2**37 on one name with a
    # global test: only the steps that are read get built.
    individuals = frozenset({"i", "j"})
    names = [f"a{k:02}" for k in range(40)]
    formula = conj(*(Obligation(directed("i", "j"), Atom(name)) for name in names))
    everything = frozenset(ra("i", name, "j") for name in names)
    assert list(islice(enumerate_action_sets(formula, individuals), 3)) == [
        everything, everything - {ra("i", "a39", "j")}, everything - {ra("i", "a38", "j")}
    ]
    individuals = frozenset(f"i{k}" for k in range(6))
    formula = conj(Obligation(GLOBAL, Atom("a")),
                   *(Obligation(directed(s, r), Atom("a")) for s in individuals for r in individuals))
    grid = rows("a", sorted(individuals), individuals)
    assert list(islice(enumerate_action_sets(formula, individuals), 2)) == [
        grid, grid - {ra("i5", "a", "i5")}
    ]


@pytest.mark.parametrize("text", [
    "".join(f"{{i,j}}O(a{k}); " for k in range(30)),
    "O(a); " + "".join(f"{{i{s},i{r}}}O(a); " for s in range(5) for r in range(4)),
], ids=["30 names", "one name"])
def test_transition_budget_stops_a_state_with_many_valuations(text):
    verdict = check(parse_or_raise(text), BuildOptions(max_transitions=1_000))
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.reason.startswith("transition budget of 1000 exhausted after ")


def test_a_state_with_thousands_of_parts_is_checked_within_its_budget():
    # 1,100 performer rows, one per name, each a part of the root's steps.
    text = "".join(f"{{i}}[a{k}](O(b)); " for k in range(1_100))
    verdict = check(parse_or_raise(text), BuildOptions(max_transitions=50))
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.reason.startswith("transition budget of 50 exhausted after ")


def test_labels_hold_one_action_per_performer_test():
    # 200 performers over 200 receivers: the root's relevant universe has
    # 40,000 actions, but a step needs one action per true performer test.
    text = "".join(f"{{i{k}}}O(a{k}); " for k in range(200))
    outcome = run_check(parse_or_raise(text), BuildOptions(max_transitions=50))
    assert outcome.verdict.kind is VerdictKind.INCONCLUSIVE
    labels = [t.label for t in outcome.automaton.transitions if isinstance(t.label, frozenset)]
    assert max(map(len, labels)) <= 200


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


def assert_transitions_follow_decompose(spec, options):
    # The step tables must reproduce the public one-step semantics exactly.
    automaton = run_check(spec, options).automaton
    individuals = spec.effective_individuals
    for tr in automaton.transitions:
        if isinstance(tr.label, SpecialLabel):
            continue
        source, target = automaton.formulas[tr.source], automaton.formulas[tr.target]
        assert prepare(decompose(source, tr.label, individuals, spec.actions)) == target


@settings(max_examples=40, deadline=None)
@given(n_individuals=st.integers(1, 3), n_actions=st.integers(1, 3),
       clauses=st.integers(1, 2), seed=st.integers(0, 10**6), no_pruning=st.booleans())
def test_each_transition_is_the_prepared_decomposition(n_individuals, n_actions, clauses, seed,
                                                       no_pruning):
    spec = generate(individuals=n_individuals, actions=n_actions, clauses=clauses,
                    max_depth=3, seed=seed)
    options = BuildOptions(complete=True, no_pruning=no_pruning, max_states=60,
                           max_transitions=1_000)
    assert_transitions_follow_decompose(spec, options)


def test_construct_rejects_a_step_outside_the_alphabet(monkeypatch):
    import rclcheck.automaton as automaton

    monkeypatch.setattr(automaton, "enumerate_action_sets",
                        lambda *args: iter([frozenset({ra("i", "zz", "i")})]))
    with pytest.raises(ValueError, match="step outside the alphabet"):
        construct(parse_or_raise("O(a);"))


@pytest.mark.parametrize("name, complete", [
    ("sales-contract.rcl", False), ("sales-contract.rcl", True),
    ("sales-contract-amended.rcl", False),
    ("simple-example.rcl", False), ("simple-example.rcl", True),
], ids=["sales-first", "sales-complete", "amended-first", "simple-first", "simple-complete"])
def test_fixture_transitions_are_the_prepared_decomposition(name, complete):
    spec = parse_or_raise((CONTRACTS / name).read_text())
    options = BuildOptions(complete=complete, max_states=20_000, max_transitions=20_000)
    assert_transitions_follow_decompose(spec, options)


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
    assert str(exc.value).startswith("state budget of 2 exhausted after 2 states and ")
    assert exc.value.automaton.n_states == 2


def test_transition_budget_is_reported():
    spec = generate(individuals=4, actions=4, clauses=3, max_depth=3, seed=3)
    with pytest.raises(BudgetExceeded) as exc:
        construct(spec, BuildOptions(max_transitions=10))
    # The reason says how far the run got.
    states = exc.value.automaton.n_states
    assert exc.value.reason == (
        f"transition budget of 10 exhausted after {states} states and 10 transitions"
    )


def test_time_limit_is_reported():
    # The deadline passes while the root is labelled, before its first step.
    spec = parse_or_raise((CONTRACTS / "sales-contract.rcl").read_text())
    verdict = check(spec, BuildOptions(time_limit=1e-9))
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.reason == "time limit of 1e-09s exhausted after 1 states and 0 transitions"


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
