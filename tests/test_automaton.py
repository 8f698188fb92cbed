from __future__ import annotations

from functools import partial
from importlib import import_module
from itertools import combinations, islice
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rclcheck.automaton
from rclcheck import (
    BOTTOM,
    GLOBAL,
    ONE,
    TOP,
    ZERO,
    Atom,
    Bottom,
    BuildOptions,
    ContractAutomaton,
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
    canonicalize,
    check,
    conj,
    construct,
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
from rclcheck.conflicts import build_check
from rclcheck.decompose import _leaf, _table, decompose
from rclcheck.generator import generate

from conftest import CONTRACTS
from dot_grammar import validate_dot
from strategies import action_set_count, choice_obligation_specs, specs


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
    assert list(steps(formula, individuals)) == [frozenset({ra("i", "a", "j")}), frozenset()]
    # A leaf that no step changes reads nothing: a trigger of `true`, and a
    # wildcard whose two outcomes are one object.
    guarded = prepare(conj(Dynamic(directed("i", "j"), Atom("a"), TOP),
                           Obligation(directed("i", "j"), Atom("b"))))
    assert relevant_universe(guarded, individuals) == {ra("i", "b", "j")}
    wildcard = prepare(conj(Dynamic(GLOBAL, ONE, TOP), Obligation(directed("i", "j"), Atom("b"))))
    assert relevant_universe(wildcard, individuals, frozenset({"a", "b"})) == {ra("i", "b", "j")}
    # `{i,j}O(a) _/P(0)/_`: a reparation that prepares to `true` is no outcome.
    kept = Obligation(directed("i", "j"), Atom("a"), Permission(GLOBAL, ZERO))
    assert relevant_universe(kept, individuals) == frozenset()


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
    formula = conj(Obligation(GLOBAL, Atom("a")), Dynamic(GLOBAL, ONE, BOTTOM))
    assert relevant_universe(formula, individuals, actions) == {ra("i", "a", "i")}
    # Without an alphabet there is no action to spare.
    assert relevant_universe(Dynamic(GLOBAL, ONE, BOTTOM), individuals) == frozenset()


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


def steps(formula, individuals, actions=frozenset()):
    """The witness steps of a state's transitions, lazily and in order."""
    return (step for step, _, _ in
            enumerate_action_sets(formula, frozenset(individuals), actions=frozenset(actions)))


def test_trivial_formula_enumerates_only_the_empty_step():
    assert list(enumerate_action_sets(TOP, frozenset({"i"}), frozenset())) == [
        (frozenset(), TOP, {})]


def test_the_alphabet_gives_every_step():
    # The contract's actions give a wildcard its spare action and the
    # concrete mode its universe; without them both would lose steps.
    spec = parse_or_raise("[1](F(b)) ^ P(c);")
    state, individuals = prepare(spec.root()), spec.effective_individuals
    assert [step for step, _, _ in enumerate_action_sets(state, individuals, spec.actions)] == [
        {ra("i", "b", "i")}, frozenset()]
    spec = parse_or_raise("{i,j}O(a) ^ [1]({i,j}F(b));")
    concrete = enumerate_action_sets(prepare(spec.root()), spec.effective_individuals,
                                     spec.actions, BuildOptions(no_pruning=True))
    assert sum(1 for _ in concrete) == 2 ** 8


# ---------------------------------------------------------------------------
# cubes: one transition per cube of a state's leaf tests


def rows(name, senders, individuals):
    return frozenset(ra(s, name, r) for s in senders for r in individuals)


def test_false_global_test_leaves_the_free_rows_idle():
    individuals = frozenset({"i", "j", "k"})
    formula = conj(Obligation(GLOBAL, Atom("a")),
                   Dynamic(directed("k", "k"), Atom("a"), Obligation(GLOBAL, Atom("b"))))
    # A name's directed tests split before its global test.  Each row that
    # must perform holds its directed cell when that test is true, else its
    # least cell not fixed false; a row that need not perform stays empty.
    assert list(enumerate_action_sets(formula, individuals, frozenset("ab"))) == [
        ({ra("i", "a", "i"), ra("j", "a", "i"), ra("k", "a", "k")}, Obligation(GLOBAL, Atom("b")),
         {ra("k", "a", "k"): True, "a": True}),
        ({ra("k", "a", "k")}, BOTTOM, {ra("k", "a", "k"): True, "a": False}),
        ({ra("i", "a", "i"), ra("j", "a", "i"), ra("k", "a", "i")}, TOP,
         {ra("k", "a", "k"): False, "a": True}),
        (frozenset(), BOTTOM, {ra("k", "a", "k"): False, "a": False}),
    ]


def test_performer_witness_holds_one_action():
    individuals = frozenset({"i", "j", "k"})
    formula = Obligation(performer("i"), Atom("a"))
    assert list(steps(formula, individuals)) == [{ra("i", "a", "i")}, frozenset()]


def test_unsatisfiable_valuation_is_skipped():
    # A true global test with a false performer test on the same name
    # cannot happen: every individual, i included, performs the action.
    individuals = frozenset({"i", "j"})
    formula = conj(Dynamic(performer("i"), Atom("a"), Obligation(GLOBAL, Atom("b"))),
                   Dynamic(GLOBAL, Atom("a"), Obligation(GLOBAL, Atom("c"))))
    cubes = enumerate_action_sets(formula, individuals, frozenset("abc"))
    assert [(step, cube) for step, _, cube in cubes] == [
        ({ra("i", "a", "i"), ra("j", "a", "i")}, {("i", "a"): True, "a": True}),
        ({ra("i", "a", "i")}, {("i", "a"): True, "a": False}),
        (frozenset(), {("i", "a"): False, "a": False}),
    ]


def test_breached_obligations_end_their_cubes():
    # A false test whose leaf breaches the whole state decides it: 30
    # obligations give 31 cubes, not 2**30 valuations.
    # No two tags can clash, so the check itself builds nothing.
    spec = parse_or_raise("".join(f"{{i,j}}O(a{k}); " for k in range(30)))
    options = BuildOptions(max_transitions=1_000)
    assert len(construct(spec, options).transitions) == 33
    assert check(spec, options).kind is VerdictKind.CONFLICT_FREE


@pytest.mark.parametrize("wildcard", [ONE, Negation(ONE)], ids=["[1]", "[!1]"])
def test_wildcard_valuations_use_the_spare_action(wildcard):
    individuals = frozenset({"i", "j"})
    actions = frozenset({"a", "b"})
    alone = Dynamic(GLOBAL, wildcard, Obligation(GLOBAL, Atom("b")))
    # True: the spare action alone; false: the empty step.
    assert list(steps(alone, individuals, actions)) == [{ra("i", "a", "i")}, frozenset()]
    guarded = conj(Prohibition(directed("i", "i"), Atom("a")), alone)
    # With no other test true, the spare is the least action that keeps
    # every fixed test false.
    assert list(steps(guarded, individuals, actions)) == [
        {ra("i", "a", "i")},   # the prohibition breached: the wildcard is never read
        {ra("i", "a", "j")},   # wildcard true
        frozenset(),           # wildcard false
    ]


def test_wildcard_without_a_spare_needs_a_tested_action():
    individuals = frozenset({"i"})
    formula = conj(Dynamic(performer("i"), Atom("a"), BOTTOM), Dynamic(GLOBAL, ONE, BOTTOM))
    # The only action makes the performer test true, so the wildcard is
    # never true alone: with the performer test false, the step is empty.
    assert list(steps(formula, individuals, frozenset({"a"}))) == [{ra("i", "a", "i")}, frozenset()]


def holds(key, step, individuals):
    """Whether a step makes a leaf test true (see ``decompose._test``)."""
    if key is True:
        return bool(step)
    if type(key) is RelativizedAction:
        return key in step
    if type(key) is tuple:
        return any(a[:2] == key for a in step)
    return individuals <= {a.sender for a in step if a.action == key}


def check_cubes(formula, individuals, actions):
    """Brute force over every subset of the universe: each step's valuation
    of the state's leaf tests lies in exactly one cube, whose residual is
    the step's prepared decomposition, and each cube's witness realizes it.
    The universe is the whole relativized one when it is small, so that the
    check does not trust ``relevant_universe``."""
    universe = relativized_universe(individuals, actions)
    if len(universe) > 10:
        universe = relevant_universe(formula, individuals, actions)
    cubes = list(enumerate_action_sets(formula, individuals, actions))
    for witness, residual, cube in cubes:
        assert all(holds(key, witness, individuals) is v for key, v in cube.items())
        assert prepare(decompose(formula, witness, individuals, actions)) == residual
    for size in range(len(universe) + 1):
        for subset in combinations(sorted(universe), size):
            step = frozenset(subset)
            inside = [residual for _, residual, cube in cubes
                      if all(holds(key, step, individuals) is v for key, v in cube.items())]
            assert inside == [prepare(decompose(formula, step, individuals, actions))]


@settings(max_examples=60, deadline=None)
@given(n_individuals=st.integers(2, 3), clauses=st.integers(1, 2), seed=st.integers(0, 10**6))
def test_cubes_partition_the_satisfiable_valuations(n_individuals, clauses, seed):
    spec = generate(individuals=n_individuals, actions=2, clauses=clauses, max_depth=3, seed=seed)
    options = BuildOptions(complete=True, max_states=40, max_transitions=2_000)
    automaton = construct(spec, options)
    individuals = spec.effective_individuals
    for formula in automaton.formulas:
        # Keep the walk over every subset small.
        if not isinstance(formula, (Top, Bottom)) and min(
                len(relativized_universe(individuals, spec.actions)),
                len(relevant_universe(formula, individuals, spec.actions))) <= 10:
            check_cubes(formula, individuals, spec.actions)


@settings(max_examples=30, deadline=None)
@given(n_actions=st.integers(2, 3), clauses=st.integers(1, 2), seed=st.integers(0, 10**6))
def test_pruned_verdict_matches_concrete_mode(n_actions, clauses, seed):
    spec = generate(individuals=2, actions=n_actions, clauses=clauses, max_depth=3, seed=seed)
    budget = dict(max_states=2_000, max_transitions=20_000)
    concrete = build_check(spec, BuildOptions(no_pruning=True, **budget)).verdict
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
    # Leaves that no step changes: a never-matched trigger, and two
    # outcomes that are one object.
    lambda rel, a: Dynamic(rel, ZERO, Obligation(GLOBAL, Atom("c"))),
    lambda rel, a: Dynamic(rel, Negation(ZERO), Obligation(GLOBAL, Atom("c"))),
    lambda rel, a: Obligation(rel, a, TOP),
    lambda rel, a: Dynamic(rel, a, TOP),
]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(st.tuples(st.sampled_from(RELS), st.sampled_from("ab"),
                                             st.integers(0, len(LEAVES) - 1)),
                                   min_size=1, max_size=6),
       st.sampled_from([None, ONE, Negation(ONE)]))
def test_witnesses_of_drawn_leaf_tests(n_individuals, leaves, wildcard):
    # Global, performer and directed tests mixed on one or two names, so a
    # global test meets performer rows and directed cells of its own name,
    # with or without a wildcard.  With one individual, a global test is
    # made true by a single action.
    individuals = frozenset("ijk"[:n_individuals])
    parts = [LEAVES[kind](rel, Atom(name)) for rel, name, kind in leaves
             if rel.individuals() <= individuals]
    if wildcard is not None:
        parts.append(Dynamic(GLOBAL, wildcard, Obligation(GLOBAL, Atom("c"))))
    assume(parts)
    formula = prepare(conj(*parts))
    actions = frozenset("abc")
    assume(len(relevant_universe(formula, individuals, actions)) <= 10)
    check_cubes(formula, individuals, actions)


def sampled_step(rng, individuals, actions):
    """A step drawn name by name: no action, random cells, or every sender
    performing, so that global tests come out true as well as false."""
    order = sorted(individuals)
    step = set()
    for name in sorted(actions):
        mode = rng.randrange(3)
        if mode == 1:
            step.update(ra(s, name, r) for s in order for r in order if rng.random() < 0.2)
        elif mode == 2:
            step.update(ra(s, name, rng.choice(order)) for s in order)
    return frozenset(step)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.lists(st.tuples(st.sampled_from(RELS), st.sampled_from("ab"),
                                             st.integers(0, len(LEAVES) - 1)),
                                   min_size=1, max_size=6),
       st.sampled_from([None, ONE, Negation(ONE)]), st.integers(0, 10**6))
# A false performer test leaves its global test no true side.
@example(5, [(performer("i"), "a", 3), (GLOBAL, "a", 3)], None, 0)
def test_sampled_steps_at_many_individuals_lie_in_one_cube(n_individuals, leaves, wildcard, seed):
    # The leaf tests name only i, j and k, so the other individuals are
    # senders that only a global test reads.
    individuals = frozenset(["i", "j", "k", *(f"p{m}" for m in range(n_individuals - 3))])
    parts = [LEAVES[kind](rel, Atom(name)) for rel, name, kind in leaves]
    if wildcard is not None:
        parts.append(Dynamic(GLOBAL, wildcard, Obligation(GLOBAL, Atom("c"))))
    formula = prepare(conj(*parts))
    actions = frozenset("abc")
    cubes = list(enumerate_action_sets(formula, individuals, actions))
    for witness, residual, cube in cubes:
        assert all(holds(key, witness, individuals) is v for key, v in cube.items())
        assert prepare(decompose(formula, witness, individuals, actions)) == residual
    for (_, _, one), (_, _, other) in combinations(cubes, 2):
        assert any(key in other and other[key] is not v for key, v in one.items())
    rng = Random(seed)
    for _ in range(200):
        step = sampled_step(rng, individuals, actions)
        inside = [residual for _, residual, cube in cubes
                  if all(holds(key, step, individuals) is v for key, v in cube.items())]
        assert inside == [prepare(decompose(formula, step, individuals, actions))]


# Leaves whose outcomes differ, so every key of the state is a live test.
TESTED = [0, 1, 3, 4]


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 6), st.sampled_from(["directed", "performer", "global"]),
       st.lists(st.tuples(st.sampled_from("ijk"), st.sampled_from("ijk"), st.sampled_from("ab"),
                          st.sampled_from(TESTED)), min_size=1, max_size=5),
       st.sampled_from(TESTED), st.integers(0, 10**6))
def test_directed_cells_count_only_for_the_tests_that_read_their_row(
        n_individuals, reader, cells, reader_kind, seed):
    # A directed test counts its row's fixed cells only when a performer
    # test of its row or a global test of its name reads them.  States with
    # such a reader of the first cell's row, and states whose keys are all
    # directed: each sampled step lies in exactly one cube, whose residual
    # is the step's.
    individuals = frozenset(["i", "j", "k", *(f"p{m}" for m in range(n_individuals - 3))])
    parts = [LEAVES[kind](directed(s, r), Atom(name)) for s, r, name, kind in cells]
    sender, _, name, _ = cells[0]
    if reader != "directed":
        rel = performer(sender) if reader == "performer" else GLOBAL
        parts.append(LEAVES[reader_kind](rel, Atom(name)))
    formula = prepare(conj(*parts))
    actions = frozenset("abc")
    keys = [key for key in _table(formula, partial(_leaf, prepare))[2] if type(key) is not bool]
    assert all(type(key) is RelativizedAction for key in keys) is (reader == "directed")
    cubes = list(enumerate_action_sets(formula, individuals, actions))
    for witness, residual, cube in cubes:
        assert all(holds(key, witness, individuals) is v for key, v in cube.items())
        assert prepare(decompose(formula, witness, individuals, actions)) == residual
    rng = Random(seed)
    for _ in range(200):
        step = sampled_step(rng, individuals, actions)
        inside = [residual for _, residual, cube in cubes
                  if all(holds(key, step, individuals) is v for key, v in cube.items())]
        assert inside == [prepare(decompose(formula, step, individuals, actions))]


@pytest.mark.parametrize("n_individuals", [4, 16, 32])
def test_idle_senders_share_of_a_global_witness_is_built_once(monkeypatch, n_individuals):
    # Six directed triggers and a global one: 128 cubes, half of them with
    # the global test true.  Its witness holds one action per sender, and
    # those of the senders no other test names are built once per state.
    individuals = frozenset(f"i{k:02}" for k in range(n_individuals))
    formula = prepare(conj(
        *(Dynamic(directed("i00", "i01"), Atom(f"b{k}"), Obligation(GLOBAL, Atom("c")))
          for k in range(6)),
        Dynamic(GLOBAL, Atom("z"), Obligation(GLOBAL, Atom("c")))))
    built = []
    new = RelativizedAction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(RelativizedAction, "__new__", counting)
    names = frozenset({*(f"b{k}" for k in range(6)), "c", "z"})
    cubes = list(enumerate_action_sets(formula, individuals, names))
    monkeypatch.undo()
    assert len(cubes) == 128
    assert sum(len(step) == n_individuals + 6 for step, _, _ in cubes) == 1
    assert len(built) <= len(individuals) + 16


def test_witnesses_are_drawn_lazily():
    # 2**30 cubes on distinct names, and 2**21 on one name with a global
    # test: only the cubes that are read get built.
    individuals = frozenset({"i", "j"})
    names = [f"a{k:02}" for k in range(30)]
    formula = prepare(conj(*(Dynamic(directed("i", "j"), Atom(name),
                                     Obligation(directed("i", "j"), Atom("b" + name)))
                             for name in names)))
    everything = frozenset(ra("i", name, "j") for name in names)
    assert list(islice(steps(formula, individuals), 3)) == [
        everything, everything - {ra("i", "a29", "j")}, everything - {ra("i", "a28", "j")}
    ]
    individuals = frozenset(f"i{k}" for k in range(6))
    formula = prepare(conj(Dynamic(GLOBAL, Atom("a"), Obligation(GLOBAL, Atom("c"))),
                           *(Dynamic(directed(s, r), Atom("a"), Obligation(directed(s, r), Atom("b")))
                             for s in individuals for r in individuals)))
    grid = rows("a", sorted(individuals), individuals)
    # The global test cannot be false while every sender has a true cell.
    assert list(islice(steps(formula, individuals), 3)) == [
        grid, grid - {ra("i5", "a", "i5")}, grid - {ra("i5", "a", "i4")}
    ]


@pytest.mark.parametrize("text", [
    "".join(f"{{i,j}}[a{k}]({{i,j}}O(b{k})); " for k in range(30)),
    "[a](O(c)); " + "".join(f"{{i{s},i{r}}}[a]({{i{s},i{r}}}O(b{s}{r})); "
                            for s in range(5) for r in range(4)),
], ids=["30 names", "one name"])
def test_transition_budget_stops_a_state_with_many_valuations(text):
    # Every test of the root decides its residual: 2**30 and 2**21 cubes.
    spec, options = parse_or_raise(text), BuildOptions(max_transitions=1_000)
    exhausted = construct(spec, options).exhausted
    assert exhausted.startswith("transition budget of 1000 exhausted after ")
    assert check(spec, options).kind is VerdictKind.CONFLICT_FREE


def test_a_state_with_thousands_of_parts_is_checked_within_its_budget():
    # 1,100 performer rows, one per name, each a part of the root's steps.
    spec = parse_or_raise("".join(f"{{i}}[a{k}](O(b)); " for k in range(1_100)))
    options = BuildOptions(max_transitions=50)
    exhausted = construct(spec, options).exhausted
    assert exhausted.startswith("transition budget of 50 exhausted after ")
    assert check(spec, options).kind is VerdictKind.CONFLICT_FREE


def test_labels_hold_one_action_per_performer_test():
    # 200 performers over 200 receivers: the root's relevant universe has
    # 40,000 actions, but a step needs one action per true performer test.
    spec = parse_or_raise("".join(f"{{i{k}}}O(a{k}); " for k in range(200)))
    options = BuildOptions(max_transitions=50)
    automaton = construct(spec, options)
    assert automaton.exhausted
    labels = [t.label for t in automaton.transitions if isinstance(t.label, frozenset)]
    assert max(map(len, labels)) <= 200
    assert check(spec, options).kind is VerdictKind.CONFLICT_FREE


def test_no_pruning_enumeration_order():
    formula = Obligation(directed("i", "i"), Atom("a"))
    options = BuildOptions(no_pruning=True)
    individuals = frozenset({"i"})
    sets = list(
        enumerate_action_sets(formula, individuals, frozenset({"a", "b"}), options)
    )
    assert [len(step) for step, _, _ in sets] == [2, 1, 1, 0]
    # Largest first, then in `combinations` order of the sorted universe.
    assert [step for step, _, _ in sets] == [
        {ra("i", "a", "i"), ra("i", "b", "i")}, {ra("i", "a", "i")}, {ra("i", "b", "i")},
        frozenset(),
    ]
    assert sets[-1] == (frozenset(), BOTTOM, None)


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


def test_construct_calls_on_state_once_per_state_in_order(sales_contract_text):
    # The callback sees each state's id and formula, and nothing else.
    spec = parse_or_raise(sales_contract_text)
    options = BuildOptions(complete=True)
    visited = []
    automaton = construct(spec, options, lambda *state: visited.append(state) or False)
    assert visited == list(enumerate(automaton.formulas))
    assert automaton == construct(spec, options)
    assert automaton.n_states > 1


def assert_transitions_follow_decompose(spec, options):
    # The step tables must reproduce the public one-step semantics exactly.
    automaton = build_check(spec, options).automaton
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
                        lambda *args: iter([(frozenset({ra("i", "zz", "i")}), TOP, {})]))
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
    expected = [step for step, _, _ in
                enumerate_action_sets(automaton.formulas[0], spec.effective_individuals,
                                      spec.actions, options)]
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
    automaton = construct(spec, BuildOptions(max_states=2))
    assert automaton.exhausted.startswith("state budget of 2 exhausted after 2 states and ")
    assert automaton.n_states == 2


def test_transition_budget_is_reported():
    spec = generate(individuals=4, actions=4, clauses=3, max_depth=3, seed=3)
    automaton = construct(spec, BuildOptions(max_transitions=10))
    # The reason says how far the run got.
    states = automaton.n_states
    assert automaton.exhausted == (
        f"transition budget of 10 exhausted after {states} states and 10 transitions"
    )


@pytest.mark.parametrize("bad", [
    dict(max_states=0), dict(max_transitions=0), dict(max_transitions=-5),
    dict(time_limit=float("nan")), dict(time_limit=float("inf")), dict(time_limit=0.0),
    dict(time_limit=-1.0), dict(max_transitions=float("nan")), dict(max_states=2.5),
    dict(max_states=True), dict(max_states="5"), dict(max_states=None), dict(time_limit="1"),
    dict(time_limit=True),
], ids=repr)
def test_build_options_reject_bad_values(bad):
    with pytest.raises(ValueError):
        BuildOptions(**bad)


def test_replaced_build_options_are_checked_too():
    assert BuildOptions()._replace(max_states=3) == BuildOptions(max_states=3)
    with pytest.raises(ValueError):
        BuildOptions()._replace(max_transitions=float("nan"))


def test_build_options_take_no_time_limit():
    assert BuildOptions(time_limit=None).time_limit is None
    assert BuildOptions(max_states=1, max_transitions=1, time_limit=1e-9).max_transitions == 1


def test_time_limit_is_reported():
    # The deadline passes while the root is labelled, before its first step.
    spec = parse_or_raise((CONTRACTS / "sales-contract.rcl").read_text())
    verdict = check(spec, BuildOptions(time_limit=1e-9))
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.reason == "time limit of 1e-09s exhausted after 1 states and 0 transitions"


def test_an_expired_deadline_stops_before_a_sink_loop():
    # A satisfied state's self-loop is drawn like any other step, after the
    # deadline check.  The pre-check decides this contract without a build.
    spec, options = parse_or_raise("true;"), BuildOptions(time_limit=1e-9)
    verdict = build_check(spec, options).verdict
    assert verdict.reason == "time limit of 1e-09s exhausted after 1 states and 0 transitions"
    assert run_check(spec, options).verdict.kind is VerdictKind.CONFLICT_FREE


@settings(max_examples=150, deadline=None)
@given(spec=st.one_of(specs(pairs=True), st.builds(
           lambda n, clauses, seed: generate(individuals=n, actions=n, clauses=clauses,
                                             max_depth=3, seed=seed),
           st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 10**6))),
       budget=st.integers(1, 60), complete=st.booleans(), no_pruning=st.booleans())
def test_a_budgeted_build_is_a_prefix_of_the_whole_one(spec, budget, complete, no_pruning):
    no_pruning &= len(relativized_universe(spec.effective_individuals, spec.actions)) <= 8
    options = BuildOptions(complete=complete, no_pruning=no_pruning)
    whole = build_check(spec, options).automaton
    assert not whole.exhausted
    part = build_check(spec, BuildOptions(complete=complete, no_pruning=no_pruning,
                                          max_states=budget, max_transitions=budget)).automaton
    states, transitions = part.n_states, len(part.transitions)
    assert part.formulas == whole.formulas[:states]
    assert part.transitions == whole.transitions[:transitions]
    # Empty exactly when the build finished or on_state halted it.
    finished = (part.formulas, part.transitions) == (whole.formulas, whole.transitions)
    assert bool(part.exhausted) is not finished
    if part.exhausted:
        assert part.exhausted.endswith(f"after {states} states and {transitions} transitions")
    assert {t.target for t in part.transitions} >= set(range(1, states))
    for sid in range(states):
        assert trace_to(part, sid)[-1].state == sid


@settings(max_examples=100, deadline=None)
@given(spec=st.one_of(specs(pairs=True), choice_obligation_specs(), st.builds(
           lambda n, clauses, depth, seed: generate(individuals=n, actions=n, clauses=clauses,
                                                    max_depth=depth, seed=seed),
           st.sampled_from([2, 3]), st.integers(1, 3), st.integers(4, 5), st.integers(0, 10**6))))
def test_exposed_bodies_need_only_their_top_level_normalised(spec):
    # The root is prepared whole, so every state is canonical all the way
    # down, and what a step exposes needs no deeper normalisation than
    # ``prepare_exposed``: the deep ``prepare`` builds the same automaton.
    options = BuildOptions(complete=True, max_states=300, max_transitions=6000)
    fast = build_check(spec, options).automaton
    assert all(canonicalize(f) == f for f in fast.formulas)
    with patch.object(rclcheck.automaton, "prepare_exposed", prepare):
        deep = build_check(spec, options).automaton
    assert [f.key() for f in fast.formulas] == [f.key() for f in deep.formulas]
    assert fast.transitions == deep.transitions
    assert (fast.conflict_states, fast.exhausted) == (deep.conflict_states, deep.exhausted)


def guarded_chain(depth: int) -> str:
    """Obligations nested ``depth`` deep, each guarded by the one before,
    and a prohibition of the last that clashes with it."""
    body = "{i,j}O(done)"
    for k in range(depth, 0, -1):
        body = f"{{i,j}}O(s{k}) ^ {{k,j}}P(r{k}) ^ {{i,j}}[s{k}]({body})"
    return body + ";\n{i,j}[!never*]({i,j}F(done));\n"


def test_normalisation_grows_linearly_along_a_guarded_chain(monkeypatch):
    # Counted, not timed, through the module globals the engine calls: a
    # step that renormalised what it exposes all the way down made 3.9
    # times the calls at depth 64 that it made at depth 32.
    calls = []
    for module in map(import_module, ("rclcheck.formula", "rclcheck.decompose",
                                      "rclcheck.automaton")):
        for name in ("canonicalize", "join"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _fn=fn: calls.append(1) or _fn(*a))

    def cost(depth: int) -> int:
        spec = parse_or_raise(guarded_chain(depth))
        calls.clear()
        reports = build_check(spec).verdict.reports
        assert [r.state for r in reports] == [2 * depth + 2]
        return len(calls)

    assert cost(64) <= 2.5 * cost(32)


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
    # ``construct`` leaves no state that no transition enters, so this
    # automaton is built by hand.
    automaton = ContractAutomaton((TOP, BOTTOM), ())
    with pytest.raises(ValueError, match="^state s1 is unreachable from s0$"):
        trace_to(automaton, 1)


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
