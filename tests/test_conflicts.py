from __future__ import annotations

import gc
import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rclcheck.automaton
import rclcheck.conflicts as conflicts
import rclcheck.decompose
from rclcheck import (
    And,
    Atom,
    BuildOptions,
    Choice,
    ConflictKind,
    ConflictRelations,
    DeonticGroup,
    DeonticOp,
    DeonticTag,
    GLOBAL,
    GroupKind,
    Obligation,
    Permission,
    Prohibition,
    Relativization,
    VerdictKind,
    XChoice,
    check,
    conj,
    construct,
    directed,
    export_dot,
    parse_or_raise,
    performer,
    render_formula,
    run_check,
    search_conflicts,
    tags_conflict,
    trace_to,
    xchoice,
)
from rclcheck.conflicts import _order, build_check, clash_free_tag_count, render_tag
from rclcheck.decompose import deontic_tags, exposed_tags, prepare, rewrite_compound
from rclcheck.generator import generate

from conftest import CONTRACTS
from dot_grammar import validate_dot
from strategies import choice_obligation_specs, group_values, rename_spec, specs

NO_PREDEF = ConflictRelations()


def tag(rel, op, action):
    return DeonticTag(rel, op, action)


O, P, F = DeonticOp.OBLIGATION, DeonticOp.PERMISSION, DeonticOp.PROHIBITION
IJ = directed("i", "j")


# ---------------------------------------------------------------------------
# tags_conflict


def test_obligation_vs_prohibition_same_pair():
    assert (
        tags_conflict(tag(IJ, O, "b"), tag(IJ, F, "b"), NO_PREDEF)
        is ConflictKind.OBLIGATION_VS_PROHIBITION
    )


def test_distinct_performers_do_not_clash():
    assert tags_conflict(tag(performer("i"), O, "a"), tag(performer("j"), F, "a"), NO_PREDEF) is None


def test_global_overlaps_every_performer():
    assert (
        tags_conflict(tag(GLOBAL, O, "a"), tag(performer("i"), F, "a"), NO_PREDEF)
        is ConflictKind.OBLIGATION_VS_PROHIBITION
    )
    assert (
        tags_conflict(tag(GLOBAL, P, "a"), tag(performer("i"), F, "a"), NO_PREDEF)
        is ConflictKind.PROHIBITION_VS_PERMISSION
    )


def test_directed_pairs_with_different_receivers_do_not_clash():
    assert tags_conflict(tag(directed("i", "j"), O, "a"), tag(directed("i", "k"), F, "a"), NO_PREDEF) is None


def test_performer_overlaps_directed_with_same_sender():
    assert (
        tags_conflict(tag(performer("i"), F, "a"), tag(directed("i", "k"), O, "a"), NO_PREDEF)
        is ConflictKind.OBLIGATION_VS_PROHIBITION
    )


def test_obligation_vs_permission_same_action_is_fine():
    assert tags_conflict(tag(IJ, O, "a"), tag(IJ, P, "a"), NO_PREDEF) is None


def test_prohibitions_never_clash_with_each_other():
    assert tags_conflict(tag(IJ, F, "a"), tag(IJ, F, "a"), NO_PREDEF) is None


def test_predefined_pairs():
    rels = ConflictRelations.make(relativized_pairs=[("e", "f")])
    assert (
        tags_conflict(tag(performer("i"), O, "e"), tag(performer("i"), O, "f"), rels)
        is ConflictKind.OBLIGATION_VS_OBLIGATION_PREDEF
    )
    assert tags_conflict(tag(performer("i"), O, "e"), tag(performer("j"), O, "f"), rels) is None
    glob = ConflictRelations.make(global_pairs=[("e", "f")])
    assert (
        tags_conflict(tag(performer("i"), O, "e"), tag(performer("j"), O, "f"), glob)
        is ConflictKind.OBLIGATION_VS_OBLIGATION_PREDEF
    )
    assert (
        tags_conflict(tag(performer("i"), P, "e"), tag(performer("j"), O, "f"), glob)
        is ConflictKind.PERMISSION_VS_OBLIGATION_PREDEF
    )


def _all_rels(individuals):
    rels = [GLOBAL]
    for i in individuals:
        rels.append(performer(i))
        for j in individuals:
            rels.append(directed(i, j))
    return rels


def test_tags_conflict_symmetry_exhaustive():
    individuals = ["i", "j", "k"]
    actions = ["a", "b", "c"]
    rel_table = ConflictRelations.make(
        global_pairs=[("a", "b")], relativized_pairs=[("b", "c")]
    )
    tags = [
        tag(rel, op, action)
        for rel in _all_rels(individuals)
        for op in DeonticOp
        for action in actions
    ]
    for d1, d2 in itertools.product(tags, repeat=2):
        for rels in (NO_PREDEF, rel_table):
            assert tags_conflict(d1, d2, rels) == tags_conflict(d2, d1, rels)


def _performers_overlap_by_properties(r1, r2):
    """The overlap rule as written on the relativization properties."""
    if r1.is_global or r2.is_global:
        return True
    if r1.is_directed and r2.is_directed:
        return r1.sender == r2.sender and r1.receiver == r2.receiver
    return r1.sender == r2.sender


def _senders_overlap_by_properties(r1, r2):
    return r1.is_global or r2.is_global or r1.sender == r2.sender


def test_overlap_helpers_match_the_property_rule_exhaustively():
    rels = _all_rels(["i", "j", "k"])
    assert len(rels) == 13  # global, 3 performers, 9 directed (self-directed too)
    for r1, r2 in itertools.product(rels, repeat=2):
        assert conflicts._performers_overlap(r1, r2) == _performers_overlap_by_properties(r1, r2)
        assert conflicts._senders_overlap(r1, r2) == _senders_overlap_by_properties(r1, r2)


def _clashing(d, rels):
    """Every tag over ``d``'s action and individuals i, j that clashes with ``d``."""
    candidates = (tag(rel, op, d.action) for rel in _all_rels(("i", "j")) for op in DeonticOp)
    return {c for c in candidates if tags_conflict(d, c, rels) is not None}


def test_directed_obligation_clashes_with_exactly_the_overlapping_prohibitions():
    assert _clashing(tag(IJ, O, "a"), NO_PREDEF) == {
        tag(GLOBAL, F, "a"),
        tag(performer("i"), F, "a"),
        tag(directed("i", "j"), F, "a"),
    }


def test_permission_only_clashes_with_prohibitions_without_predefs():
    out = _clashing(tag(performer("i"), P, "a"), NO_PREDEF)
    assert out and all(t.op is F for t in out)


# ---------------------------------------------------------------------------
# search_conflicts over state groups


def groups_of(text):
    spec = parse_or_raise(text)
    return deontic_tags(prepare(spec.root())), spec.conflicts


def test_search_finds_the_clash():
    groups, rels = groups_of("{i,j}O(a) ^ {i,j}O(b) ^ {i,j}F(b);")
    clash = search_conflicts(groups, rels)
    assert clash is not None
    left, right, kind = clash
    assert kind is ConflictKind.OBLIGATION_VS_PROHIBITION
    assert {left.action, right.action} == {"b"}


def test_choice_group_with_a_free_alternative_is_safe():
    groups, rels = groups_of("{i,j}O(a+b) ^ {i,j}F(b);")
    assert search_conflicts(groups, rels) is None


def test_choice_group_blocked_by_one_group_clashes():
    # every alternative must clash against the same opposing group
    text = "conflict { global { (a, c), (b, c) }; }; {i}O(a+b) ^ {j}O(c);"
    groups, rels = groups_of(text)
    clash = search_conflicts(groups, rels)
    assert clash is not None
    assert clash[2] is ConflictKind.OBLIGATION_VS_OBLIGATION_PREDEF


def test_choice_comparison_is_groupwise():
    # two separate prohibitions jointly cover the alternatives, but no
    # single group blocks them all, so the pairwise search stays quiet
    groups, rels = groups_of("{i,j}O(a+b) ^ {i,j}F(a) ^ {i,j}F(b);")
    assert search_conflicts(groups, rels) is None


def test_empty_groups_have_no_conflict():
    assert search_conflicts(frozenset(), NO_PREDEF) is None


def test_an_empty_choice_group_clashes_with_nothing():
    groups = frozenset({DeonticGroup(GroupKind.OBLIGATION_CHOICE, frozenset()),
                        DeonticGroup(GroupKind.CONJUNCT, frozenset({tag(GLOBAL, O, "a")}))})
    assert search_conflicts(groups, NO_PREDEF) is None


_CHOICE = GroupKind.OBLIGATION_CHOICE


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(group_values, st.just(DeonticGroup(_CHOICE, frozenset()))),
                unique=True, max_size=6))
@example([DeonticGroup(_CHOICE, frozenset({tag(GLOBAL, O, "a"), tag(performer("i"), O, "b")})),
          DeonticGroup(_CHOICE, frozenset({tag(GLOBAL, O, "a")})),
          DeonticGroup(_CHOICE, frozenset())])
def test_order_sorts_groups_as_their_sort_key(groups):
    # A group's place in the search is its sort key, so the order is stated once.
    assert sorted(groups, key=_order) == sorted(groups, key=DeonticGroup.sort_key)
    for group in groups:
        assert _order(group) == (group.sort_key(), group.kind,
                                 sorted(group.tags, key=DeonticTag.sort_key))


# ---------------------------------------------------------------------------
# whole-contract checks


def test_conflict_at_the_initial_state_has_an_empty_trace():
    verdict = check(parse_or_raise("{i}O(a) ^ {i}F(a);"))
    assert verdict.kind is VerdictKind.CONFLICTS
    report = verdict.reports[0]
    assert report.state == 0
    assert len(report.trace) == 1


def test_global_dominance():
    for action in ("a", "b", "c"):
        for individual in ("i", "j", "k"):
            verdict = check(parse_or_raise(f"O({action}) ^ {{{individual}}}F({action});"))
            assert verdict.kind is VerdictKind.CONFLICTS, (action, individual)


def test_no_false_positive_on_wider_choices():
    # one alternative forbidden: fine for any k >= 2, a clash at k == 1
    assert check(parse_or_raise("{i,j}O(a+b) ^ {i,j}F(b);")).is_conflict_free
    assert check(parse_or_raise("{i,j}O(a+b+c) ^ {i,j}F(b);")).is_conflict_free
    assert check(parse_or_raise("{i,j}O(b) ^ {i,j}F(b);")).has_conflicts


def test_early_stop_report_is_in_the_complete_run():
    for seed in range(120):
        spec = generate(individuals=2, actions=2, clauses=2, max_depth=3, seed=seed)
        early = check(spec)
        if not early.has_conflicts:
            continue
        complete = check(spec, BuildOptions(complete=True))
        assert complete.has_conflicts
        pairs = {(r.state, r.left, r.right) for r in complete.reports}
        first = early.reports[0]
        assert (first.state, first.left, first.right) in pairs


def test_complete_reports_are_sorted_and_carry_traces():
    spec = parse_or_raise("{i}O(a) ^ {i}F(a) ^ [b]({j}O(c) ^ {j}F(c));")
    verdict = check(spec, BuildOptions(complete=True))
    assert verdict.has_conflicts
    lengths = [len(r.trace) for r in verdict.reports]
    assert lengths == sorted(lengths)
    for report in verdict.reports:
        assert report.trace[-1].state == report.state


def test_budget_exhaustion_is_inconclusive():
    # No two of this contract's tags can clash, so only the build runs out.
    spec = generate(individuals=4, actions=4, clauses=3, max_depth=3, seed=3)
    options = BuildOptions(max_transitions=10)
    assert "budget" in construct(spec, options).exhausted
    assert check(spec, options).kind is VerdictKind.CONFLICT_FREE


def test_renaming_preserves_verdicts_and_maps_clashes():
    ind_map = {"i1": "p9", "i2": "q8"}
    act_map = {"a1": "x1", "a2": "x2"}

    def mapped_tag(t):
        rel = t.rel
        if not rel.is_global:
            rel = Relativization(
                ind_map.get(rel.sender, rel.sender),
                None if rel.receiver is None else ind_map.get(rel.receiver, rel.receiver),
            )
        return DeonticTag(rel, t.op, act_map.get(t.action, t.action))

    def every_clash(outcome, rels):
        # Each pair of a conflicting state's groups, searched alone.
        for sid in outcome.automaton.conflict_states:
            groups = deontic_tags(outcome.automaton.formulas[sid])
            for pair in itertools.combinations(groups, 2):
                clash = search_conflicts(frozenset(pair), rels)
                if clash is not None:
                    yield clash[:2]

    for seed in range(60):
        spec = generate(individuals=2, actions=2, clauses=2, max_depth=3, seed=seed)
        renamed = rename_spec(spec, ind_map, act_map)
        base = run_check(spec, BuildOptions(complete=True))
        other = run_check(renamed, BuildOptions(complete=True))
        assert base.verdict.kind == other.verdict.kind
        # per-state clash sets map tag-for-tag
        base_clashes = {frozenset(map(mapped_tag, pair))
                        for pair in every_clash(base, spec.conflicts)}
        other_clashes = set(map(frozenset, every_clash(other, renamed.conflicts)))
        assert base_clashes == other_clashes


def test_sales_contract_fixture(sales_contract_text):
    spec = parse_or_raise(sales_contract_text)
    verdict = check(spec)
    assert verdict.has_conflicts
    report = verdict.reports[0]
    assert {report.left.op, report.right.op} == {O, F}
    assert report.left.action == report.right.action == "deliverProduct"
    assert report.left.rel == report.right.rel == directed("c", "b")
    assert len(report.trace) - 1 >= 3


def test_amended_sales_contract_fixture(amended_contract_text):
    verdict = check(parse_or_raise(amended_contract_text))
    assert verdict.is_conflict_free


# ---------------------------------------------------------------------------
# Deciding before building


@settings(max_examples=150, deadline=None)
@given(specs(pairs=True))
def test_exposed_tags_cover_every_reachable_state(spec):
    automaton = construct(spec, BuildOptions(complete=True, max_states=300,
                                             max_transitions=3_000))
    exposed = set(exposed_tags(spec.root()))
    for formula in automaton.formulas:
        for group in deontic_tags(formula):
            assert group.tags <= exposed


@settings(max_examples=200, deadline=None)
@given(specs(pairs=True))
def test_the_pre_check_agrees_with_the_full_build(spec):
    options = BuildOptions(max_states=2_000, max_transitions=20_000)
    built = build_check(spec, options).verdict
    assume(built.kind is not VerdictKind.INCONCLUSIVE)
    if clash_free_tag_count(spec) is not None:
        assert built.is_conflict_free
    assert check(spec, options).kind is built.kind


@settings(max_examples=200, deadline=None)
@given(specs(pairs=True), st.booleans(), st.sampled_from([20, 2_000]))
def test_conflict_states_are_the_reported_states(spec, complete, budget):
    # Small budgets draw inconclusive checks, whose partial automata must
    # also mark exactly the states reported.
    options = BuildOptions(complete=complete, max_states=budget, max_transitions=budget)
    outcome = build_check(spec, options)
    reported = {r.state for r in outcome.verdict.reports}
    assert outcome.automaton.conflict_states == reported
    assert len(reported) == len(outcome.verdict.reports)


def test_a_wide_contract_without_clashes_is_decided_without_comparing_tags(monkeypatch):
    calls = []
    monkeypatch.setattr(conflicts, "tags_conflict", lambda *args: calls.append(args))
    spec = parse_or_raise("".join(f"{{i}}O(a{k}); " for k in range(1_100)))
    outcome = run_check(spec, BuildOptions(max_states=50, max_transitions=50))
    assert outcome.verdict.kind is VerdictKind.CONFLICT_FREE
    assert outcome.verdict.reason == ("decided before building the automaton: "
                                      "no two of its 1100 deontic tags can clash")
    assert outcome.automaton.n_states == 0 and not outcome.automaton.transitions
    assert calls == []


def test_a_check_decided_early_builds_an_automaton_without_states():
    outcome = run_check(parse_or_raise("{b,s}[request]({b,s}O(pay)) ^ {s}P(ship);"))
    assert outcome.verdict.kind is VerdictKind.CONFLICT_FREE
    assert outcome.verdict.reason.startswith("decided before building the automaton")
    automaton = outcome.automaton
    assert automaton.n_states == 0 and not automaton.transitions
    for verbose in (False, True):
        assert validate_dot(export_dot(automaton, verbose=verbose))["nodes"] == set()


def test_render_tag_is_the_rendered_clause():
    individuals = ("i", "j", "k")
    rels = [GLOBAL, *map(performer, individuals),
            *(directed(s, r) for s in individuals for r in individuals)]
    ctors = {O: Obligation, P: Permission, F: Prohibition}
    for rel, (op, ctor), action in itertools.product(rels, ctors.items(), ("a", "b", "c")):
        assert render_tag(tag(rel, op, action)) == render_formula(ctor(rel, Atom(action)))


@pytest.mark.parametrize("header, clauses", [
    ("conflict { global { (a, b) }; };", "{i}O(a) ^ {j}O(b);"),
    ("conflict { relativized { (a, b) }; };", "{i}O(a) ^ {i}P(b);"),
    # One tag in two groups: a conjunct, and a choice whose branches differ
    # only in a reparation.
    ("conflict { global { (a, a) }; };", "O(a) ^ (O(a) (+) O(a) _/P(b)/_);"),
], ids=["global", "relativized", "self-paired"])
def test_a_clash_through_a_declared_pair_is_not_decided_early(header, clauses):
    assert clash_free_tag_count(parse_or_raise(clauses)) is not None
    spec = parse_or_raise(header + clauses)
    assert clash_free_tag_count(spec) is None
    assert check(spec).has_conflicts


def exposed_tags_by_equality(formula):
    """``exposed_tags`` as it was when its walk kept a set of formulas,
    visiting each body or reparation once per structural value."""
    from rclcheck.decompose import _OPS, _tag, rewrite_compound
    from rclcheck.formula import And, Dynamic, XChoice

    seen, stack = set(), [formula]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is And or kind is XChoice:
            stack += f.children
            continue
        if kind is Dynamic:
            later = f.body
        elif kind in _OPS:
            tag = _tag(f)
            if tag is None:
                stack.append(rewrite_compound(f))
                continue
            yield tag
            later = None if kind is Permission else f.reparation
        else:
            continue
        if later is not None and later not in seen:
            seen.add(later)
            stack.append(later)


_ACTIONS = st.sampled_from(("a", "b", "a.b", "a&b", "a+b", "(a+b).a", "0", "1"))
_TRIGGERS = st.sampled_from(("a", "a*", "a.b*", "(a+b)*", "a*.b", "!a", "1*", "(a&b)*"))
_LEAVES = st.sampled_from(("O(a)", "{i}P(b)", "F(a.b)", "{i,j}O(a+b)", "[b*](P(a))", "true"))


@st.composite
def deep_contracts(draw, levels=20):
    """Reparation chains and iterated triggers nested ``levels`` deep."""
    text = draw(_LEAVES)
    for _ in range(levels):
        text = draw(st.sampled_from((
            f"{{j}}O({draw(_ACTIONS)}) _/{text}/_",
            f"F({draw(_ACTIONS)}) _/{text}/_",
            f"[{draw(_TRIGGERS)}]({text})",
            f"({text}) ^ {draw(_LEAVES)}",
        )))
    return parse_or_raise(text + ";")


@settings(max_examples=150, deadline=None)
@given(st.one_of(specs(pairs=True), deep_contracts()))
def test_exposed_tags_dedupe_by_identity_as_by_equality(spec):
    root = spec.root()
    tags = list(itertools.islice(exposed_tags(root), 100_000))
    assert len(tags) < 100_000
    assert set(tags) == set(exposed_tags_by_equality(root))


def rewrite_with_both_branch(formula, _seen=frozenset()):
    """``rewrite_compound`` as it was when an obligation over a choice also
    kept a branch for both alternatives:
    ``O(a+b) -> (O(a) ^ O(b)) (+) O(a) (+) O(b)``.  Patched in as
    ``decompose.rewrite_compound``, it also takes the rewrite's recursion."""
    if isinstance(formula, Obligation) and isinstance(formula.action, Choice):
        rel, act, rep = formula.rel, formula.action, formula.reparation
        left = rewrite_with_both_branch(Obligation(rel, act.left, rep), _seen)
        right = rewrite_with_both_branch(Obligation(rel, act.right, rep), _seen)
        return xchoice(conj(left, right), left, right)
    return rewrite_compound(formula, _seen)


def complete_reading(spec):
    """What a complete check decides and builds, state formulas left out."""
    options = BuildOptions(complete=True)
    outcome = build_check(spec, options)
    automaton = outcome.automaton
    return (run_check(spec, options).verdict, outcome.verdict, automaton.n_states,
            automaton.transitions, automaton.violation, automaton.conflict_states,
            [deontic_tags(f) for f in automaton.formulas])


@settings(max_examples=150, deadline=None)
@given(st.one_of(specs(pairs=True), choice_obligation_specs()))
def test_the_both_branch_of_an_obligation_over_a_choice_changes_nothing(spec):
    # Clause choice is read inclusively, so the branch where both
    # alternatives hold adds no tag and never decides the choice.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rclcheck.decompose, "rewrite_compound", rewrite_with_both_branch)
        before = complete_reading(spec)
    assert complete_reading(spec) == before


# ---------------------------------------------------------------------------
# Per-build records


@settings(max_examples=150, deadline=None)
@given(st.one_of(specs(pairs=True), choice_obligation_specs()))
def test_per_build_groups_and_clashes_are_those_of_each_state(spec):
    # A build labels its states from records shared between them, and
    # compares each pair of groups once; a state read alone must agree.
    options = BuildOptions(complete=True, max_states=300, max_transitions=3_000)
    visited = []
    construct(spec, options, lambda sid, formula: visited.append(formula))
    outcome = build_check(spec, options)
    automaton = outcome.automaton
    assert automaton.formulas == tuple(visited)
    clashes = {r.state: (r.left, r.right, r.kind) for r in outcome.verdict.reports}
    for sid, formula in enumerate(automaton.formulas):
        assert clashes.get(sid) == search_conflicts(deontic_tags(formula), spec.conflicts)


def recorded_groups(monkeypatch, spec):
    """The groups that a complete ``build_check`` of ``spec`` made search
    records for, after checking that it made one only for each group of a
    state with two or more, and at most once per build."""
    made, order = [], conflicts._order
    monkeypatch.setattr(conflicts, "_order", lambda group: made.append(group) or order(group))
    labels = map(deontic_tags, build_check(spec, BuildOptions(complete=True)).automaton.formulas)
    assert len(made) == len(set(made))
    assert set(made) == {group for groups in labels if len(groups) > 1 for group in groups}
    return made


@pytest.mark.parametrize("text, records", [
    ("{i}O(a) ^ [b]({i}F(c));", 0),  # four states, none with two groups
    ("{i}O(a) ^ {i}F(b) ^ [b]({i}O(a));", 2),
])
def test_a_search_record_is_made_only_for_a_state_with_two_groups(monkeypatch, text, records):
    assert len(recorded_groups(monkeypatch, parse_or_raise(text))) == records


@settings(max_examples=100, deadline=None)
@given(st.one_of(specs(pairs=True), choice_obligation_specs()))
def test_search_records_are_made_once_per_group_of_a_state_with_two(spec):
    # A state with fewer than two groups has nothing to compare.
    with pytest.MonkeyPatch.context() as patch:
        recorded_groups(patch, spec)


@settings(max_examples=150, deadline=None)
@given(st.one_of(specs(pairs=True), choice_obligation_specs()))
def test_reports_share_one_trace_search(spec):
    # A check's reports are traced by one breadth-first search: each trace
    # is the one ``trace_to`` finds for its state alone, and the reports
    # stay ordered by trace length, then state.
    options = BuildOptions(complete=True, max_states=300, max_transitions=3_000)
    outcome = build_check(spec, options)
    reports = outcome.verdict.reports
    assert {r.state for r in reports} == outcome.automaton.conflict_states
    for report in reports:
        assert report.trace == trace_to(outcome.automaton, report.state)
    order = [(len(r.trace), r.state) for r in reports]
    assert order == sorted(order)


def spine_leaves(formula):
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, XChoice)):
            stack += f.children
        else:
            yield f


@pytest.mark.parametrize("name", ["sales-contract.rcl", "sales-contract-amended.rcl"])
def test_a_build_compiles_each_leaf_and_compares_each_tag_pair_once(monkeypatch, name):
    # Under a `*` trigger the root's unfolding and an exposed body build
    # equal leaves as different objects; they share one record.
    made, pairs = [], []
    leaf, clash = rclcheck.automaton._leaf, conflicts.tags_conflict
    monkeypatch.setattr(rclcheck.automaton, "_leaf",
                        lambda outcome, f: made.append(f) or leaf(outcome, f))
    monkeypatch.setattr(conflicts, "tags_conflict",
                        lambda d1, d2, rels: pairs.append((d1, d2)) or clash(d1, d2, rels))
    spec = parse_or_raise((CONTRACTS / name).read_text())
    automaton = build_check(spec, BuildOptions(complete=True)).automaton
    leaves = {leaf for formula in automaton.formulas for leaf in spine_leaves(formula)}
    assert len(made) == len(set(made)) <= len(leaves)
    tested = {"sales-contract.rcl": 24, "sales-contract-amended.rcl": 27}[name]
    assert sum(type(f) is not Permission for f in made) == tested
    assert len(pairs) == len(set(pairs))


PARTLY_BLOCKED = "({i,j}O(a) (+) {i,j}O(b)) ^ {i,j}O(c);"


@settings(max_examples=150, deadline=None)
@given(st.one_of(specs(pairs=True), choice_obligation_specs()))
@example(parse_or_raise("conflict { global { (a, c), (b, c) }; }; " + PARTLY_BLOCKED))
@example(parse_or_raise("conflict { global { (a, c) }; }; " + PARTLY_BLOCKED))
# Compares O(a) with O(c) twice, once per pair of groups that holds them.
@example(parse_or_raise("conflict { global { (a, c) }; }; {i}O(a+b) ^ {i}O(a) ^ {i}O(c);"))
def test_a_complete_build_decides_each_group_pair_in_one_pass(spec):
    # A build decides each pair of groups once, from one pass over its tag
    # pairs, even when a choice group must be blocked in every alternative.
    decided, pair_clash, clash = [], conflicts._pair_clash, conflicts.tags_conflict

    def decide(kind1, tags1, kind2, tags2, rels):
        decided.append(((kind1, *tags1), (kind2, *tags2), []))
        return pair_clash(kind1, tags1, kind2, tags2, rels)

    def compare(d1, d2, rels):
        decided[-1][2].append((d1, d2))
        return clash(d1, d2, rels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conflicts, "_pair_clash", decide)
        patch.setattr(conflicts, "tags_conflict", compare)
        build_check(spec, BuildOptions(complete=True, max_states=300, max_transitions=3_000))
    assert len({groups[:2] for groups in decided}) == len(decided)
    for _, _, pairs in decided:
        assert len(pairs) == len(set(pairs))


def test_a_build_leaves_no_cyclic_garbage(sales_contract_text):
    # Step tables and their walks hold no reference cycle, so what a build
    # drops is freed at once, not by the cycle collector.
    checks = [(parse_or_raise(sales_contract_text), BuildOptions(complete=True)),
              (parse_or_raise("{i,j}O(a) ^ [b]({i,j}F(a)) ^ [a]({i,j}O(a));"),
               BuildOptions(complete=True, no_pruning=True))]
    for spec, options in checks:
        gc.collect()
        outcome = run_check(spec, options)
        assert gc.collect() == 0
        assert outcome.verdict.has_conflicts
