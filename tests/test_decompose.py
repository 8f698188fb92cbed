from __future__ import annotations

import sys
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclcheck import (
    BOTTOM,
    GLOBAL,
    ONE,
    TOP,
    ZERO,
    And,
    Atom,
    Choice,
    Concurrent,
    Dynamic,
    DeonticGroup,
    DeonticOp,
    DeonticTag,
    GroupKind,
    Negation,
    Obligation,
    Permission,
    Prohibition,
    RelativizedAction,
    Sequence,
    Star,
    XChoice,
    canonicalize,
    conj,
    deontic_tags,
    directed,
    performer,
    prepare,
    relativized_universe,
    rewrite_compound,
    xchoice,
)
from rclcheck.decompose import decompose, trigger_matched
from rclcheck.generator import generate

from strategies import group_values, specs, tag_values

A, B, C = Atom("a"), Atom("b"), Atom("c")
I = performer("i")
IJ = directed("i", "j")
INDS = frozenset({"i", "j"})


def ra(s, a, r):
    return RelativizedAction(s, a, r)


# ---------------------------------------------------------------------------
# rewrite_compound


def test_rewrite_leaves_atomic_operators_alone():
    f = Obligation(GLOBAL, A)
    assert rewrite_compound(f) is f


def test_rewrite_obligation_choice_builds_clause_choice():
    rep = Permission(I, C)
    out = canonicalize(rewrite_compound(Obligation(I, Choice(A, B), rep)))
    o_a = Obligation(I, A, rep)
    o_b = Obligation(I, B, rep)
    assert out == canonicalize(xchoice(o_a, o_b))


def test_an_obligation_over_a_choice_chain_prepares_to_one_leaf_per_alternative():
    alternatives = [Atom(f"a{k}") for k in range(8)]
    out = prepare(Obligation(GLOBAL, reduce(Choice, alternatives)))
    assert isinstance(out, XChoice)
    assert sorted(out.children, key=repr) == [Obligation(GLOBAL, a) for a in alternatives]


def test_rewrite_obligation_concurrent_and_sequence():
    assert canonicalize(rewrite_compound(Obligation(I, Concurrent(A, B)))) == canonicalize(
        conj(Obligation(I, A), Obligation(I, B))
    )
    out = canonicalize(rewrite_compound(Obligation(I, Sequence(A, B))))
    assert out == canonicalize(conj(Obligation(I, A), Dynamic(I, A, Obligation(I, B))))


def test_rewrite_prohibition_rules():
    assert canonicalize(rewrite_compound(Prohibition(I, Choice(A, B)))) == canonicalize(
        conj(Prohibition(I, A), Prohibition(I, B))
    )
    # a forbidden sequence only breaches once completed
    assert rewrite_compound(Prohibition(I, Sequence(A, B))) == Dynamic(I, A, Prohibition(I, B))


def test_rewrite_permission_mirrors_conjunction():
    assert canonicalize(rewrite_compound(Permission(I, Choice(A, B)))) == canonicalize(
        conj(Permission(I, A), Permission(I, B))
    )
    out = canonicalize(rewrite_compound(Permission(I, Sequence(A, B))))
    assert out == canonicalize(conj(Permission(I, A), Dynamic(I, A, Permission(I, B))))


def test_rewrite_dynamic_trigger_rules():
    body = Permission(GLOBAL, C)
    assert rewrite_compound(Dynamic(I, Sequence(A, B), body)) == Dynamic(
        I, A, Dynamic(I, B, body)
    )
    assert canonicalize(rewrite_compound(Dynamic(I, Choice(A, B), body))) == canonicalize(
        conj(Dynamic(I, A, body), Dynamic(I, B, body))
    )
    assert canonicalize(rewrite_compound(Dynamic(I, Concurrent(A, B), body))) == canonicalize(
        conj(Dynamic(I, A, body), Dynamic(I, B, body))
    )


def test_rewrite_unfolds_iteration_once():
    body = Obligation(I, C)
    star = Dynamic(I, Star(A), body)
    assert canonicalize(rewrite_compound(star)) == canonicalize(
        conj(body, Dynamic(I, A, star))
    )


def test_rewrite_terminates_on_nested_iteration():
    wild = Dynamic(I, Star(Star(A)), Permission(GLOBAL, C))
    out = prepare(wild)
    assert out is not None
    chained = Dynamic(I, Star(Choice(A, Star(B))), Permission(GLOBAL, C))
    assert prepare(chained) is not None


REP = Permission(I, C)
BODY = Obligation(I, C)
STAR_A = Dynamic(I, Star(A), BODY)
STAR_AB = Dynamic(I, Star(Sequence(A, B)), BODY)


@pytest.mark.parametrize("formula, expected", [
    (Obligation(I, Concurrent(A, B)), And((Obligation(I, A), Obligation(I, B)))),
    (Obligation(I, Choice(A, B)), XChoice((Obligation(I, A), Obligation(I, B)))),
    (Obligation(I, Sequence(A, B)), And((Obligation(I, A), Dynamic(I, A, Obligation(I, B))))),
    (Obligation(I, ZERO), Dynamic(I, Negation(ZERO), BOTTOM)),
    (Obligation(I, ONE), Dynamic(I, Negation(ONE), BOTTOM)),
    (Obligation(I, Concurrent(A, B), REP), And((Obligation(I, A, REP), Obligation(I, B, REP)))),
    (Obligation(I, Choice(A, B), REP), XChoice((Obligation(I, A, REP), Obligation(I, B, REP)))),
    (Obligation(I, Sequence(A, B), REP),
     And((Obligation(I, A, REP), Dynamic(I, A, Obligation(I, B, REP))))),
    (Obligation(I, ZERO, REP), Dynamic(I, Negation(ZERO), REP)),
    (Obligation(I, ONE, REP), Dynamic(I, Negation(ONE), REP)),
    (Permission(I, Concurrent(A, B)), And((Permission(I, A), Permission(I, B)))),
    (Permission(I, Choice(A, B)), And((Permission(I, A), Permission(I, B)))),
    (Permission(I, Sequence(A, B)), And((Permission(I, A), Dynamic(I, A, Permission(I, B))))),
    (Permission(I, ZERO), TOP),
    (Permission(I, ONE), TOP),
    (Prohibition(I, Concurrent(A, B)), And((Prohibition(I, A), Prohibition(I, B)))),
    (Prohibition(I, Choice(A, B)), And((Prohibition(I, A), Prohibition(I, B)))),
    (Prohibition(I, Sequence(A, B)), Dynamic(I, A, Prohibition(I, B))),
    (Prohibition(I, ZERO), TOP),
    (Prohibition(I, ONE), Dynamic(I, ONE, BOTTOM)),
    (Prohibition(I, Concurrent(A, B), REP),
     And((Prohibition(I, A, REP), Prohibition(I, B, REP)))),
    (Prohibition(I, Choice(A, B), REP), And((Prohibition(I, A, REP), Prohibition(I, B, REP)))),
    (Prohibition(I, Sequence(A, B), REP), Dynamic(I, A, Prohibition(I, B, REP))),
    (Prohibition(I, ZERO, REP), TOP),
    (Prohibition(I, ONE, REP), Dynamic(I, ONE, REP)),
    (Dynamic(I, Concurrent(A, B), BODY), And((Dynamic(I, A, BODY), Dynamic(I, B, BODY)))),
    (Dynamic(I, Choice(A, B), BODY), And((Dynamic(I, A, BODY), Dynamic(I, B, BODY)))),
    (Dynamic(I, Sequence(A, B), BODY), Dynamic(I, A, Dynamic(I, B, BODY))),
    (Dynamic(I, Negation(A), BODY), Dynamic(I, Negation(A), BODY)),
    (Dynamic(I, ZERO, BODY), Dynamic(I, ZERO, BODY)),
    (Dynamic(I, ONE, BODY), Dynamic(I, ONE, BODY)),
    (STAR_A, And((BODY, Dynamic(I, A, STAR_A)))),
    (STAR_AB, And((BODY, Dynamic(I, A, Dynamic(I, B, STAR_AB))))),
], ids=repr)
def test_rewrite_rule_table(formula, expected):
    # Exact shape, child order included: no canonicalize on either side.
    assert rewrite_compound(formula).key() == expected.key()


@pytest.mark.parametrize("formula, error, message", [
    (Obligation(I, Star(A)), ValueError, "illegal action under an obligation: "),
    (Obligation(I, Negation(A)), ValueError, "illegal action under an obligation: "),
    (Permission(I, Star(A)), ValueError, "illegal action under a permission: "),
    (Permission(I, Negation(A)), ValueError, "illegal action under a permission: "),
    (Prohibition(I, Star(A)), ValueError, "illegal action under a prohibition: "),
    (Prohibition(I, Negation(A), REP), ValueError, "illegal action under a prohibition: "),
    (Dynamic(I, Negation(Sequence(A, B)), BODY), ValueError, "negation applies to a single action"),
    (Dynamic(I, BODY, BODY), ValueError, "illegal trigger: "),
    (A, TypeError, "not a formula: "),
], ids=repr)
def test_rewrite_rejects_what_no_rule_covers(formula, error, message):
    with pytest.raises(error, match=f"^{message}"):
        rewrite_compound(formula)


def test_rewrite_keeps_bodies_lazy():
    inner = Obligation(I, Sequence(A, B))
    f = Dynamic(I, C, inner)
    assert rewrite_compound(f) is f  # compound action inside the body untouched


# ---------------------------------------------------------------------------
# decompose


def test_dynamic_trigger_fires_or_evaporates():
    body = Obligation(I, B)
    f = Dynamic(I, A, body)
    assert decompose(f, frozenset({ra("i", "a", "j")}), INDS) == body
    assert decompose(f, frozenset({ra("j", "b", "j")}), INDS) == TOP


def test_constants_are_fixed_points():
    for step in (frozenset(), frozenset({ra("i", "a", "i")})):
        assert decompose(TOP, step, INDS) == TOP
        assert decompose(BOTTOM, step, INDS) == BOTTOM


def test_obligation_discharge_and_breach():
    f = Obligation(IJ, A)
    assert decompose(f, frozenset({ra("i", "a", "j")}), INDS) == TOP
    assert decompose(f, frozenset(), INDS) == BOTTOM


def test_directed_obligation_needs_the_exact_pair():
    f = Obligation(IJ, A)
    assert decompose(f, frozenset({ra("i", "a", "i")}), INDS) == BOTTOM


def test_breach_activates_the_reparation():
    rep = Obligation(I, B)
    f = Obligation(IJ, A, rep)
    assert decompose(f, frozenset(), INDS) == rep
    g = Prohibition(IJ, A, rep)
    assert decompose(g, frozenset({ra("i", "a", "j")}), INDS) == rep
    assert decompose(g, frozenset(), INDS) == TOP


def test_global_obligation_requires_every_individual():
    f = Obligation(GLOBAL, A)
    partial = frozenset({ra("i", "a", "i")})
    full = frozenset({ra("i", "a", "i"), ra("j", "a", "i")})
    assert decompose(f, partial, INDS) == BOTTOM
    assert decompose(f, full, INDS) == TOP


def test_permission_never_constrains_the_step():
    f = Permission(IJ, A)
    assert decompose(f, frozenset(), INDS) == TOP
    assert decompose(f, frozenset({ra("i", "a", "j")}), INDS) == TOP


def test_negated_trigger():
    body = Obligation(I, B)
    f = Dynamic(I, Negation(A), body)
    assert decompose(f, frozenset({ra("i", "a", "j")}), INDS) == TOP
    assert decompose(f, frozenset(), INDS) == body
    assert decompose(f, frozenset({ra("j", "a", "j")}), INDS) == body


def test_wildcard_and_impossible_triggers():
    body = Obligation(I, B)
    assert decompose(Dynamic(I, Atom("a"), body), frozenset(), INDS) == TOP
    one = Dynamic(I, ONE, body)
    assert decompose(one, frozenset({ra("j", "c", "j")}), INDS) == body
    assert decompose(one, frozenset(), INDS) == TOP
    zero = Dynamic(I, ZERO, body)
    assert decompose(zero, frozenset({ra("i", "a", "j")}), INDS) == TOP


def test_decompose_distributes_over_conjunction():
    for seed in range(80):
        spec = generate(individuals=2, actions=2, clauses=2, max_depth=3, seed=seed)
        left = prepare(spec.clauses[0])
        right = prepare(spec.clauses[1])
        individuals = spec.effective_individuals
        from rclcheck.automaton import relevant_universe

        universe = sorted(relevant_universe(conj(left, right), individuals))
        for step in (frozenset(), frozenset(universe[:1]), frozenset(universe)):
            joint = decompose(canonicalize(conj(left, right)), step, individuals)
            split = canonicalize(
                conj(decompose(left, step, individuals), decompose(right, step, individuals))
            )
            assert canonicalize(joint) == split


def test_decompose_never_flips_constants():
    for seed in range(60):
        spec = generate(individuals=2, actions=2, clauses=1, max_depth=3, seed=seed)
        individuals = spec.effective_individuals
        from rclcheck.automaton import relevant_universe

        formula = prepare(spec.root())
        universe = sorted(relevant_universe(formula, individuals))
        for step in (frozenset(), frozenset(universe)):
            out = decompose(formula, step, individuals)
            if formula == TOP:
                assert out == TOP
            if formula == BOTTOM:
                assert out == BOTTOM


def test_iteration_step_equals_single_unfold():
    body = Obligation(I, B)
    star = Dynamic(I, Star(A), body)
    # Iteration is unfolded by ``prepare``; raw input never reaches a step.
    with pytest.raises(ValueError, match="compound action"):
        decompose(star, frozenset(), INDS)
    unfolded = prepare(star)
    once = conj(body, Dynamic(I, A, star))
    a, b = ra("i", "a", "i"), ra("i", "b", "i")
    for step in (frozenset(), frozenset({a}), frozenset({b}), frozenset({a, b})):
        assert decompose(unfolded, step, INDS) == decompose(once, step, INDS)
    assert decompose(unfolded, frozenset({a, b}), INDS) == star


@settings(max_examples=200, deadline=None)
@given(specs(individuals=(1, 2), actions=(1, 3), clauses=(1, 3)), st.data())
def test_decompose_of_a_normal_form_is_canonical(spec, data):
    # The spine is joined canonically; exposed bodies are canonical already,
    # only not rewritten, so ``prepare`` is still needed before the next step.
    individuals = spec.effective_individuals
    universe = sorted(relativized_universe(individuals, spec.actions))
    steps = (st.frozensets(st.sampled_from(universe), max_size=4) if universe
             else st.just(frozenset()))
    for formula in (prepare(spec.root()), *map(prepare, spec.clauses)):
        for _ in range(2):
            residual = decompose(formula, data.draw(steps), individuals)
            assert canonicalize(residual) == residual
            formula = prepare(residual)


def test_the_decompose_package_attribute_is_the_module():
    import rclcheck.decompose as d

    assert d is sys.modules["rclcheck.decompose"]
    assert d.rewrite_compound is rewrite_compound


def test_decompose_rejects_unknown_step_symbols():
    with pytest.raises(ValueError):
        decompose(TOP, frozenset({ra("z", "a", "i")}), INDS)
    with pytest.raises(ValueError):
        decompose(TOP, frozenset({ra("i", "zz", "i")}), INDS, actions=frozenset({"a"}))


@pytest.mark.parametrize("act", [ra("k", "a", "j"), ra("i", "a", "k")], ids=["sender", "receiver"])
def test_decompose_rejects_a_step_with_an_unknown_individual(act):
    with pytest.raises(ValueError, match="unknown individual in step"):
        decompose(Obligation(IJ, A), frozenset({ra("i", "a", "j"), act}), INDS)


def test_decompose_rejects_a_step_with_an_unknown_action():
    step = frozenset({ra("i", "a", "j"), ra("i", "z", "j")})
    with pytest.raises(ValueError, match="unknown action in step"):
        decompose(Obligation(IJ, A), step, INDS, actions=frozenset({"a"}))
    # Without an action alphabet, any action name is accepted.
    assert decompose(Obligation(IJ, A), step, INDS) == TOP


def test_decompose_compiles_the_whole_formula_first():
    # A compound test raises even where a breached sibling decides the
    # residual, because the step table is built whole before the step.
    raw = conj(Obligation(IJ, A), Dynamic(I, Star(B), Obligation(I, C)))
    with pytest.raises(ValueError, match="compound action"):
        decompose(raw, frozenset(), INDS)


def test_decompose_rejects_what_is_not_a_formula():
    with pytest.raises(TypeError, match="^not a formula: "):
        decompose(conj(Obligation(IJ, A), A), frozenset(), INDS)


def test_the_matcher_rejects_a_compound_action():
    with pytest.raises(ValueError, match="^compound action reached the matcher: "):
        trigger_matched(I, Concurrent(A, B), frozenset({ra("i", "a", "j")}), INDS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_matcher_is_the_leaf_test_that_decompose_reads(data):
    # Global, performer and directed tests (self-directed included) of a
    # basic action, 0 and 1, on steps over the whole universe.
    individuals = frozenset("ijk"[:data.draw(st.integers(1, 3))])
    who = sorted(individuals)
    rel = data.draw(st.sampled_from([GLOBAL] + [performer(s) for s in who]
                                    + [directed(s, r) for s in who for r in who]))
    action = data.draw(st.sampled_from([A, ZERO, ONE]))
    universe = sorted(relativized_universe(individuals, frozenset("ab")))
    step = data.draw(st.frozensets(st.sampled_from(universe)))
    fired = decompose(Dynamic(rel, action, BOTTOM), step, individuals) is BOTTOM
    assert trigger_matched(rel, action, step, individuals) == fired


# ---------------------------------------------------------------------------
# deontic_tags


def tag(rel, op, name):
    return DeonticTag(rel, op, name)


def test_tags_of_plain_conjunction():
    f = prepare(conj(Obligation(IJ, A), Obligation(IJ, B), Prohibition(IJ, B)))
    groups = deontic_tags(f)
    assert {g.kind for g in groups} == {GroupKind.CONJUNCT}
    tags = {t for g in groups for t in g.tags}
    assert tags == {
        tag(IJ, DeonticOp.OBLIGATION, "a"),
        tag(IJ, DeonticOp.OBLIGATION, "b"),
        tag(IJ, DeonticOp.PROHIBITION, "b"),
    }


def test_tags_of_obligation_choice():
    f = prepare(conj(Obligation(IJ, Choice(A, B)), Prohibition(IJ, B)))
    groups = sorted(deontic_tags(f), key=lambda g: g.kind.value)
    assert len(groups) == 2
    choice = next(g for g in groups if g.kind is GroupKind.OBLIGATION_CHOICE)
    assert choice.tags == {
        tag(IJ, DeonticOp.OBLIGATION, "a"),
        tag(IJ, DeonticOp.OBLIGATION, "b"),
    }
    conjunct = next(g for g in groups if g.kind is GroupKind.CONJUNCT)
    assert conjunct.tags == {tag(IJ, DeonticOp.PROHIBITION, "b")}


def test_dynamic_operators_carry_no_tags():
    f = prepare(Dynamic(I, A, Obligation(IJ, B)))
    assert deontic_tags(f) == frozenset()


def test_reparations_carry_no_tags():
    f = prepare(Obligation(IJ, A, Prohibition(IJ, B)))
    tags = {t for g in deontic_tags(f) for t in g.tags}
    assert tags == {tag(IJ, DeonticOp.OBLIGATION, "a")}


@settings(max_examples=200, deadline=None)
@given(tag_values, tag_values)
def test_tags_are_tuples_that_keep_their_order_and_text(t1, t2):
    sender, receiver = t1.rel
    assert (t1 == t2) == (tuple(t1.rel) == tuple(t2.rel) and t1.op is t2.op
                          and t1.action == t2.action)
    assert t1 != t2 or hash(t1) == hash(t2)
    assert t1 == (t1.rel, t1.op, t1.action)
    assert t1.sort_key() == (t1.op.value, t1.action, sender or "", receiver or "")
    assert repr(t1) == f"{t1.rel!r}:{t1.op.value}({t1.action})"


@settings(max_examples=200, deadline=None)
@given(group_values, group_values)
def test_groups_are_tuples_that_keep_their_order_and_text(g1, g2):
    assert (g1 == g2) == (g1.kind is g2.kind and g1.tags == g2.tags)
    assert g1 != g2 or hash(g1) == hash(g2)
    assert g1.sort_key() == (g1.kind.value, tuple(sorted(t.sort_key() for t in g1.tags)))
    assert repr(g1) == f"DeonticGroup(kind={g1.kind!r}, tags={g1.tags!r})"


def test_tag_order_and_text_are_pinned():
    tag = DeonticTag(directed("c", "b"), DeonticOp.PROHIBITION, "deliverProduct")
    assert tag.sort_key() == ("F", "deliverProduct", "c", "b")
    assert repr(tag) == "directed('c', 'b'):F(deliverProduct)"
    group = DeonticGroup(GroupKind.CONJUNCT, frozenset({tag}))
    assert group.sort_key() == ("conjunct", (("F", "deliverProduct", "c", "b"),))
