from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclcheck import (
    BOTTOM,
    GLOBAL,
    TOP,
    And,
    Atom,
    Choice,
    ConflictRelations,
    ContractSpec,
    Dynamic,
    Formula,
    Negation,
    Obligation,
    Permission,
    Prohibition,
    Relativization,
    Sequence,
    XChoice,
    canonicalize,
    conj,
    directed,
    extract_alphabet,
    performer,
    xchoice,
)
from rclcheck.formula import fold, join
from rclcheck.generator import generate

from strategies import canonical_formulas, relativizations, rename_symbols

A, B, C = Atom("a"), Atom("b"), Atom("c")
IJ = directed("i", "j")


def test_structural_equality_and_hash():
    left = Obligation(IJ, A)
    right = Obligation(directed("i", "j"), Atom("a"))
    assert left == right
    assert hash(left) == hash(right)
    assert left != Obligation(IJ, B)
    assert Obligation(IJ, A) != Prohibition(IJ, A)


def test_relativization_shapes():
    assert GLOBAL.is_global
    assert performer("i").is_performer
    assert IJ.is_directed
    assert IJ.individuals() == {"i", "j"}
    with pytest.raises(ValueError):
        Relativization(None, "j")


@settings(max_examples=200, deadline=None)
@given(relativizations, relativizations)
def test_relativizations_are_tuples_that_keep_their_key_and_text(r1, r2):
    sender, receiver = r1
    assert (r1 == r2) == (r1.sender == r2.sender and r1.receiver == r2.receiver)
    assert r1 != r2 or hash(r1) == hash(r2)
    assert r1 == (sender, receiver) and hash(r1) == hash((sender, receiver))
    assert r1.key() == (sender or "", receiver or "")
    assert repr(r1) == ("GLOBAL" if sender is None else f"performer({sender!r})"
                        if receiver is None else f"directed({sender!r}, {receiver!r})")


def test_canonicalize_top_is_conjunction_identity():
    assert canonicalize(conj(TOP, Permission(GLOBAL, A))) == Permission(GLOBAL, A)


def test_canonicalize_bottom_absorbs_conjunction():
    assert canonicalize(conj(BOTTOM, Obligation(GLOBAL, A))) == BOTTOM


def test_canonicalize_sorts_conjuncts():
    c1 = Obligation(IJ, A)
    c2 = Prohibition(IJ, B)
    assert canonicalize(conj(c1, c2)) == canonicalize(conj(c2, c1))


def test_canonicalize_choice_constants():
    some = Permission(GLOBAL, A)
    assert canonicalize(xchoice(TOP, some)) == TOP
    assert canonicalize(xchoice(BOTTOM, some)) == some
    assert canonicalize(xchoice(BOTTOM, BOTTOM)) == BOTTOM


def test_fold_constant_table_and_singletons():
    some, other = Obligation(IJ, A), Prohibition(IJ, B)
    for kind, neutral, absorbing in ((And, TOP, BOTTOM), (XChoice, BOTTOM, TOP)):
        assert fold(kind, []) == neutral
        assert fold(kind, [neutral, neutral]) == neutral
        assert fold(kind, [some, absorbing]) == absorbing
        assert fold(kind, [neutral, some, neutral]) == some
        assert fold(kind, [some, neutral, other]) == kind((some, other))


def test_fold_stops_drawing_at_the_first_absorbing_child():
    for kind, absorbing in ((And, BOTTOM), (XChoice, TOP)):
        drawn = []

        def children():
            for c in (Permission(GLOBAL, A), absorbing, Permission(GLOBAL, B)):
                drawn.append(c)
                yield c

        assert fold(kind, children()) == absorbing
        assert drawn == [Permission(GLOBAL, A), absorbing]


def fold_flatten_fold(kind, children):
    """``join`` as three passes: fold the constants, flatten one level and
    drop duplicates, sort and fold again."""
    joined = fold(kind, children)
    if not isinstance(joined, kind):
        return joined
    parts = {g for c in joined.children for g in (c.children if isinstance(c, kind) else (c,))}
    return fold(kind, sorted(parts, key=Formula.sort_key))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((And, XChoice)), st.lists(canonical_formulas(), max_size=5))
def test_join_is_fold_flatten_fold_in_one_pass(kind, children):
    joined = join(kind, children)
    assert joined == fold_flatten_fold(kind, children)
    assert canonicalize(joined) == joined
    drawn = []

    def lazily():
        for c in children:
            drawn.append(c)
            yield c

    join(kind, lazily())
    absorbing = BOTTOM if kind is And else TOP
    assert drawn == (children[:children.index(absorbing) + 1] if absorbing in children
                     else children)


def test_canonicalize_flattens_and_deduplicates():
    nested = conj(conj(Obligation(IJ, A), Obligation(IJ, A)), Prohibition(IJ, B))
    flat = canonicalize(nested)
    assert isinstance(flat, And)
    assert len(flat.children) == 2


def test_canonicalize_idempotent_on_random_formulas():
    for seed in range(300):
        spec = generate(individuals=3, actions=3, clauses=2, max_depth=4, seed=seed)
        formula = spec.root()
        once = canonicalize(formula)
        assert canonicalize(once) == once


def test_canonicalize_preserves_alphabet():
    for seed in range(100):
        spec = generate(individuals=3, actions=3, clauses=2, max_depth=4, seed=seed)
        formula = spec.root()
        assert extract_alphabet([formula]) == extract_alphabet([canonicalize(formula)])


def test_extract_alphabet_empty_for_constants():
    assert extract_alphabet([TOP]) == (frozenset(), frozenset())


def test_extract_alphabet_sees_triggers_bodies_and_reparations():
    clause = Dynamic(
        performer("k"),
        Sequence(A, B),
        Obligation(directed("i", "j"), C, Prohibition(performer("m"), Atom("d"))),
    )
    individuals, actions = extract_alphabet([clause])
    assert individuals == {"k", "i", "j", "m"}
    assert actions == {"a", "b", "c", "d"}


def test_spec_alphabet_includes_conflict_actions():
    conflicts = ConflictRelations.make(global_pairs=[("x", "y")])
    spec = ContractSpec.from_clauses([Obligation(GLOBAL, A)], conflicts)
    assert spec.actions == {"a", "x", "y"}
    assert spec.individuals == frozenset()
    assert spec.effective_individuals == {"i"}


def test_spec_requires_a_clause():
    with pytest.raises(ValueError):
        ContractSpec.from_clauses([])


def test_renaming_commutes_with_extraction_and_canonicalization():
    ind_map = {"i1": "p", "i2": "q", "i3": "r"}
    act_map = {"a1": "z1", "a2": "z2", "a3": "z3"}
    for seed in range(100):
        spec = generate(individuals=3, actions=3, clauses=2, max_depth=3, seed=seed)
        formula = spec.root()
        renamed = rename_symbols(formula, ind_map, act_map)
        individuals, actions = extract_alphabet([formula])
        r_individuals, r_actions = extract_alphabet([renamed])
        assert r_individuals == {ind_map[i] for i in individuals}
        assert r_actions == {act_map[a] for a in actions}
        assert canonicalize(renamed) == canonicalize(
            rename_symbols(canonicalize(formula), ind_map, act_map)
        )


def test_conflict_relations_symmetry_and_partners():
    rels = ConflictRelations.make(global_pairs=[("a", "b")], relativized_pairs=[("b", "c")])
    assert rels.globally_conflicting("a", "b")
    assert rels.globally_conflicting("b", "a")
    assert rels.relativized_conflicting("c", "b")
    assert not rels.globally_conflicting("a", "c")
    assert rels.actions() == {"a", "b", "c"}
