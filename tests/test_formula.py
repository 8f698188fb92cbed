from __future__ import annotations

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
    Star,
    XChoice,
    canonicalize,
    conj,
    directed,
    extract_alphabet,
    parse,
    performer,
    xchoice,
)
from rclcheck.formula import join
from rclcheck.generator import generate

from strategies import (canonical_formulas, mutated_contracts, relativizations, rename_symbols,
                        specs)

A, B, C = Atom("a"), Atom("b"), Atom("c")
IJ = directed("i", "j")


def test_structural_equality_and_hash():
    left = Obligation(IJ, A)
    right = Obligation(directed("i", "j"), Atom("a"))
    assert left == right
    assert hash(left) == hash(right)
    assert left != Obligation(IJ, B)
    assert Obligation(IJ, A) != Prohibition(IJ, A)
    assert left != "O(a)" and "O(a)" != left


def test_a_bare_node_has_no_key():
    with pytest.raises(NotImplementedError):
        Formula().key()


def every_node_kind() -> Dynamic:
    guard = Star(Negation(Choice(Sequence(A, Concurrent(B, C)), ONE)))
    return Dynamic(IJ, guard, And((Obligation(IJ, ZERO, Prohibition(GLOBAL, A)),
                                  XChoice((Permission(performer("i"), B), TOP, BOTTOM)))))


def test_keys_of_every_node_kind():
    # Keys fix the order of children, the numbering of states and every
    # pinned output, so they must not change with how nodes are built.
    assert repr(every_node_kind().key()) == (
        "('dyn', ('i', 'j'), ('star', ('neg', ('alt', ('seq', ('atom', 'a'), "
        "('conc', ('atom', 'b'), ('atom', 'c'))), ('one',)))), ('and', ('ob', ('i', 'j'), "
        "('zero',), ('proh', ('', ''), ('atom', 'a'), ('~',))), ('xch', ('perm', ('i', ''), "
        "('atom', 'b')), ('top',), ('bot',))))")


def test_nodes_are_slotted_and_cache_their_key():
    stack, kinds = [every_node_kind()], set()
    while stack:
        node = stack.pop()
        kinds.add(type(node))
        assert not hasattr(node, "__dict__")
        assert node.key() is node.key() and hash(node) == hash(node.key())
        for field in ("left", "right", "inner", "action", "reparation", "trigger", "body"):
            if getattr(node, field, None) is not None:
                stack.append(getattr(node, field))
        stack += getattr(node, "children", ())
    assert len(kinds) == 16


def test_relativization_shapes():
    assert GLOBAL.is_global
    assert performer("i").is_performer
    assert IJ.is_directed
    assert IJ.individuals() == {"i", "j"}
    with pytest.raises(ValueError):
        Relativization(None, "j")


def test_relativization_replace_validates_too():
    with pytest.raises(ValueError):
        GLOBAL._replace(receiver="j")
    assert performer("i")._replace(receiver="j") == IJ
    assert IJ._replace(receiver=None) == performer("i")


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


def test_empty_and_single_joins():
    some = Permission(GLOBAL, A)
    assert conj() is TOP
    assert xchoice() is BOTTOM
    assert xchoice(some) is some


def test_canonicalize_rejects_what_is_not_a_formula():
    with pytest.raises(TypeError, match="^not a formula: "):
        canonicalize(conj(Permission(GLOBAL, A), A))


def repr_order(formula: Formula) -> str:
    """The order that children once sorted by: the repr of the key, with a
    missing reparation written as ``None``."""
    return repr(formula.key()).replace("('~',)", "None")


def fold(kind, children):
    """Join ``children`` into a ``kind`` node, folding constants only."""
    neutral, absorbing = (TOP, BOTTOM) if kind is And else (BOTTOM, TOP)
    parts = []
    for c in children:
        if c == absorbing:
            return absorbing
        if c != neutral:
            parts.append(c)
    return neutral if not parts else parts[0] if len(parts) == 1 else kind(tuple(parts))


def fold_flatten_fold(kind, children):
    """``join`` as three passes: fold the constants, flatten one level and
    drop duplicates, sort in repr order and fold again."""
    joined = fold(kind, children)
    if not isinstance(joined, kind):
        return joined
    parts = {g for c in joined.children for g in (c.children if isinstance(c, kind) else (c,))}
    return fold(kind, sorted(parts, key=repr_order))


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


def subformulas(formula: Formula):
    """``formula`` and every formula inside it, bodies and reparations too."""
    stack = [formula]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, (And, XChoice)):
            stack.extend(f.children)
        elif isinstance(f, Dynamic):
            stack.append(f.body)
        elif isinstance(f, (Obligation, Prohibition)) and f.reparation is not None:
            stack.append(f.reparation)


@settings(max_examples=300, deadline=None)
@given(canonical_formulas())
def test_canonical_children_increase_in_repr_order(formula):
    # Children sort by key; on keys, tuple order is the order of their reprs,
    # so canonical forms, state numbering and rendered states never moved.
    for f in subformulas(formula):
        if isinstance(f, (And, XChoice)):
            order = [repr_order(c) for c in f.children]
            assert all(a < b for a, b in zip(order, order[1:]))


def test_a_missing_reparation_sorts_after_every_present_one():
    present = [Obligation(IJ, A, rep) for rep in (TOP, BOTTOM, Prohibition(IJ, C))]
    missing = Obligation(IJ, A)
    joined = join(And, [missing, *present])
    assert joined.children[-1] == missing
    assert [repr_order(c) for c in joined.children] == sorted(map(repr_order, joined.children))


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


def action_atoms(expr):
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Atom):
            yield e.name
        elif isinstance(e, (Concurrent, Sequence, Choice)):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, (Negation, Star)):
            stack.append(e.inner)


def extract_alphabet_by_isinstance(clauses):
    """``extract_alphabet`` as it was: an ``isinstance`` walk that reads
    individuals through ``Relativization.individuals`` and actions through
    an ``action_atoms`` generator per action."""
    from rclcheck.formula import Bottom, Top

    individuals, actions, stack = set(), set(), list(clauses)
    while stack:
        f = stack.pop()
        if isinstance(f, (Top, Bottom)):
            continue
        if isinstance(f, (And, XChoice)):
            stack.extend(f.children)
            continue
        individuals.update(f.rel.individuals())
        if isinstance(f, Dynamic):
            actions.update(action_atoms(f.trigger))
            stack.append(f.body)
        else:
            actions.update(action_atoms(f.action))
            if not isinstance(f, Permission) and f.reparation is not None:
                stack.append(f.reparation)
    return frozenset(individuals), frozenset(actions)


@settings(max_examples=200, deadline=None)
@given(st.one_of(specs(pairs=True).map(lambda spec: spec.clauses),
                 mutated_contracts().map(parse)
                 .filter(lambda result: result.ok).map(lambda result: result.spec.clauses)))
def test_extract_alphabet_matches_the_isinstance_walk(clauses):
    assert extract_alphabet(clauses) == extract_alphabet_by_isinstance(clauses)
