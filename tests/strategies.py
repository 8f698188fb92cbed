"""Shared test helpers: ``hypothesis`` strategies over generated contracts,
and the symbol renamings the invariance tests apply."""
from __future__ import annotations

import re
from functools import reduce
from typing import Iterator, Mapping

from hypothesis import strategies as st

from rclcheck import (
    BOTTOM,
    GLOBAL,
    TOP,
    And,
    Atom,
    Bottom,
    Choice,
    Concurrent,
    ConflictRelations,
    ContractSpec,
    DeonticGroup,
    DeonticOp,
    DeonticTag,
    Dynamic,
    Formula,
    GroupKind,
    Negation,
    Obligation,
    OneAction,
    Permission,
    Relativization,
    Sequence,
    Star,
    Top,
    XChoice,
    ZeroAction,
    directed,
    generate,
    performer,
    render,
)
from rclcheck.decompose import prepare
from rclcheck.formula import ActionExpr, ActionName, Individual


def action_set_count(universe_size: int) -> int:
    """Number of nonempty concurrent action sets, computed symbolically."""
    return 2**universe_size - 1


# ---------------------------------------------------------------------------
# Symbol renaming


def rename_action_expr(
    expr: ActionExpr, act_map: Mapping[ActionName, ActionName]
) -> ActionExpr:
    if isinstance(expr, Atom):
        return Atom(act_map.get(expr.name, expr.name))
    if isinstance(expr, (ZeroAction, OneAction)):
        return expr
    if isinstance(expr, (Concurrent, Sequence, Choice)):
        return type(expr)(
            rename_action_expr(expr.left, act_map),
            rename_action_expr(expr.right, act_map),
        )
    if isinstance(expr, (Negation, Star)):
        return type(expr)(rename_action_expr(expr.inner, act_map))
    raise TypeError(f"not an action expression: {expr!r}")


def rename_symbols(
    formula: Formula,
    ind_map: Mapping[Individual, Individual],
    act_map: Mapping[ActionName, ActionName],
) -> Formula:
    """Apply injective renamings of individuals and actions to a formula."""

    def rel(r: Relativization) -> Relativization:
        if r.is_global:
            return r
        sender = ind_map.get(r.sender, r.sender)
        receiver = None if r.receiver is None else ind_map.get(r.receiver, r.receiver)
        return Relativization(sender, receiver)

    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, (And, XChoice)):
        return type(formula)(
            tuple(rename_symbols(c, ind_map, act_map) for c in formula.children)
        )
    if isinstance(formula, Dynamic):
        return Dynamic(
            rel(formula.rel),
            rename_action_expr(formula.trigger, act_map),
            rename_symbols(formula.body, ind_map, act_map),
        )
    if isinstance(formula, Permission):
        return Permission(rel(formula.rel), rename_action_expr(formula.action, act_map))
    rep = None
    if formula.reparation is not None:
        rep = rename_symbols(formula.reparation, ind_map, act_map)
    return type(formula)(rel(formula.rel), rename_action_expr(formula.action, act_map), rep)


def rename_spec(
    spec: ContractSpec,
    ind_map: Mapping[Individual, Individual],
    act_map: Mapping[ActionName, ActionName],
) -> ContractSpec:
    def pair_map(pairs: frozenset[frozenset[ActionName]]) -> Iterator[tuple[ActionName, ActionName]]:
        for pair in pairs:
            items = sorted(pair)
            a = act_map.get(items[0], items[0])
            b = act_map.get(items[-1], items[-1])
            yield (a, b)

    conflicts = ConflictRelations.make(
        pair_map(spec.conflicts.global_pairs),
        pair_map(spec.conflicts.relativized_pairs),
    )
    clauses = tuple(rename_symbols(c, ind_map, act_map) for c in spec.clauses)
    return ContractSpec.from_clauses(clauses, conflicts)


# ---------------------------------------------------------------------------
# Contracts


@st.composite
def specs(draw, individuals=(1, 3), actions=(1, 3), clauses=(1, 3), max_depth=3,
          pairs=False) -> ContractSpec:
    """A generated contract; each size is drawn from its inclusive range.
    With ``pairs``, up to three global and three relativized pairs over its
    actions are declared besides the generator's, an action paired with
    itself included."""
    spec = generate(individuals=draw(st.integers(*individuals)),
                    actions=draw(st.integers(*actions)),
                    clauses=draw(st.integers(*clauses)), max_depth=max_depth,
                    seed=draw(st.integers(0, 10**6)))
    if not pairs:
        return spec
    names = st.sampled_from(sorted(spec.actions) or ["a1"])
    pair_sets = st.lists(st.tuples(names, names), max_size=3).map(
        lambda drawn: frozenset(map(frozenset, drawn)))
    conflicts = ConflictRelations(spec.conflicts.global_pairs | draw(pair_sets),
                                  spec.conflicts.relativized_pairs | draw(pair_sets))
    return ContractSpec.from_clauses(spec.clauses, conflicts)


@st.composite
def choice_obligation_specs(draw) -> ContractSpec:
    """A generated contract with one more clause: an obligation over a
    2-4-way choice of its actions, under a drawn relativization over its
    individuals, perhaps with one of its clauses as reparation and perhaps
    guarded by one of its actions."""
    spec = draw(specs(pairs=True))
    names = st.sampled_from(sorted(spec.actions) or ["a1"])
    action = reduce(Choice, map(Atom, draw(st.lists(names, min_size=2, max_size=4))))
    people = st.sampled_from(sorted(spec.individuals) or ["i1"])
    rel = draw(st.one_of(st.just(GLOBAL), people.map(performer),
                         st.builds(directed, people, people)))
    clause = Obligation(rel, action, draw(st.sampled_from((None, *spec.clauses))))
    if draw(st.booleans()):
        clause = Dynamic(rel, Atom(draw(names)), clause)
    return ContractSpec.from_clauses(spec.clauses + (clause,), spec.conflicts)


TOKENS = sorted({"conflict", "global", "relativized", "O", "P", "F", "true", "false",
                 "{", "}", "(", ")", "[", "]", ",", ";", "^", "&", ".", "+", "!", "*",
                 "(+)", "_/", "/_", "0", "1", "a", "b", "i", "j", "x1", "// note\n",
                 " ", "\n"})
token_soup = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)
LEXEME = re.compile(r"\(\+\)|_/|/_|[A-Za-z][A-Za-z0-9_]*|\s+|.")


@st.composite
def mutated_contracts(draw) -> str:
    # Soup alone seldom parses; a few token edits of a generated contract
    # reach the checker with odd but well-formed input much more often.
    lexemes = LEXEME.findall(render(draw(specs())))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lexemes)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit != "insert" and at < len(lexemes):
            del lexemes[at]
        if edit != "delete":
            lexemes.insert(at, draw(st.sampled_from(TOKENS)))
    return "".join(lexemes)


@st.composite
def canonical_formulas(draw) -> Formula:
    """A canonical formula: a constant, or the step normal form of a
    generated contract or of one of its clauses, often a conjunction or a
    clause choice."""
    spec = draw(specs(individuals=(1, 2), actions=(1, 3), clauses=(1, 3)))
    return draw(st.sampled_from((TOP, BOTTOM, prepare(spec.root()),
                                 *map(prepare, spec.clauses))))


# ---------------------------------------------------------------------------
# Deontic values


_NAMES = st.sampled_from(("i", "j", "k"))
# Self-directed pairs included: the parser warns about them but keeps them.
relativizations = st.one_of(st.just(GLOBAL), _NAMES.map(performer),
                            st.builds(directed, _NAMES, _NAMES))
tag_values = st.builds(DeonticTag, relativizations, st.sampled_from(DeonticOp),
                       st.sampled_from(("a", "b")))
group_values = st.builds(DeonticGroup, st.sampled_from(GroupKind),
                         st.frozensets(tag_values, min_size=1, max_size=3))
