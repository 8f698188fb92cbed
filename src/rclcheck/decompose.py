"""Stepwise decomposition of contracts against performed-action sets.

One automaton step performs a (possibly empty) set of relativized actions.
``rewrite_compound`` reduces compound actions under deontic and dynamic
operators to their primitive forms, ``decompose`` computes the residual
contract after one step, and ``deontic_tags`` reads off the deontic
labelling of a state.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .formula import (
    BOTTOM,
    TOP,
    ActionExpr,
    ActionName,
    And,
    Atom,
    Bottom,
    Choice,
    Concurrent,
    Dynamic,
    Formula,
    Individual,
    Negation,
    Obligation,
    OneAction,
    Permission,
    Prohibition,
    Relativization,
    Sequence,
    Star,
    Top,
    XChoice,
    ZeroAction,
    canonicalize,
    conj,
    conjuncts,
    fold,
    xchoice,
)


class RelativizedAction(NamedTuple):
    """A basic action together with its sender and receiver.

    A named tuple, so hashing, equality and ordering (by sender, action,
    receiver) run at C speed in the sets that steps are made of.
    """

    sender: Individual
    action: ActionName
    receiver: Individual

    def __repr__(self) -> str:
        return f"({self.sender},{self.action},{self.receiver})"


ConcurrentActionSet = frozenset  # of RelativizedAction


class DeonticOp(Enum):
    OBLIGATION = "O"
    PERMISSION = "P"
    PROHIBITION = "F"


@dataclass(frozen=True)
class DeonticTag:
    """One deontic operator over a basic action, as recorded at a state."""

    rel: Relativization
    op: DeonticOp
    action: ActionName

    def sort_key(self) -> tuple:
        return (self.op.value, self.action) + self.rel.key()

    def __repr__(self) -> str:
        return f"{self.rel!r}:{self.op.value}({self.action})"


class GroupKind(Enum):
    CONJUNCT = "conjunct"
    OBLIGATION_CHOICE = "choice"


@dataclass(frozen=True)
class DeonticGroup:
    """A deontic-label group: a lone conjunct tag, or the alternatives of a
    clause choice (which count as discharged while any alternative is free)."""

    kind: GroupKind
    tags: frozenset[DeonticTag]

    def sort_key(self) -> tuple:
        return (self.kind.value, tuple(sorted(t.sort_key() for t in self.tags)))


DeonticGroups = frozenset  # of DeonticGroup


# ---------------------------------------------------------------------------
# Compound-action rewriting


def rewrite_compound(formula: Formula, _seen: frozenset = frozenset()) -> Formula:
    """Reduce compound actions at the top level of a formula.

    Obligations and permissions over concurrency split into conjunctions,
    sequences leave a guarded residual behind the head action, and choice
    under an obligation becomes a clause choice over the alternatives.
    Iterated triggers are unfolded one step; ``_seen`` keeps nested
    iterations from re-exposing a formula already unfolded at this level.
    Dynamic bodies and reparations are left untouched; they are rewritten
    once a step exposes them.
    """
    rw = rewrite_compound
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, And):
        return conj(*(rw(c, _seen) for c in formula.children))
    if isinstance(formula, XChoice):
        return xchoice(*(rw(c, _seen) for c in formula.children))
    if isinstance(formula, Permission):
        rel, act = formula.rel, formula.action
        if isinstance(act, Atom):
            return formula
        if isinstance(act, (ZeroAction, OneAction)):
            return TOP
        if isinstance(act, Concurrent):
            return conj(rw(Permission(rel, act.left), _seen),
                        rw(Permission(rel, act.right), _seen))
        if isinstance(act, Sequence):
            return conj(
                rw(Permission(rel, act.left), _seen),
                rw(Dynamic(rel, act.left, Permission(rel, act.right)), _seen),
            )
        if isinstance(act, Choice):
            return conj(rw(Permission(rel, act.left), _seen),
                        rw(Permission(rel, act.right), _seen))
        raise ValueError(f"illegal action under a permission: {act!r}")
    if isinstance(formula, Obligation):
        rel, act, rep = formula.rel, formula.action, formula.reparation
        if isinstance(act, Atom):
            return formula
        if isinstance(act, (ZeroAction, OneAction)):
            # The impossible action breaches on every step; the wildcard is
            # discharged by any nonempty step and breached by the empty one.
            return Dynamic(rel, Negation(act), rep if rep is not None else BOTTOM)
        if isinstance(act, Concurrent):
            return conj(rw(Obligation(rel, act.left, rep), _seen),
                        rw(Obligation(rel, act.right, rep), _seen))
        if isinstance(act, Sequence):
            return conj(
                rw(Obligation(rel, act.left, rep), _seen),
                rw(Dynamic(rel, act.left, Obligation(rel, act.right, rep)), _seen),
            )
        if isinstance(act, Choice):
            left = rw(Obligation(rel, act.left, rep), _seen)
            right = rw(Obligation(rel, act.right, rep), _seen)
            return xchoice(conj(left, right), left, right)
        raise ValueError(f"illegal action under an obligation: {act!r}")
    if isinstance(formula, Prohibition):
        rel, act, rep = formula.rel, formula.action, formula.reparation
        if isinstance(act, Atom):
            return formula
        if isinstance(act, ZeroAction):
            return TOP
        if isinstance(act, OneAction):
            return Dynamic(rel, act, rep if rep is not None else BOTTOM)
        if isinstance(act, Concurrent):
            return conj(rw(Prohibition(rel, act.left, rep), _seen),
                        rw(Prohibition(rel, act.right, rep), _seen))
        if isinstance(act, Sequence):
            # Violated only if the whole sequence happens: forbid the tail
            # once the head has been performed.
            return rw(Dynamic(rel, act.left, Prohibition(rel, act.right, rep)), _seen)
        if isinstance(act, Choice):
            return conj(rw(Prohibition(rel, act.left, rep), _seen),
                        rw(Prohibition(rel, act.right, rep), _seen))
        raise ValueError(f"illegal action under a prohibition: {act!r}")
    if isinstance(formula, Dynamic):
        rel, trig, body = formula.rel, formula.trigger, formula.body
        if isinstance(trig, (Atom, ZeroAction, OneAction)):
            return formula
        if isinstance(trig, Negation):
            if not isinstance(trig.inner, (Atom, ZeroAction, OneAction)):
                raise ValueError("negation applies to a single action")
            return formula
        if isinstance(trig, Star):
            if formula in _seen:
                return TOP
            seen = _seen | {formula}
            return conj(
                rw(body, seen),
                rw(Dynamic(rel, trig.inner, formula), seen),
            )
        if isinstance(trig, Concurrent):
            return conj(rw(Dynamic(rel, trig.left, body), _seen),
                        rw(Dynamic(rel, trig.right, body), _seen))
        if isinstance(trig, Sequence):
            return rw(Dynamic(rel, trig.left, Dynamic(rel, trig.right, body)), _seen)
        if isinstance(trig, Choice):
            return conj(rw(Dynamic(rel, trig.left, body), _seen),
                        rw(Dynamic(rel, trig.right, body), _seen))
        raise ValueError(f"illegal trigger: {trig!r}")
    raise TypeError(f"not a formula: {formula!r}")


def prepare(formula: Formula) -> Formula:
    """Canonical step normal form: rewrite compounds, then canonicalize."""
    return canonicalize(rewrite_compound(formula))


# ---------------------------------------------------------------------------
# Single-step decomposition


def trigger_matched(
    rel: Relativization,
    action: ActionExpr,
    step: frozenset,
    individuals: frozenset[Individual],
) -> bool:
    """Whether a step performs a leaf action under a relativization.

    Global operators need every individual to perform the action (to
    anyone); performer operators need the sender to perform it to anyone;
    directed operators need the exact sender-receiver pair.  The wildcard
    action is performed by any nonempty step, the impossible action never.
    """
    if isinstance(action, ZeroAction):
        return False
    if isinstance(action, OneAction):
        return bool(step)
    if not isinstance(action, Atom):
        raise ValueError(f"compound action reached the matcher: {action!r}")
    name = action.name
    if rel.is_global:
        performed = {a.sender for a in step if a.action == name}
        return individuals <= performed
    if rel.is_performer:
        return any(a.action == name and a.sender == rel.sender for a in step)
    return RelativizedAction(rel.sender, name, rel.receiver) in step


def decompose(
    formula: Formula,
    step: frozenset,
    individuals: frozenset[Individual],
    actions: frozenset[ActionName] | None = None,
) -> Formula:
    """Residual contract after performing ``step``.

    The formula must already be in step normal form (see ``prepare``):
    every test is on a basic action, ``1`` or ``0``, and iteration has been
    unfolded, so a raw ``Star`` trigger raises ``ValueError``.  The outcome
    therefore depends only on which of those leaf tests the step makes true,
    which is what lets ``relevant_universe`` prune the steps of a state.
    The residual has its constants folded (see ``fold``), so a breached
    conjunct or a discharged alternative ends the walk over its siblings,
    but it is not canonical: bodies and reparations exposed by the step are
    returned as written, and the caller applies ``prepare``, the step normal
    form, before the next step.
    """
    for act in step:
        if act.sender not in individuals or act.receiver not in individuals:
            raise ValueError(f"unknown individual in step: {act!r}")
        if actions is not None and act.action not in actions:
            raise ValueError(f"unknown action in step: {act!r}")

    def go(f: Formula) -> Formula:
        if isinstance(f, (Top, Bottom)):
            return f
        if isinstance(f, (And, XChoice)):
            return fold(type(f), (go(c) for c in f.children))
        if isinstance(f, Permission):
            # Permissions impose nothing on the trace; they only label states.
            return TOP
        if isinstance(f, Obligation):
            if trigger_matched(f.rel, f.action, step, individuals):
                return TOP
            return f.reparation if f.reparation is not None else BOTTOM
        if isinstance(f, Prohibition):
            if trigger_matched(f.rel, f.action, step, individuals):
                return f.reparation if f.reparation is not None else BOTTOM
            return TOP
        if isinstance(f, Dynamic):
            trig = f.trigger
            if isinstance(trig, Negation):
                if trigger_matched(f.rel, trig.inner, step, individuals):
                    return TOP
                return f.body
            if trigger_matched(f.rel, trig, step, individuals):
                return f.body
            return TOP
        raise TypeError(f"not a formula: {f!r}")

    return go(formula)


# ---------------------------------------------------------------------------
# Deontic labelling


def _tag(f: Formula) -> DeonticTag | None:
    ops = {Obligation: DeonticOp.OBLIGATION, Permission: DeonticOp.PERMISSION,
           Prohibition: DeonticOp.PROHIBITION}
    op = ops.get(type(f))
    if op is None or not isinstance(f.action, Atom):
        return None
    return DeonticTag(f.rel, op, f.action.name)


def _branch_tags(branch: Formula) -> Iterable[DeonticTag]:
    for c in conjuncts(branch):
        if isinstance(c, XChoice):
            for b in c.children:
                yield from _branch_tags(b)
        else:
            tag = _tag(c)
            if tag is not None:
                yield tag


def deontic_tags(formula: Formula) -> frozenset:
    """Deontic labelling of a state formula.

    Each unguarded deontic operator contributes a singleton group; a clause
    choice contributes one group holding every alternative's tags.  A
    formula with only dynamic operators (or none) labels as the empty set.
    """
    groups: set[DeonticGroup] = set()
    for c in conjuncts(formula):
        if isinstance(c, XChoice):
            tags = frozenset(_branch_tags(c))
            if tags:
                groups.add(DeonticGroup(GroupKind.OBLIGATION_CHOICE, tags))
            continue
        tag = _tag(c)
        if tag is not None:
            groups.add(DeonticGroup(GroupKind.CONJUNCT, frozenset({tag})))
    return frozenset(groups)
