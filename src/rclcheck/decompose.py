"""Stepwise decomposition of contracts against performed-action sets.

One automaton step performs a (possibly empty) set of relativized actions.
``rewrite_compound`` reduces compound actions under deontic and dynamic
operators to their primitive forms, ``decompose`` computes the residual
contract after one step, and ``deontic_tags`` reads off the deontic
labelling of a state, and ``exposed_tags`` every tag a state reachable
from a contract can carry.  ``_table`` compiles a state into the one flat
step table that ``decompose``, the automaton's cubes and its step universe
all read.
"""
from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

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
    join,
    join_spine,
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


class DeonticOp(Enum):
    OBLIGATION = "O"
    PERMISSION = "P"
    PROHIBITION = "F"

    # Members are singletons, so identity is equality and hashing stays in C.
    __hash__ = object.__hash__


class DeonticTag(NamedTuple):
    """One deontic operator over a basic action, as recorded at a state.

    A named tuple, so the sets of tags and groups hash and compare in C.
    """

    rel: Relativization
    op: DeonticOp
    action: ActionName

    def sort_key(self) -> tuple:
        # ``_value_`` is ``value`` without the enum property's call.
        return (self.op._value_, self.action) + self.rel.key()

    def __repr__(self) -> str:
        return f"{self.rel!r}:{self.op.value}({self.action})"


class GroupKind(Enum):
    CONJUNCT = "conjunct"
    OBLIGATION_CHOICE = "choice"

    __hash__ = object.__hash__


class DeonticGroup(NamedTuple):
    """A deontic-label group: a lone conjunct tag, or the alternatives of a
    clause choice (which count as discharged while any alternative is free)."""

    kind: GroupKind
    tags: frozenset[DeonticTag]

    def sort_key(self) -> tuple:
        return (self.kind._value_, tuple(sorted(t.sort_key() for t in self.tags)))


# ---------------------------------------------------------------------------
# Compound-action rewriting


_UNDER = {Obligation: "an obligation", Permission: "a permission", Prohibition: "a prohibition"}


def rewrite_compound(formula: Formula, _seen: frozenset = frozenset()) -> Formula:
    """Reduce compound actions at the top level of a formula.

    ``X(α)`` is any of ``O(α)``, ``P(α)`` and ``F(α)``, each with its
    reparation, and the trigger ``[α]C``.  ``R`` is the reparation, or
    ``false`` when there is none.

    - ``X(α&β)`` and ``X(α+β)`` become ``X(α) ^ X(β)``, except that
      ``O(α+β)`` becomes the clause choice ``O(α) (+) O(β)``.
    - ``F(α.β)`` and ``[α.β]C`` are guards and become ``[α]X(β)``: a
      forbidden sequence breaches only once it is complete.  ``O(α.β)``
      and ``P(α.β)`` also keep their head: ``X(α) ^ [α]X(β)``.
    - ``O(0)`` becomes ``[!0]R``, breached by every step, and ``O(1)``
      becomes ``[!1]R``, breached by the empty step.  ``P(0)``, ``P(1)``
      and ``F(0)`` become ``true``, and ``F(1)`` becomes ``[1]R``.
    - ``[α*]C`` unfolds once, to ``C ^ [α][α*]C``.  ``_seen`` keeps nested
      iterations from re-exposing a formula already unfolded here.
    - ``X(a)``, ``[0]C``, ``[1]C`` and ``[!a]C`` stay, for ``a`` a basic
      action (and ``0`` or ``1`` after ``!``).  Bodies and reparations
      are rewritten only once a step exposes them.
    """
    rw = rewrite_compound
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, And):
        return conj(*(rw(c, _seen) for c in formula.children))
    if isinstance(formula, XChoice):
        return xchoice(*(rw(c, _seen) for c in formula.children))
    # Every operator is built as ``kind(rel, action, *rest)``.
    kind = type(formula)
    if kind is Dynamic:
        act, rest = formula.trigger, (formula.body,)
    elif kind is Permission:
        act, rest = formula.action, ()
    elif kind is Obligation or kind is Prohibition:
        act, rest = formula.action, (formula.reparation,)
    else:
        raise TypeError(f"not a formula: {formula!r}")
    if isinstance(act, Atom):
        return formula
    rel = formula.rel
    if isinstance(act, (Concurrent, Choice)):
        parts = rw(kind(rel, act.left, *rest), _seen), rw(kind(rel, act.right, *rest), _seen)
        return xchoice(*parts) if kind is Obligation and isinstance(act, Choice) else conj(*parts)
    if isinstance(act, Sequence):
        tail = Dynamic(rel, act.left, kind(rel, act.right, *rest))
        if kind is Dynamic or kind is Prohibition:
            return rw(tail, _seen)
        return conj(rw(kind(rel, act.left, *rest), _seen), rw(tail, _seen))
    if isinstance(act, (ZeroAction, OneAction)):
        if kind is Dynamic:
            return formula
        if kind is Permission or (kind is Prohibition and isinstance(act, ZeroAction)):
            return TOP
        rep = BOTTOM if rest[0] is None else rest[0]
        return Dynamic(rel, Negation(act) if kind is Obligation else act, rep)
    if kind is not Dynamic:
        raise ValueError(f"illegal action under {_UNDER[kind]}: {act!r}")
    if isinstance(act, Negation):
        if not isinstance(act.inner, (Atom, ZeroAction, OneAction)):
            raise ValueError("negation applies to a single action")
        return formula
    if isinstance(act, Star):
        if formula in _seen:
            return TOP
        seen = _seen | {formula}
        return conj(rw(formula.body, seen), rw(Dynamic(rel, act.inner, formula), seen))
    raise ValueError(f"illegal trigger: {act!r}")


def prepare(formula: Formula) -> Formula:
    """Canonical step normal form: rewrite compounds, then canonicalize."""
    return canonicalize(rewrite_compound(formula))


def prepare_exposed(formula: Formula) -> Formula:
    """``prepare`` of a formula whose bodies and reparations are canonical,
    such as one that a step exposes from a state in step normal form.

    Rewriting keeps those bodies and reparations, and builds new leaves
    only over them, so every leaf of its result is canonical and only the
    ``And``/``XChoice`` spine is joined again: the cost follows what the
    rewrite built, not the depth of the formula.
    """
    return join_spine(rewrite_compound(formula), _same)


# ---------------------------------------------------------------------------
# Single-step decomposition


def trigger_matched(
    rel: Relativization,
    action: ActionExpr,
    step: frozenset,
    individuals: frozenset[Individual],
) -> bool:
    """Whether a step performs a leaf action under a relativization: the
    leaf test ``_test`` resolves, answered by ``_holds``."""
    return _holds(_test(rel, action), step, individuals)


def decompose(
    formula: Formula,
    step: frozenset,
    individuals: frozenset[Individual],
    actions: frozenset[ActionName] | None = None,
) -> Formula:
    """Residual contract after performing ``step``.

    The formula must already be in step normal form (see ``prepare``):
    every test is on a basic action, ``1`` or ``0``, and iteration has been
    unfolded.  The outcome therefore depends only on which of those leaf
    tests the step makes true, which is what lets the automaton give a
    state one transition per cube of its tests.  The formula is compiled
    whole into a step table (see ``_table``) before the step is applied, so
    a compound test or a raw ``Star`` trigger raises ``ValueError`` even
    behind a breached sibling.  The residual is canonical, its spine
    joined by ``join``, but bodies and reparations exposed by the step are
    not rewritten, so the caller applies ``prepare``, the step normal
    form, before the next step.
    """
    for act in step:
        if act.sender not in individuals or act.receiver not in individuals:
            raise ValueError(f"unknown individual in step: {act!r}")
        if actions is not None and act.action not in actions:
            raise ValueError(f"unknown action in step: {act!r}")
    return _apply(_table(formula, partial(_leaf, _same)), step, individuals)


def _same(formula: Formula) -> Formula:
    # ``decompose`` compiles its table with this outcome, as its caller
    # prepares the residual whole; ``prepare_exposed`` keeps its leaves by it.
    return formula


# A leaf's test: a directed ``RelativizedAction``, a performer's
# ``(sender, name)``, a global test's name, or one of these two.
_WILDCARD = True
_NEVER = False
_PERMITTED = (_NEVER, TOP, TOP)  # a permission's step-table record


def _test(rel: Relativization, action: ActionExpr):
    """What a leaf asks of a step, resolved before any step."""
    kind = type(action)
    if kind is Atom:
        sender, receiver = rel
        if sender is None:
            return action.name
        if receiver is None:
            return (sender, action.name)
        return RelativizedAction(sender, action.name, receiver)
    if kind is ZeroAction:
        return _NEVER
    if kind is OneAction:
        return _WILDCARD
    raise ValueError(f"compound action reached the matcher: {action!r}")


def _holds(test, step: frozenset, individuals: frozenset[Individual]) -> bool:
    """Whether a step makes a leaf test true.  A directed test needs its
    exact action, the wildcard any nonempty step, and the impossible
    action never holds; a performer's ``(sender, name)`` needs some action
    of that sender and name, and a global name every individual to
    perform it (to anyone)."""
    kind = type(test)
    if kind is RelativizedAction:
        return test in step
    if kind is bool:
        return test is _WILDCARD and bool(step)
    if kind is tuple:
        return any(a[:2] == test for a in step)
    return individuals <= {a.sender for a in step if a.action == test}


def _leaf(outcome: Callable[[Formula], Formula], f: Formula) -> tuple:
    """A leaf's step-table record ``(test, if true, if false)``: its test
    (see ``_test``) and what it becomes when a step makes that test true
    or false.  Bodies and reparations go through ``outcome``, so a caller
    can hand in their step normal form; constants and permissions never
    change and test nothing."""
    kind = type(f)
    if kind is Obligation or kind is Prohibition:
        rep = BOTTOM if f.reparation is None else outcome(f.reparation)
        test = _test(f.rel, f.action)
        return (test, TOP, rep) if kind is Obligation else (test, rep, TOP)
    if kind is Dynamic:
        trig, body = f.trigger, outcome(f.body)
        return ((_test(f.rel, trig.inner), TOP, body) if type(trig) is Negation
                else (_test(f.rel, trig), body, TOP))
    if kind is Permission:
        # Permissions impose nothing on the trace; they only label states.
        return _PERMITTED
    if kind is Top or kind is Bottom:
        return _NEVER, f, f
    raise TypeError(f"not a formula: {f!r}")


def _table(formula: Formula, leaf: Callable[[Formula], tuple]) -> tuple[list, list, dict]:
    """Compile a normal-form formula into its step table, in one walk.

    The table is ``(nodes, parent, index)``.  ``nodes`` holds the formula
    in preorder, root first: its ``And``/``XChoice`` spine as ``(kind,
    child ids)``, and each leaf as ``leaf`` of it, a record ``(test, if
    true, if false)`` such as ``_leaf`` builds.  ``parent`` holds each
    node's parent id, -1 at the root.  ``index`` maps each test key to the
    leaves that read it, except that a leaf no step changes (a ``0``
    test, or two outcomes that are one object) is filed under ``_NEVER``,
    so every other key listed is one that some step can change the
    residual through.  The walk keeps its own stack, so a table holds no
    reference cycle and is freed as soon as it is dropped.
    """
    nodes: list[tuple] = []
    parent: list[int] = []
    index: dict = {}
    todo = [(formula, -1)]
    while todo:
        f, up = todo.pop()
        n = len(nodes)
        parent.append(up)
        if up >= 0:
            nodes[up][1].append(n)
        kind = type(f)
        if kind is And or kind is XChoice:
            nodes.append((kind, []))
            todo += zip(reversed(f.children), repeat(n))
            continue
        record = leaf(f)
        nodes.append(record)
        index.setdefault(_NEVER if record[1] is record[2] else record[0], []).append(n)
    return nodes, parent, index


def _apply(table: tuple, step: frozenset, individuals: frozenset[Individual]) -> Formula:
    """The residual of a step table after ``step``: each leaf's outcome,
    joined up its spine by ``join``."""
    return _residual(table[0], 0, step, individuals)


def _residual(nodes: list, n: int, step: frozenset, individuals: frozenset[Individual]) -> Formula:
    # Children are drawn lazily, so the rest of a spine after an absorbing
    # child is skipped.
    node = nodes[n]
    if len(node) == 2:
        return join(node[0], (_residual(nodes, c, step, individuals) for c in node[1]))
    return node[1] if _holds(node[0], step, individuals) else node[2]


# ---------------------------------------------------------------------------
# Deontic labelling


_OPS = {Obligation: DeonticOp.OBLIGATION, Permission: DeonticOp.PERMISSION,
        Prohibition: DeonticOp.PROHIBITION}


def _tag(f: Formula) -> DeonticTag | None:
    op = _OPS.get(type(f))
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
    return frozenset(filter(None, map(_group, conjuncts(formula))))


def _group(conjunct: Formula) -> DeonticGroup | None:
    """The deontic group that one top-level conjunct contributes, if any."""
    if isinstance(conjunct, XChoice):
        tags = frozenset(_branch_tags(conjunct))
        return DeonticGroup(GroupKind.OBLIGATION_CHOICE, tags) if tags else None
    tag = _tag(conjunct)
    return None if tag is None else DeonticGroup(GroupKind.CONJUNCT, frozenset({tag}))


def exposed_tags(*formulas: Formula) -> Iterator[DeonticTag]:
    """Every deontic tag that a state reachable from the conjunction of
    ``formulas`` can carry.

    Walks ``rewrite_compound`` of the formulas, then of every body and
    reparation that a leaf can expose, each formula object once.  The
    rewrite keeps conjunctions, choices and leaves over basic actions as
    they are, so only deontic leaves over other actions go through it.  A
    dynamic exposes its body whatever its trigger: rewriting a compound trigger
    only guards the body behind more steps, or for ``[a*]C`` holds ``C``
    at once and ``[a*]C`` itself behind the next ``a``.  Every state is the
    step normal form of a conjunction of such formulas, and
    ``canonicalize`` only reorders, merges or folds away parts, so its tags
    are among these.  Tags come lazily and may repeat, so a caller can stop
    at the first one it needs.
    """
    # Bodies and reparations seen, by identity: an equal copy is walked
    # again, but hashing fresh formulas would build keys that an early
    # decision never reads.  The values keep each seen formula alive, so
    # that its id is not reused by one the rewrite makes later.  The walk
    # ends, as only deontic leaves are rewritten, and no ``*`` is under one.
    seen: dict[int, Formula] = {}
    stack = list(formulas)
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
            if tag is None:  # over a compound action, 0 or 1
                stack.append(rewrite_compound(f))
                continue
            yield tag
            later = None if kind is Permission else f.reparation
        else:
            continue
        if later is not None and id(later) not in seen:
            seen[id(later)] = later
            stack.append(later)
