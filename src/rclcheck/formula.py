"""Core data model for RCL contracts.

A contract is an immutable formula tree built from deontic operators
(obligation, permission, prohibition), dynamic modalities, conjunction and
clause choice, over an action algebra with concurrency, sequence and choice.
Nodes are slotted and never changed once built.  Every node caches a
structural key, so formulas hash and compare in near-constant time; the
automaton construction relies on that for state deduplication.  The
records around them (``ConflictRelations``, ``ContractSpec``) are named
tuples.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from typing import Callable, Iterable, NamedTuple

Individual = str
ActionName = str


class _Keyed:
    """Mixin giving AST nodes a cached structural key.

    The key is a nested tuple unique to the node's shape; hashing, equality
    and the canonical order of children all go through it.  A node is never
    changed after construction, so its key and hash are computed once, on
    first use, into the slots ``_k`` and ``_h``.
    """

    __slots__ = ("_k", "_h")

    def __init__(self) -> None:
        self._k = self._h = None

    def _build_key(self) -> tuple:
        raise NotImplementedError

    def key(self) -> tuple:
        k = self._k
        if k is None:
            k = self._k = self._build_key()
        return k

    def __hash__(self) -> int:
        h = self._h
        if h is None:
            h = self._h = hash(self.key())
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Keyed):
            return NotImplemented
        return self.key() == other.key()

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.key()[1:]!r}"


# ---------------------------------------------------------------------------
# Relativizations


class Relativization(namedtuple("_Relativization", "sender receiver")):
    """Binding of an operator to parties: global, performer, or directed.

    ``Relativization()`` is the global form (all individuals), a sender
    alone is a performer form, sender plus receiver is the directed form.
    A tuple ``(sender, receiver)``, so it hashes and compares at C speed.
    """

    __slots__ = ()

    def __new__(cls, sender: Individual | None = None, receiver: Individual | None = None):
        if receiver is not None and sender is None:
            raise ValueError("a receiver requires a sender")
        return tuple.__new__(cls, (sender, receiver))

    @classmethod
    def _make(cls, iterable) -> Relativization:
        # ``_replace`` builds through here, so it validates too.
        return cls(*iterable)

    @property
    def is_global(self) -> bool:
        return self.sender is None

    @property
    def is_performer(self) -> bool:
        return self.sender is not None and self.receiver is None

    @property
    def is_directed(self) -> bool:
        return self.receiver is not None

    def individuals(self) -> frozenset[Individual]:
        return frozenset(x for x in (self.sender, self.receiver) if x is not None)

    def key(self) -> tuple[str, str]:
        return (self.sender or "", self.receiver or "")

    def __repr__(self) -> str:
        if self.is_global:
            return "GLOBAL"
        if self.is_performer:
            return f"performer({self.sender!r})"
        return f"directed({self.sender!r}, {self.receiver!r})"


GLOBAL = Relativization()


def performer(sender: Individual) -> Relativization:
    return Relativization(sender)


def directed(sender: Individual, receiver: Individual) -> Relativization:
    return Relativization(sender, receiver)


# ---------------------------------------------------------------------------
# Action expressions


class ActionExpr(_Keyed):
    """Base class of the action algebra."""

    __slots__ = ()


class Atom(ActionExpr):
    __slots__ = ("name",)

    def __init__(self, name: ActionName) -> None:
        self.name = name
        self._k = self._h = None

    def _build_key(self) -> tuple:
        return ("atom", self.name)


class ZeroAction(ActionExpr):
    """The impossible action: it never happens."""

    __slots__ = ()

    def _build_key(self) -> tuple:
        return ("zero",)


class OneAction(ActionExpr):
    """The wildcard action: any nonempty step performs it."""

    __slots__ = ()

    def _build_key(self) -> tuple:
        return ("one",)


ZERO = ZeroAction()
ONE = OneAction()


class _Binary(ActionExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: ActionExpr, right: ActionExpr) -> None:
        self.left = left
        self.right = right
        self._k = self._h = None

    def _build_key(self) -> tuple:
        return (self._tag, self.left.key(), self.right.key())


class Concurrent(_Binary):
    __slots__ = ()
    _tag = "conc"


class Sequence(_Binary):
    __slots__ = ()
    _tag = "seq"


class Choice(_Binary):
    __slots__ = ()
    _tag = "alt"


class _Unary(ActionExpr):
    __slots__ = ("inner",)

    def __init__(self, inner: ActionExpr) -> None:
        self.inner = inner
        self._k = self._h = None

    def _build_key(self) -> tuple:
        return (self._tag, self.inner.key())


class Negation(_Unary):
    """Trigger-only: matches when the negated action is not performed."""

    __slots__ = ()
    _tag = "neg"


class Star(_Unary):
    """Trigger-only iteration."""

    __slots__ = ()
    _tag = "star"


# ---------------------------------------------------------------------------
# Contract formulas


class Formula(_Keyed):
    """Base class of contract formulas."""

    __slots__ = ()


class Top(Formula):
    """The satisfied contract."""

    __slots__ = ()

    def _build_key(self) -> tuple:
        return ("top",)


class Bottom(Formula):
    """The breached contract."""

    __slots__ = ()

    def _build_key(self) -> tuple:
        return ("bot",)


TOP = Top()
BOTTOM = Bottom()

# The key of a missing reparation.  Every other key starts with a
# lowercase tag, so this one sorts after every present reparation.  Keys
# hold only tuples and identifier strings, so their tuple order is the
# order of their reprs, this marker written ``None``: quotes, commas and
# closing brackets sort below every identifier character.
_NO_REPARATION = ("~",)


class _Duty(Formula):
    # An obligation or a prohibition: a deontic leaf with a reparation.
    __slots__ = ("rel", "action", "reparation")

    def __init__(self, rel: Relativization, action: ActionExpr,
                 reparation: Formula | None = None) -> None:
        self.rel = rel
        self.action = action
        self.reparation = reparation
        self._k = self._h = None

    def _build_key(self) -> tuple:
        rep = self.reparation.key() if self.reparation is not None else _NO_REPARATION
        return (self._tag, self.rel.key(), self.action.key(), rep)


class Obligation(_Duty):
    __slots__ = ()
    _tag = "ob"


class Permission(Formula):
    __slots__ = ("rel", "action")

    def __init__(self, rel: Relativization, action: ActionExpr) -> None:
        self.rel = rel
        self.action = action
        self._k = self._h = None

    def _build_key(self) -> tuple:
        return ("perm", self.rel.key(), self.action.key())


class Prohibition(_Duty):
    __slots__ = ()
    _tag = "proh"


class Dynamic(Formula):
    """Dynamic modality: once the trigger is performed, the body applies."""

    __slots__ = ("rel", "trigger", "body")

    def __init__(self, rel: Relativization, trigger: ActionExpr, body: Formula) -> None:
        self.rel = rel
        self.trigger = trigger
        self.body = body
        self._k = self._h = None

    def _build_key(self) -> tuple:
        return ("dyn", self.rel.key(), self.trigger.key(), self.body.key())


class _Junction(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]) -> None:
        self.children = children
        self._k = self._h = None

    def _build_key(self) -> tuple:
        return (self._tag,) + tuple(c.key() for c in self.children)


class And(_Junction):
    __slots__ = ()
    _tag = "and"


class XChoice(_Junction):
    """Clause choice between obligation or permission alternatives.

    Read inclusively: the formula holds when at least one branch holds.
    """

    __slots__ = ()
    _tag = "xch"


def conj(*children: Formula) -> Formula:
    """n-ary conjunction; empty is TOP, singleton collapses."""
    if not children:
        return TOP
    if len(children) == 1:
        return children[0]
    return And(tuple(children))


def xchoice(*children: Formula) -> Formula:
    """n-ary clause choice; empty is BOTTOM, singleton collapses."""
    if not children:
        return BOTTOM
    if len(children) == 1:
        return children[0]
    return XChoice(tuple(children))


def conjuncts(formula: Formula) -> tuple[Formula, ...]:
    """Top-level conjuncts of a formula (itself if not a conjunction)."""
    if isinstance(formula, And):
        return formula.children
    return (formula,)


# ---------------------------------------------------------------------------
# Canonical form


def canonicalize(formula: Formula) -> Formula:
    """Normal form used for state comparison.

    Conjunctions and choices are flattened into duplicate-free n-ary nodes
    whose children sort by their structural key; neutral and absorbing
    constants are folded away (``TOP ^ C -> C``, ``BOTTOM ^ C -> BOTTOM``,
    ``TOP (+) C -> TOP``, ``BOTTOM (+) C -> C``).  Idempotent, and alphabet-preserving.
    """
    return join_spine(formula, _canonical_leaf)


def _canonical_leaf(formula: Formula) -> Formula:
    # A node off the spine, its reparation or body canonicalized.
    if isinstance(formula, (Top, Bottom, Permission)):
        return formula
    if isinstance(formula, (Obligation, Prohibition)):
        if formula.reparation is None:
            return formula
        rep = canonicalize(formula.reparation)
        if rep is formula.reparation:
            return formula
        return type(formula)(formula.rel, formula.action, rep)
    if isinstance(formula, Dynamic):
        body = canonicalize(formula.body)
        if body is formula.body:
            return formula
        return Dynamic(formula.rel, formula.trigger, body)
    raise TypeError(f"not a formula: {formula!r}")


def join_spine(formula: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """The ``And``/``XChoice`` spine of a formula joined bottom-up by
    ``join``, with every node off the spine replaced by ``leaf`` of it."""
    if isinstance(formula, (And, XChoice)):
        return join(type(formula), map(join_spine, formula.children, repeat(leaf)))
    return leaf(formula)


def join(kind: type[And] | type[XChoice], children: Iterable[Formula]) -> Formula:
    """Canonical conjunction or choice of canonical ``children``.

    In one pass: folds constants (``TOP`` is neutral in ``And`` and
    absorbing in ``XChoice``, ``BOTTOM`` the reverse), stopping at the
    first absorbing child, so ``children`` may be a lazy generator; flattens
    children of the same kind one level (being canonical, they hold no
    constants); drops duplicates; and sorts by key.
    """
    neutral, absorbing = (TOP, BOTTOM) if kind is And else (BOTTOM, TOP)
    parts: set[Formula] = set()
    for c in children:
        t = type(c)
        if t is kind:
            parts.update(c.children)
        elif t is type(absorbing):
            return absorbing
        elif t is not type(neutral):
            parts.add(c)
    if not parts:
        return neutral
    if len(parts) == 1:
        return parts.pop()
    return kind(tuple(sorted(parts, key=Formula.key)))


# ---------------------------------------------------------------------------
# Alphabet extraction and atomicity


def extract_alphabet(
    clauses: Iterable[Formula],
) -> tuple[frozenset[Individual], frozenset[ActionName]]:
    """Every individual and basic action syntactically occurring anywhere."""
    individuals: set[Individual | None] = set()
    actions: set[ActionName] = set()
    stack: list[_Keyed] = list(clauses)  # formulas and actions alike
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            actions.add(node.name)
        elif kind is And or kind is XChoice:
            stack += node.children
        elif kind is Obligation or kind is Prohibition:
            individuals.update(node.rel)  # a missing party reads None
            stack.append(node.action)
            if node.reparation is not None:
                stack.append(node.reparation)
        elif kind is Permission:
            individuals.update(node.rel)
            stack.append(node.action)
        elif kind is Dynamic:
            individuals.update(node.rel)
            stack += (node.trigger, node.body)
        elif kind is Sequence or kind is Concurrent or kind is Choice:
            stack += (node.left, node.right)
        elif kind is Negation or kind is Star:
            stack.append(node.inner)
    individuals.discard(None)
    return frozenset(individuals), frozenset(actions)


# ---------------------------------------------------------------------------
# Pre-defined conflict relations and contract specifications


def _norm_pairs(pairs: Iterable[tuple[ActionName, ActionName]]) -> frozenset[frozenset[ActionName]]:
    return frozenset(frozenset(p) for p in pairs)


class ConflictRelations(NamedTuple):
    """Declared pairs of basic actions that must not co-occur.

    Global pairs clash whoever performs them; relativized pairs clash only
    when performed by the same individual.  Pairs are stored unordered, so
    the relation is symmetric by construction.
    """

    global_pairs: frozenset[frozenset[ActionName]] = frozenset()
    relativized_pairs: frozenset[frozenset[ActionName]] = frozenset()

    @staticmethod
    def make(
        global_pairs: Iterable[tuple[ActionName, ActionName]] = (),
        relativized_pairs: Iterable[tuple[ActionName, ActionName]] = (),
    ) -> "ConflictRelations":
        return ConflictRelations(_norm_pairs(global_pairs), _norm_pairs(relativized_pairs))

    def globally_conflicting(self, a: ActionName, b: ActionName) -> bool:
        return frozenset((a, b)) in self.global_pairs

    def relativized_conflicting(self, a: ActionName, b: ActionName) -> bool:
        return frozenset((a, b)) in self.relativized_pairs

    def actions(self) -> frozenset[ActionName]:
        out: set[ActionName] = set()
        for pair in self.global_pairs | self.relativized_pairs:
            out.update(pair)
        return frozenset(out)

    @property
    def is_empty(self) -> bool:
        return not self.global_pairs and not self.relativized_pairs


NO_CONFLICTS = ConflictRelations()


class ContractSpec(NamedTuple):
    """A parsed contract: alphabet, pre-defined conflicts, and clauses.

    The alphabet is inferred, never declared: individuals and actions are
    exactly those mentioned in the clauses plus any actions mentioned in
    the conflict declarations.
    """

    individuals: frozenset[Individual]
    actions: frozenset[ActionName]
    conflicts: ConflictRelations
    clauses: tuple[Formula, ...]

    @staticmethod
    def from_clauses(
        clauses: Iterable[Formula],
        conflicts: ConflictRelations = NO_CONFLICTS,
    ) -> "ContractSpec":
        clauses = tuple(clauses)
        if not clauses:
            raise ValueError("a contract needs at least one clause")
        individuals, actions = extract_alphabet(clauses)
        return ContractSpec(individuals, actions | conflicts.actions(), conflicts, clauses)

    def root(self) -> Formula:
        """The whole contract as one conjunction, in clause order."""
        return conj(*self.clauses)

    @property
    def effective_individuals(self) -> frozenset[Individual]:
        # A contract that names actions but no parties still needs one
        # performer for the global operators to quantify over.
        if self.individuals:
            return self.individuals
        return frozenset({"i"})
