"""Deontic conflict detection.

Two tags clash when they demand and forbid the same action for overlapping
performers, or when a pre-defined conflict relation links their actions.
States are searched group-against-group; the alternatives of a clause
choice count as blocked only if every one of them clashes.  A contract
none of whose tags can clash with another is conflict-free before any
automaton is built.
"""
from __future__ import annotations

from enum import Enum
from itertools import count
from typing import NamedTuple

from .automaton import (
    BuildOptions,
    ContractAutomaton,
    TraceStep,
    _Memo,
    _traces,
    construct,
    trace_to,  # unused here, but perfbench's tracer wraps this name
)
from .decompose import (
    DeonticGroup,
    DeonticOp,
    DeonticTag,
    GroupKind,
    _group,
    exposed_tags,
)
from .formula import (
    ActionName,
    ConflictRelations,
    ContractSpec,
    Formula,
    Relativization,
    conjuncts,
)
from .parser import _render_rel


class ConflictKind(Enum):
    OBLIGATION_VS_PROHIBITION = "obligation vs prohibition"
    PROHIBITION_VS_PERMISSION = "prohibition vs permission"
    OBLIGATION_VS_OBLIGATION_PREDEF = "obligations over pre-defined conflicting actions"
    PERMISSION_VS_OBLIGATION_PREDEF = "permission and obligation over pre-defined conflicting actions"


_O, _P, _F = DeonticOp.OBLIGATION, DeonticOp.PERMISSION, DeonticOp.PROHIBITION


def _performers_overlap(r1: Relativization, r2: Relativization) -> bool:
    # A global operator overlaps everyone.  Directed operators pin the
    # exact sender-receiver pair, so two directed forms overlap only when
    # they are equal; a bare performer overlaps on the sender.  Fields are
    # unpacked once: a named-tuple property read costs more than the test.
    s1, t1 = r1
    s2, t2 = r2
    if s1 is None or s2 is None:
        return True
    if t1 is not None and t2 is not None:
        return r1 == r2
    return s1 == s2


def _senders_overlap(r1: Relativization, r2: Relativization) -> bool:
    s1, s2 = r1[0], r2[0]
    return s1 is None or s2 is None or s1 == s2


def tags_conflict(
    d1: DeonticTag, d2: DeonticTag, rels: ConflictRelations
) -> ConflictKind | None:
    """The conflict scenario two tags fall under, if any.  Symmetric."""
    op1, op2 = d1.op, d2.op
    if op1 is _F or op2 is _F:
        # Only a prohibition against the other two, over one action.
        if op1 is op2 or d1.action != d2.action or not _performers_overlap(d1.rel, d2.rel):
            return None
        if op1 is _O or op2 is _O:
            return ConflictKind.OBLIGATION_VS_PROHIBITION
        return ConflictKind.PROHIBITION_VS_PERMISSION
    if op1 is _P and op2 is _P:
        return None
    kind = (ConflictKind.OBLIGATION_VS_OBLIGATION_PREDEF if op1 is op2
            else ConflictKind.PERMISSION_VS_OBLIGATION_PREDEF)
    if rels.globally_conflicting(d1.action, d2.action):
        return kind
    if rels.relativized_conflicting(d1.action, d2.action) and _senders_overlap(d1.rel, d2.rel):
        return kind
    return None


Clash = tuple[DeonticTag, DeonticTag, ConflictKind]


def _first_clash(tags1: list, tags2: list, rels: ConflictRelations) -> Clash | None:
    for d1 in tags1:
        for d2 in tags2:
            kind = tags_conflict(d1, d2, rels)
            if kind is not None:
                return (d1, d2, kind)
    return None


def _all_blocked(choice_tags: list, other_tags: list, rels: ConflictRelations) -> bool:
    return all(
        any(tags_conflict(d, d2, rels) is not None for d2 in other_tags)
        for d in choice_tags
    )


def _pair_clash(kind1: GroupKind, tags1: list, kind2: GroupKind, tags2: list,
                rels: ConflictRelations) -> Clash | None:
    """The first clash between two groups, given each group's tags sorted."""
    # A choice group conflicts only when every alternative is blocked.
    if (kind1 is GroupKind.CONJUNCT and kind2 is GroupKind.CONJUNCT
            or kind1 is GroupKind.OBLIGATION_CHOICE and _all_blocked(tags1, tags2, rels)
            or kind2 is GroupKind.OBLIGATION_CHOICE and _all_blocked(tags2, tags1, rels)):
        return _first_clash(tags1, tags2, rels)
    return None


def _order(group: DeonticGroup) -> tuple:
    """A group's place in the search, its ``sort_key``, then its kind and
    its tags sorted.  No two groups share a place, so a sort never compares
    what follows."""
    return group.sort_key(), group.kind, sorted(group.tags, key=DeonticTag.sort_key)


def iter_group_conflicts(groups: frozenset, rels: ConflictRelations):
    """All clashes between distinct groups, in deterministic order."""
    ordered = sorted(map(_order, groups))
    for i, (_, kind1, tags1) in enumerate(ordered):
        for _, kind2, tags2 in ordered[i + 1 :]:
            clash = _pair_clash(kind1, tags1, kind2, tags2, rels)
            if clash is not None:
                yield clash


def search_conflicts(groups: frozenset, rels: ConflictRelations) -> Clash | None:
    """First clash between the deontic groups of one state, if any."""
    return next(iter_group_conflicts(groups, rels), None)


def clash_free_tag_count(spec: ContractSpec) -> int | None:
    """How many distinct tags the contract can ever expose (see
    ``decompose.exposed_tags``) when no two of them can clash, else None.

    A state clashes only through two tags that clash, equal tags in two
    groups included, so a count means the contract is conflict-free.  Each
    new tag is tested against the tags that can clash with it: a
    prohibition against obligations and permissions on its action, and
    those against prohibitions on their action and against each other
    across a declared pair.  The walk stops at the first tag that can clash.
    """
    rels = spec.conflicts
    partners: dict[ActionName, list[ActionName]] = {}
    for pair in rels.global_pairs | rels.relativized_pairs:
        for a in pair:  # a pair declared as (a, a) holds one action
            partners.setdefault(a, []).extend(pair - {a} or pair)
    seen: set[DeonticTag] = set()
    forbidden: dict[ActionName, list[DeonticTag]] = {}  # prohibitions by action
    demanded: dict[ActionName, list[DeonticTag]] = {}  # obligations and permissions
    for tag in exposed_tags(*spec.clauses):
        if tag in seen:
            continue
        seen.add(tag)
        action = tag.action
        if tag.op is _F:
            forbidden.setdefault(action, []).append(tag)
            rivals = demanded.get(action, [])
        else:
            # Filed first, so that a declared (a, a) tests the tag itself.
            demanded.setdefault(action, []).append(tag)
            rivals = forbidden.get(action, [])
            for b in partners.get(action, ()):
                rivals = rivals + demanded.get(b, [])
        for other in rivals:
            if tags_conflict(tag, other, rels) is not None:
                return None
    return len(seen)


# ---------------------------------------------------------------------------
# Whole-contract verdicts


class VerdictKind(Enum):
    CONFLICT_FREE = "conflict-free"
    CONFLICTS = "conflicts"
    INCONCLUSIVE = "inconclusive"


class ConflictReport(NamedTuple):
    state: int
    kind: ConflictKind
    left: DeonticTag
    right: DeonticTag
    trace: tuple[TraceStep, ...]
    left_clause: str
    right_clause: str


class Verdict(NamedTuple):
    """``reason`` says why an inconclusive check stopped, or that a
    conflict-free one was decided before any automaton was built."""

    kind: VerdictKind
    reports: tuple[ConflictReport, ...] = ()
    reason: str = ""

    @property
    def is_conflict_free(self) -> bool:
        return self.kind is VerdictKind.CONFLICT_FREE

    @property
    def has_conflicts(self) -> bool:
        return self.kind is VerdictKind.CONFLICTS


class CheckOutcome(NamedTuple):
    """A verdict together with the automaton that produced it."""

    verdict: Verdict
    automaton: ContractAutomaton


def render_tag(tag: DeonticTag) -> str:
    """A tag as the clause text it stands for, e.g. ``{c,b}O(pay)``."""
    return f"{_render_rel(tag.rel)}{tag.op.value}({tag.action})"


def run_check(spec: ContractSpec, options: BuildOptions = BuildOptions()) -> CheckOutcome:
    """Decide a contract: conflict-free at once when no two of its tags can
    clash (see ``clash_free_tag_count``), else by ``build_check``.

    A check decided early builds nothing and carries an automaton without
    states; ``construct`` builds the whole one.
    """
    tags = clash_free_tag_count(spec)
    if tags is None:
        return build_check(spec, options)
    automaton = ContractAutomaton((), ())
    reason = f"decided before building the automaton: no two of its {tags} deontic tags can clash"
    return CheckOutcome(Verdict(VerdictKind.CONFLICT_FREE, reason=reason), automaton)


def build_check(spec: ContractSpec, options: BuildOptions = BuildOptions()) -> CheckOutcome:
    """Build the automaton while searching every state for conflicts.

    By default the construction stops at the first conflicting state;
    under ``options.complete`` the whole reachable space is explored and
    every conflicting state is reported, ordered by trace length and state
    id, each trace the ``trace_to`` of its state, all found by one
    breadth-first search.  Exhausted budgets yield an inconclusive verdict
    over the partial automaton.  The automaton's ``conflict_states`` are the
    states reported.  Each state's clash is ``search_conflicts`` of its
    ``deontic_tags``.  A build makes each distinct top-level conjunct's
    group, each group's search record and each pair of groups' verdict
    once; a state that holds fewer than two groups makes no record.
    """
    rels = spec.conflicts
    clashes: dict[int, Clash] = {}
    group_of = _Memo(_group).__getitem__
    serial = count()  # not len(records): that would make a reference cycle
    records = _Memo(lambda group: (*_order(group), next(serial))).__getitem__
    verdicts: dict[int, Clash | None] = {}  # serial << 32 | later serial -> clash

    def on_state(sid: int, formula: Formula) -> bool:
        groups = set(filter(None, map(group_of, conjuncts(formula))))
        if len(groups) < 2:
            return False
        ordered = sorted(map(records, groups))
        for i, (_, kind1, tags1, n1) in enumerate(ordered):
            n1 <<= 32
            for _, kind2, tags2, n2 in ordered[i + 1 :]:
                pair = n1 | n2
                if pair not in verdicts:
                    verdicts[pair] = _pair_clash(kind1, tags1, kind2, tags2, rels)
                clash = verdicts[pair]
                if clash is not None:
                    clashes[sid] = clash
                    return not options.complete
        return False

    automaton = construct(spec, options, on_state)._replace(conflict_states=frozenset(clashes))
    traces = _traces(automaton, clashes) if clashes else {}
    reports = tuple(sorted(
        (ConflictReport(sid, kind, left, right, traces[sid],
                        render_tag(left), render_tag(right))
         for sid, (left, right, kind) in clashes.items()),
        key=lambda r: (len(r.trace), r.state)))
    if automaton.exhausted:
        verdict = Verdict(VerdictKind.INCONCLUSIVE, reports, automaton.exhausted)
    elif reports:
        verdict = Verdict(VerdictKind.CONFLICTS, reports)
    else:
        verdict = Verdict(VerdictKind.CONFLICT_FREE)
    return CheckOutcome(verdict, automaton)


def check(spec: ContractSpec, options: BuildOptions = BuildOptions()) -> Verdict:
    return run_check(spec, options).verdict
