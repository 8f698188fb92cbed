"""Contract automaton construction.

States are canonical residual contracts; transitions carry the concurrent
relativized-action set performed in one step.  Construction is a
deterministic depth-first exploration: at each state the candidate action
sets are enumerated largest-first over a pruned universe (the actions the
current residual's leaf tests can match; see ``relevant_universe``), the
residual for each set is computed, and structurally equal residuals are
shared.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Iterator

from .decompose import (
    RelativizedAction,
    decompose,
    deontic_tags,
    prepare,
)
from .formula import (
    ActionName,
    And,
    Atom,
    Bottom,
    ContractSpec,
    Dynamic,
    Formula,
    Individual,
    Negation,
    OneAction,
    Relativization,
    Top,
    XChoice,
)


class SpecialLabel(Enum):
    """Self-loop markers on satisfied and violated states."""

    TOP_LOOP = "true"
    VIOLATION_LOOP = "false"


Label = frozenset | SpecialLabel


@dataclass(frozen=True)
class Transition:
    source: int
    label: Label
    target: int


@dataclass(frozen=True)
class BuildOptions:
    """Construction knobs.

    ``complete`` keeps exploring past the first conflict; ``no_pruning``
    enumerates subsets of the full relativized-action universe instead of
    the per-state relevant one.  The state and transition budgets turn
    runaway instances into an explicit out-of-budget outcome instead of an
    open-ended run; ``time_limit`` (in seconds) does the same on the wall
    clock for benchmark runs.
    """

    complete: bool = False
    no_pruning: bool = False
    max_states: int = 200_000
    max_transitions: int = 500_000
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")


@dataclass(frozen=True)
class ContractAutomaton:
    formulas: tuple[Formula, ...]
    deontic: tuple[frozenset, ...]
    transitions: tuple[Transition, ...]
    individuals: frozenset[Individual]
    initial: int = 0
    violation: int | None = None
    conflict_states: frozenset[int] = frozenset()

    @property
    def n_states(self) -> int:
        return len(self.formulas)

    def formula_of(self, state: int) -> Formula:
        return self.formulas[state]

    def deontic_of(self, state: int) -> frozenset:
        return self.deontic[state]


class BudgetExceeded(Exception):
    """Construction ran out of budget; carries the partial automaton."""

    def __init__(self, reason: str, automaton: ContractAutomaton):
        super().__init__(reason)
        self.reason = reason
        self.automaton = automaton


# ---------------------------------------------------------------------------
# Action universes


def relativized_universe(
    individuals: frozenset[Individual], actions: frozenset[ActionName]
) -> frozenset:
    """Full sender x action x receiver product."""
    return frozenset(
        RelativizedAction(s, a, r)
        for s in individuals
        for a in actions
        for r in individuals
    )


def action_set_count(universe_size: int) -> int:
    """Number of nonempty concurrent action sets, computed symbolically."""
    return 2**universe_size - 1


def _compatible(
    rel: Relativization, action: ActionName, individuals: frozenset[Individual]
) -> Iterator[RelativizedAction]:
    if rel.is_global:
        for s in individuals:
            for r in individuals:
                yield RelativizedAction(s, action, r)
    elif rel.is_performer:
        for r in individuals:
            yield RelativizedAction(rel.sender, action, r)
    else:
        yield RelativizedAction(rel.sender, action, rel.receiver)


def relevant_universe(
    formula: Formula,
    individuals: frozenset[Individual],
    actions: frozenset[ActionName] = frozenset(),
) -> frozenset:
    """Relativized actions that decide the next step of a normal-form formula.

    The formula must be in step normal form (see ``prepare``).  A residual
    depends only on which of the formula's leaf tests a step makes true.
    Each unguarded deontic operator and each dynamic trigger (a negated one
    through its inner action) tests one basic action and adds the actions
    compatible with its relativization; bodies and reparations are not
    tested before the step and add nothing.  Any step T then makes the same
    atomic tests true as its part inside the result, so the subsets of the
    result give every outcome but one: a nonempty T that meets none of it.
    Only a wildcard test (``[1]``, or ``[!1]`` from ``O(1)``) tells that
    step from the empty one, so when a wildcard is present one spare action
    stands for all such steps: the least one of the ``individuals`` x
    ``actions`` universe left out of the result, if there is one.
    """
    out: set[RelativizedAction] = set()
    wildcard = False
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, XChoice)):
            stack.extend(f.children)
            continue
        if isinstance(f, (Top, Bottom)):
            continue
        test = f.trigger if isinstance(f, Dynamic) else f.action
        if isinstance(test, Negation):
            test = test.inner
        if isinstance(test, Atom):
            out.update(_compatible(f.rel, test.name, individuals))
        elif isinstance(test, OneAction):
            wildcard = True
    if wildcard:
        spare = relativized_universe(individuals, actions) - out
        if spare:
            out.add(min(spare))
    return frozenset(out)


def enumerate_action_sets(
    formula: Formula,
    individuals: frozenset[Individual],
    options: BuildOptions = BuildOptions(),
    actions: frozenset[ActionName] = frozenset(),
) -> Iterator[frozenset]:
    """Candidate concurrent action sets for one state, largest first.

    With pruning (the default) the universe is restricted to the actions
    that decide the formula's next step (see ``relevant_universe``);
    without it, it is the full universe over ``actions``.  Ties within a
    size class follow the serialization order of the sorted universe.  The
    empty set is always produced, last.
    """
    if options.no_pruning:
        universe = sorted(relativized_universe(individuals, actions))
    else:
        universe = sorted(relevant_universe(formula, individuals, actions))
    for size in range(len(universe), 0, -1):
        for subset in combinations(universe, size):
            yield frozenset(subset)
    yield frozenset()


# ---------------------------------------------------------------------------
# Construction

OnState = Callable[[int, Formula, frozenset], bool]


class _HaltBuild(Exception):
    pass


class _Budget(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def construct(
    spec: ContractSpec,
    options: BuildOptions = BuildOptions(),
    on_state: OnState | None = None,
) -> ContractAutomaton:
    """Build the automaton of a contract by repeated decomposition.

    ``on_state`` runs on every state as soon as it is labelled, before its
    successors are explored; returning True marks the state as conflicting
    and, unless ``options.complete`` is set, halts the construction there.
    Raises ``BudgetExceeded`` (with the partial automaton attached) when a
    budget runs out.
    """
    individuals = spec.effective_individuals
    deadline = None
    if options.time_limit is not None:
        deadline = time.monotonic() + options.time_limit

    formulas: list[Formula] = []
    groups: list[frozenset] = []
    transitions: list[Transition] = []
    state_ids: dict[Formula, int] = {}
    conflict_states: set[int] = set()
    violation: int | None = None

    def snapshot() -> ContractAutomaton:
        return ContractAutomaton(
            formulas=tuple(formulas),
            deontic=tuple(groups),
            transitions=tuple(transitions),
            individuals=individuals,
            violation=violation,
            conflict_states=frozenset(conflict_states),
        )

    def add_transition(source: int, label: Label, target: int) -> None:
        if len(transitions) >= options.max_transitions:
            raise _Budget(f"transition budget of {options.max_transitions} exhausted")
        transitions.append(Transition(source, label, target))

    stack: list[tuple[int, Iterator[frozenset]]] = []

    def new_state(formula: Formula) -> int:
        if len(formulas) >= options.max_states:
            raise _Budget(f"state budget of {options.max_states} exhausted")
        sid = len(formulas)
        state_ids[formula] = sid
        formulas.append(formula)
        groups.append(deontic_tags(formula))
        return sid

    def visit(sid: int) -> None:
        # The conflict callback runs first; satisfied and violated
        # residuals become self-looping sinks, everything else gets its
        # action sets enumerated and is explored depth-first.
        nonlocal violation
        formula = formulas[sid]
        if on_state is not None and on_state(sid, formula, groups[sid]):
            conflict_states.add(sid)
            if not options.complete:
                raise _HaltBuild
        if isinstance(formula, Top):
            add_transition(sid, SpecialLabel.TOP_LOOP, sid)
        elif isinstance(formula, Bottom):
            violation = sid
            add_transition(sid, SpecialLabel.VIOLATION_LOOP, sid)
        else:
            stack.append(
                (sid, enumerate_action_sets(formula, individuals, options, spec.actions))
            )

    try:
        root = prepare(spec.root())
        visit(new_state(root))
        while stack:
            if deadline is not None and time.monotonic() > deadline:
                raise _Budget(f"time limit of {options.time_limit}s exhausted")
            sid, sets = stack[-1]
            step = next(sets, None)
            if step is None:
                stack.pop()
                continue
            residual = prepare(decompose(formulas[sid], step, individuals, spec.actions))
            target = state_ids.get(residual)
            if target is not None:
                add_transition(sid, step, target)
                continue
            target = new_state(residual)
            add_transition(sid, step, target)
            visit(target)
    except _HaltBuild:
        pass
    except _Budget as exc:
        raise BudgetExceeded(exc.reason, snapshot()) from None
    return snapshot()


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class TraceStep:
    """One stop along a path: the state, and the label plus transition
    index that led into it (absent on the initial state)."""

    state: int
    label: Label | None = None
    via: int | None = None


def trace_to(automaton: ContractAutomaton, state: int) -> tuple[TraceStep, ...]:
    """One shortest path from the initial state, by breadth-first search."""
    if not (0 <= state < automaton.n_states):
        raise ValueError(f"no such state: {state}")
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for idx, tr in enumerate(automaton.transitions):
        adjacency.setdefault(tr.source, []).append((idx, tr.target))
    parents: dict[int, tuple[int, int]] = {}  # state -> (parent, transition idx)
    seen = {automaton.initial}
    queue = deque([automaton.initial])
    while queue and state not in seen:
        source = queue.popleft()
        for idx, target in adjacency.get(source, ()):
            if target not in seen:
                seen.add(target)
                parents[target] = (source, idx)
                queue.append(target)
    if state not in seen:
        raise ValueError(f"state s{state} is unreachable from s{automaton.initial}")
    path: list[TraceStep] = []
    cursor = state
    while cursor != automaton.initial:
        parent, idx = parents[cursor]
        path.append(TraceStep(cursor, automaton.transitions[idx].label, idx))
        cursor = parent
    path.append(TraceStep(automaton.initial))
    path.reverse()
    return tuple(path)


# ---------------------------------------------------------------------------
# DOT export


def render_label(label: Label) -> str:
    if isinstance(label, SpecialLabel):
        return label.value
    return "{%s}" % ",".join(repr(a) for a in sorted(label))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(automaton: ContractAutomaton, verbose: bool = False) -> str:
    """Graphviz rendering: violation double-circled, conflicts filled gray."""
    from .parser import render_formula

    lines = ["digraph contract {", "    rankdir=LR;"]
    for sid in range(automaton.n_states):
        label = f"s{sid}"
        if verbose:
            label += "\\n" + _dot_escape(render_formula(automaton.formulas[sid]))
        attrs = [f'label="{label}"']
        if sid == automaton.violation:
            attrs.append("shape=doublecircle")
        else:
            attrs.append("shape=circle")
        if sid in automaton.conflict_states:
            attrs.append("style=filled")
            attrs.append("fillcolor=gray")
        lines.append(f"    s{sid} [{', '.join(attrs)}];")
    for tr in automaton.transitions:
        label = _dot_escape(render_label(tr.label))
        lines.append(f'    s{tr.source} -> s{tr.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
