"""Contract automaton construction.

States are canonical residual contracts; transitions carry the concurrent
relativized-action set performed in one step.  Construction is a
deterministic depth-first exploration.  A residual depends only on which of
its state's leaf tests a step makes true, so each state gets one step per
satisfiable valuation of those tests (the minterms of a symbolic automaton),
built from the tests alone and holding only the actions the valuation
needs.  The steps are a lazy product of the state's independent parts (see
``_witnesses``), built as they are drawn, so the state and transition
budgets bound the work however many valuations or parts a state has.  Each
state is compiled once into a step table (see ``decompose._table``) whose
exposed bodies and reparations are already in step normal form, prepared
once per construction; a step's residual is read off that table with one
lookup per leaf test, and structurally equal residuals are shared.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from typing import Callable, Iterator

from .decompose import (
    RelativizedAction,
    _apply,
    _leaf_tests,
    _table,
    decompose,  # the per-step reference the tables reproduce; perfbench traces it here
    deontic_tags,
    prepare,
)
from .formula import ActionName, Bottom, ContractSpec, Formula, Individual, Top, join


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

    ``complete`` keeps exploring past the first conflict.  ``no_pruning``
    is the concrete reference mode: every subset of the full
    relativized-action universe is a step, instead of one witness step per
    valuation of a state's leaf tests.  The state and transition budgets
    turn runaway instances into an explicit out-of-budget outcome instead
    of an open-ended run; ``max_transitions`` counts one transition per
    valuation (per subset under ``no_pruning``).  ``time_limit`` (in
    seconds) does the same on the wall clock for benchmark runs.
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


def _matching(key, individuals: frozenset[Individual]) -> Iterator[RelativizedAction]:
    """The actions that make a leaf test (see ``decompose._test``) true on
    their own, or, for a global test, together."""
    if type(key) is RelativizedAction:
        yield key
    elif type(key) is tuple:  # a performer's (sender, name)
        for r in individuals:
            yield RelativizedAction(*key, r)
    else:  # a global test's name
        for s in individuals:
            for r in individuals:
                yield RelativizedAction(s, key, r)


def _spare(
    tests: dict, individuals: frozenset[Individual], actions: frozenset[ActionName]
) -> frozenset:
    """The least action of the ``individuals`` x ``actions`` universe that
    no test reads, as a singleton, or nothing when there is none.  A test
    reads an action when its key is the action itself, the action's
    ``(sender, name)`` or the action's name."""
    for action in product(sorted(individuals), sorted(actions), sorted(individuals)):
        keys = tests.get(action[1], ())
        if action not in keys and action[:2] not in keys and action[1] not in keys:
            return frozenset({RelativizedAction(*action)})
    return frozenset()


def relevant_universe(
    formula: Formula,
    individuals: frozenset[Individual],
    actions: frozenset[ActionName] = frozenset(),
) -> frozenset:
    """Relativized actions that decide the next step of a normal-form formula.

    A residual depends only on which of the formula's leaf tests (see
    ``decompose._leaf_tests``) a step makes true.  Each test adds the
    actions that match its key (see ``_matching``), so any step T makes the
    same atomic tests true as its part inside the result, and the subsets
    of the result give every outcome but one: a nonempty T that meets none
    of it.  Only a wildcard test tells that step from the empty one, so
    when a wildcard is present one spare action stands for all such steps:
    the least one of the ``individuals`` x ``actions`` universe that no
    test reads (see ``_spare``), if there is one.  Actions only
    permissions mention are not in the result.
    """
    tests, wildcard = _leaf_tests(formula)
    tested = frozenset(a for keys in tests.values() for key in keys
                       for a in _matching(key, individuals))
    return tested | _spare(tests, individuals, actions) if wildcard else tested


def _subsets(actions: list) -> Iterator[frozenset]:
    """Every subset of sorted ``actions``, in ``combinations`` order."""
    for size in range(len(actions), -1, -1):
        for subset in combinations(actions, size):
            yield frozenset(subset)


def _row_steps(row: list, toggled: set, performer: bool) -> list[frozenset]:
    """One sender's steps on one name, given its row of actions in receiver
    order: each nonempty subset of the row's directed cells, largest first;
    then, with no directed test true, the row's least action without one,
    which performs the name, and for a performer test the empty row (the
    empty row alone when every cell is directed).  The last step has all
    of the row's tests false."""
    steps = list(_subsets([a for a in row if a in toggled]))
    untested = next((a for a in row if a not in toggled), None)
    if untested is not None:
        steps[-1] = frozenset({untested})
        if performer:
            steps.append(frozenset())
    return steps


def _global_steps(rows: list[list]) -> Iterator[frozenset]:
    """A name with a global test, from the row steps of every individual.

    Each choice of row steps (one per individual, in sorted order, the last
    moving fastest) yields its step, which makes the global test true when
    every row performs and false when one row is empty.  A choice whose
    rows all perform then yields the same step without its last free row,
    one whose row step has all its tests false, which makes the global
    test false.
    """
    for parts in product(*rows):
        step = frozenset().union(*parts)
        yield step
        if all(parts):
            free = [part for row, part in zip(rows, parts) if part is row[-1]]
            if free:
                yield step - free[-1]


def _product(parts: list[Iterator[frozenset]]) -> Iterator[frozenset]:
    """The union of one step from each part, for every choice of steps,
    the last part moving fastest.  Every part has at least one step.

    An odometer: each part is read as far as the choices need and kept, so
    that it can start over, and a loop rather than recursion carries the
    turn from one part to the one before it, however many parts there are.
    """
    read = [[next(part)] for part in parts]
    index = [0] * len(parts)
    while True:
        yield frozenset().union(*(steps[i] for steps, i in zip(read, index)))
        j = len(parts) - 1
        while j >= 0:
            index[j] += 1
            if index[j] < len(read[j]):
                break
            step = next(parts[j], None)
            if step is not None:
                read[j].append(step)
                break
            index[j] = 0
            j -= 1
        else:
            return


def _witnesses(
    tests: dict,
    wildcard: bool,
    individuals: frozenset[Individual],
    actions: frozenset[ActionName],
) -> Iterator[frozenset]:
    """One step per satisfiable valuation of a state's leaf tests, built
    from their keys alone (see ``decompose._leaf_tests``).

    Each name's keys split by type into directed cells, the senders of
    performer tests and a global test.  A step holds only what its valuation
    needs: the cell of each true directed test, and one action of each row
    that must perform a name for a true performer or global test.  The steps
    are the lazy product (see ``_product``) of the state's independent
    parts: each name with a global test (see ``_global_steps``), the row of
    each sender with a performer test (see ``_row_steps``), and the cells of
    the other directed tests, free to come and go, in ``combinations``
    order.  Rows are built from the sorted individuals only for performer
    and global tests.  So a state whose only tests are directed ones gets
    every subset of their cells, in ``combinations`` order.  When a wildcard
    is tested, the spare action (see ``_spare``) stands in for the step that
    would otherwise be empty, and the empty step comes last.
    """
    order = sorted(individuals)
    toggles, parts = [], []
    for name, keys in tests.items():
        toggled, performers, global_test = set(), set(), False
        for key in keys:
            if type(key) is RelativizedAction:
                toggled.add(key)
            elif type(key) is tuple:
                performers.add(key[0])
            else:
                global_test = True
        rows = [_row_steps([RelativizedAction(sender, name, r) for r in order], toggled,
                           sender in performers)
                for sender in (order if global_test else sorted(performers))]
        if global_test:
            parts.append(_global_steps(rows))
        else:
            parts.extend(map(iter, rows))
            toggles.extend(a for a in toggled if a.sender not in performers)
    if toggles:
        parts.append(_subsets(sorted(toggles)))
    spare = _spare(tests, individuals, actions) if wildcard else frozenset()
    for step in parts[0] if len(parts) == 1 else _product(parts):
        if step or not wildcard:
            yield step
        elif spare:
            yield spare
    if wildcard:
        yield frozenset()


def enumerate_action_sets(
    formula: Formula,
    individuals: frozenset[Individual],
    options: BuildOptions = BuildOptions(),
    actions: frozenset[ActionName] = frozenset(),
) -> Iterator[frozenset]:
    """Candidate concurrent action sets for one state.

    By default there is one set per satisfiable valuation of the formula's
    leaf tests (see ``_witnesses``), holding only the actions that
    valuation needs.  The sets are built as they are drawn, so a budget
    stops the walk whatever the number of valuations.  Under
    ``options.no_pruning`` it is the concrete reference instead: every
    subset of the full universe over ``actions``, largest first, then in
    the serialization order of the sorted universe.  Either way a set that
    is produced empty comes last.
    """
    if options.no_pruning:
        yield from _subsets(sorted(relativized_universe(individuals, actions)))
        return
    tests, wildcard = _leaf_tests(formula)
    yield from _witnesses(tests, wildcard, individuals, actions)


# ---------------------------------------------------------------------------
# Construction

OnState = Callable[[int, Formula, frozenset], bool]


def construct(
    spec: ContractSpec,
    options: BuildOptions = BuildOptions(),
    on_state: OnState | None = None,
) -> ContractAutomaton:
    """Build the automaton of a contract by repeated decomposition.

    Each state is compiled into its step table when it is visited, with
    every exposed body and reparation put through ``prepare`` once per
    construction, so a step's residual, ``prepare(decompose(state, step))``,
    is the table's leaf outcomes joined canonically (see ``formula.join``).
    Every action of a step is checked against the alphabet the first time
    a step holds it.
    ``on_state`` runs on every state as soon as it is labelled, before its
    successors are explored; returning True marks the state as conflicting
    and, unless ``options.complete`` is set, halts the construction there:
    the automaton built so far is returned.  Raises ``BudgetExceeded``
    (with the partial automaton attached) where a budget runs out.
    """
    individuals = spec.effective_individuals
    checked: set = set()  # actions of drawn steps, all inside the alphabet
    prepared: dict[Formula, Formula] = {}

    def prepare_once(formula: Formula) -> Formula:
        out = prepared.get(formula)
        if out is None:
            out = prepared[formula] = prepare(formula)
        return out

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

    def exhausted(limit: str) -> BudgetExceeded:
        reason = (f"{limit} exhausted after {len(formulas)} states"
                  f" and {len(transitions)} transitions")
        return BudgetExceeded(reason, snapshot())

    def add_transition(source: int, label: Label, target: int) -> None:
        if len(transitions) >= options.max_transitions:
            raise exhausted(f"transition budget of {options.max_transitions}")
        transitions.append(Transition(source, label, target))

    stack: list[tuple[int, Iterator[frozenset], tuple]] = []

    def new_state(formula: Formula) -> int:
        if len(formulas) >= options.max_states:
            raise exhausted(f"state budget of {options.max_states}")
        sid = len(formulas)
        state_ids[formula] = sid
        formulas.append(formula)
        groups.append(deontic_tags(formula))
        return sid

    def visit(sid: int) -> bool:
        # The conflict callback runs first, and True means it halts the
        # build; satisfied and violated residuals become self-looping
        # sinks, everything else gets its action sets enumerated and is
        # explored depth-first.
        nonlocal violation
        formula = formulas[sid]
        if on_state is not None and on_state(sid, formula, groups[sid]):
            conflict_states.add(sid)
            if not options.complete:
                return True
        if isinstance(formula, Top):
            add_transition(sid, SpecialLabel.TOP_LOOP, sid)
        elif isinstance(formula, Bottom):
            violation = sid
            add_transition(sid, SpecialLabel.VIOLATION_LOOP, sid)
        else:
            stack.append((sid, enumerate_action_sets(formula, individuals, options, spec.actions),
                          _table(formula, prepare_once)))
        return False

    halted = visit(new_state(prepare(spec.root())))
    while stack and not halted:
        if deadline is not None and time.monotonic() > deadline:
            raise exhausted(f"time limit of {options.time_limit}s")
        sid, sets, table = stack[-1]
        step = next(sets, None)
        if step is None:
            stack.pop()
            continue
        if not step <= checked:
            outside = sorted(a for a in step - checked if a[0] not in individuals
                             or a[1] not in spec.actions or a[2] not in individuals)
            if outside:
                raise ValueError(f"step outside the alphabet: {outside!r}")
            checked |= step
        residual = _apply(table, step, individuals, join)
        target = state_ids.get(residual)
        if target is not None:
            add_transition(sid, step, target)
            continue
        target = new_state(residual)
        add_transition(sid, step, target)
        halted = visit(target)
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
