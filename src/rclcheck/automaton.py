"""Contract automaton construction.

States are canonical residual contracts; transitions carry the concurrent
relativized-action set performed in one step.  Construction is a
deterministic depth-first exploration.  A residual depends only on which of
its state's leaf tests a step makes true, often on only some of them, so a
state gets one transition per cube of those tests (as a symbolic automaton
labels transitions with predicates, not minterms), found by a lazy Shannon
expansion of its step table (see ``_cubes``).  A transition's label is one
witness step, the least step that realizes its cube.  Cubes are built as
they are drawn, so the budgets bound the work however many a state has.
"""
from __future__ import annotations

import time
from collections import deque
from enum import Enum
from functools import partial
from itertools import chain, combinations, product, starmap
from typing import Callable, Iterator, NamedTuple

from .decompose import (
    _NEVER,
    _WILDCARD,
    RelativizedAction,
    _apply,
    _group,
    _leaf,
    _table,
    decompose,  # the per-step reference the tables reproduce; perfbench traces it here
    deontic_tags,  # what a state's groups equal; perfbench traces it here
    prepare,
    prepare_exposed,
)
from .formula import (BOTTOM, ActionName, And, Bottom, ContractSpec, Formula, Individual, Top,
                      conjuncts, join)


class SpecialLabel(Enum):
    """Self-loop markers on satisfied and violated states."""

    TOP_LOOP = "true"
    VIOLATION_LOOP = "false"


Label = frozenset | SpecialLabel


class Transition(NamedTuple):
    source: int
    label: Label
    target: int


class _BuildOptions(NamedTuple):
    complete: bool
    no_pruning: bool
    max_states: int
    max_transitions: int
    time_limit: float | None


class BuildOptions(_BuildOptions):
    """Construction knobs; a bad value raises ``ValueError``.

    ``complete`` keeps exploring past the first conflict.  ``no_pruning``
    is the concrete reference mode: every subset of the full
    relativized-action universe is a step, instead of one witness step per
    cube of a state's leaf tests.  The state and transition budgets (whole
    numbers of at least 1; ``max_transitions`` counts one transition per
    cube, or per subset under ``no_pruning``) turn runaway instances into an
    explicit out-of-budget outcome; ``time_limit`` (finite seconds above 0,
    or ``None``) does the same on the wall clock.
    """

    __slots__ = ()

    def __new__(cls, complete: bool = False, no_pruning: bool = False,
                max_states: int = 200_000, max_transitions: int = 500_000,
                time_limit: float | None = None) -> BuildOptions:
        for name, budget in (("max_states", max_states), ("max_transitions", max_transitions)):
            if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
                raise ValueError(f"{name} must be a whole number of at least 1")
        if time_limit is not None and (
                not isinstance(time_limit, (int, float)) or isinstance(time_limit, bool)
                or not 0 < time_limit < float("inf")):  # nan fails both comparisons
            raise ValueError("time_limit must be a finite number of seconds above 0")
        return tuple.__new__(cls, (complete, no_pruning, max_states, max_transitions, time_limit))

    @classmethod
    def _make(cls, iterable) -> BuildOptions:
        # ``_replace`` builds through here, so it validates too.
        return cls(*iterable)


class ContractAutomaton(NamedTuple):
    """State s is the residual ``formulas[s]``, and state 0 is the initial
    one.  ``violation`` is the ``false`` state, if the build reached it.
    ``exhausted`` says which budget stopped the build and how far it got,
    or is empty.  ``conflict_states`` holds what a check found;
    ``construct`` leaves it empty."""

    formulas: tuple[Formula, ...]
    transitions: tuple[Transition, ...]
    violation: int | None = None
    conflict_states: frozenset[int] = frozenset()
    exhausted: str = ""

    @property
    def n_states(self) -> int:
        return len(self.formulas)


# ---------------------------------------------------------------------------
# Action universes


def relativized_universe(
    individuals: frozenset[Individual], actions: frozenset[ActionName]
) -> frozenset:
    """Full sender x action x receiver product."""
    return frozenset(starmap(RelativizedAction, product(individuals, actions, individuals)))


def _matching(key, individuals: frozenset[Individual]) -> list[RelativizedAction]:
    """The actions that make a leaf test (see ``decompose._test``) true on
    their own, or, for a global test, together."""
    if type(key) is RelativizedAction:
        return [key]
    senders, name = ((key[0],), key[1]) if type(key) is tuple else (individuals, key)
    return [RelativizedAction(s, name, r) for s in senders for r in individuals]


def _spare(taken: Callable[[tuple], bool], individuals: frozenset, actions: frozenset) -> frozenset:
    """The least action of the ``individuals`` x ``actions`` universe that
    is not ``taken``, as a singleton, or nothing when there is none."""
    for action in product(sorted(individuals), sorted(actions), sorted(individuals)):
        if not taken(action):
            return frozenset({RelativizedAction(*action)})
    return frozenset()


def relevant_universe(
    formula: Formula,
    individuals: frozenset[Individual],
    actions: frozenset[ActionName] = frozenset(),
) -> frozenset:
    """Relativized actions that decide the next step of a normal-form formula.

    A residual depends only on which of the formula's leaf tests a step
    makes true, and only through the tests a step can change: the keys of
    its step table's index (see ``decompose._table``), compiled as the
    engine compiles a state, so a leaf whose outcomes normalise to one
    object reads nothing.  Each test adds the actions that match its key
    (see ``_matching``), so any step T makes the same atomic tests true as
    its part inside the result, and the subsets of the result give every
    outcome but one: a nonempty T that meets none of it.  Only a wildcard
    test tells that step from the empty one, so when a wildcard is present
    one spare action stands for all such steps: the least one of the
    ``individuals`` x ``actions`` universe that no test matches, if there
    is one.
    """
    return _universe(_table(formula, partial(_leaf, prepare_exposed))[2], individuals, actions)


def _universe(index: dict, individuals: frozenset, actions: frozenset) -> frozenset:
    """``relevant_universe`` of a step table's test index."""
    tested = frozenset(a for key in index if type(key) is not bool
                       for a in _matching(key, individuals))
    if _WILDCARD in index:
        return tested | _spare(tested.__contains__, individuals, actions)
    return tested


def _cubes(
    table: tuple, individuals: frozenset[Individual], actions: frozenset[ActionName]
) -> Iterator[tuple[frozenset, Formula, dict]]:
    """``(witness, residual, {test key: outcome})`` for each satisfiable cube.

    A lazy Shannon expansion of a step table (see ``decompose._table``):
    decide the leaves no step changes, then fix one open leaf test at a
    time, true side first, in one fixed order (by name; within a name
    directed keys, then performers, then the global test; the wildcard
    last), and fold each decided leaf up the spine until the root, the
    residual, is decided.  Spine nodes count their undecided children and a
    trail undoes counts, values and tests on backtrack, so a split costs
    about as much as the leaves that read its test.  A global test reads
    only the rows ``(sender, name)`` that a directed or performer key of its
    name names: any other sender can always perform the name or idle.  The
    witness is the least step that realizes the cube: the cell of each true
    directed test, one action of each other row that must perform, and for
    a true wildcard alone the least action that keeps every fixed test.  A
    true global test's actions for the rows no key names are the same on
    every path, ``(sender, name, least individual)``, so they are built
    once per state.
    """
    order = sorted(individuals)
    nodes, parent, readers = table
    left = [len(node[1]) if len(node) == 2 else 0 for node in nodes]  # undecided children
    value: list = [None] * len(nodes)  # each decided node's value, else None
    trail: list = []  # n: value[n] was set; ~n: left[n] fell; a test key: it was fixed

    def decide(n: int, v: Formula) -> None:
        value[n] = v
        trail.append(n)
        p = parent[n]
        while p >= 0 and value[p] is None:
            kind, kids = nodes[p]
            if type(v) is not (Bottom if kind is And else Top):  # not absorbing
                left[p] -= 1
                trail.append(~p)
                if left[p]:
                    return
                v = join(kind, [value[c] for c in kids])
            value[p] = v
            trail.append(p)
            p = parent[p]

    def live(n: int) -> bool:
        while n >= 0 and value[n] is None:
            n = parent[n]
        return n < 0

    for n in readers.get(_NEVER, ()):
        decide(n, nodes[n][2])
    keys = sorted((key for key in readers if type(key) is not bool),
                  key=lambda k: (k, 2) if type(k) is str else (k[1], type(k) is tuple, k))
    fixed: dict = {}  # the cube: test key -> outcome
    cells: dict = {}  # (sender, name) -> how many of its row's cells are fixed [false, true]
    parts: dict = {}  # true test key -> the actions it adds to the witness
    shares: dict = {}  # global name -> (rows its other keys name, the other rows' witness)
    if str in map(type, keys):
        named: dict = {}  # name -> the senders its directed and performer keys name
        for key in keys:  # a name's global key sorts after its other keys
            if type(key) is not str:
                named.setdefault(key[1], set()).add(key[0])
                continue
            tested = named.get(key, ())
            shares[key] = ([(s, key) for s in order if s in tested],
                           [RelativizedAction(s, key, order[0]) for s in order if s not in tested])
    if _WILDCARD in readers:
        keys.append(_WILDCARD)
        names = actions.union(key if type(key) is str else key[1] for key in keys[:-1])
        spare = partial(_spare, lambda a: fixed.get(a) is False or fixed.get(a[:2]) is False
                        or len(order) == 1 and fixed.get(a[1]) is False, individuals, names)

    def performing(rows: list[tuple]) -> list[RelativizedAction]:
        # One action for each row without a true cell: its least cell not fixed false.
        return [RelativizedAction(*row, next(r for r in order if fixed.get((*row, r)) is not False)
                                  if cells.get(row, (0, 0))[0] else order[0])
                for row in rows if not cells.get(row, (0, 0))[1]]

    def fix(key, v: bool) -> bool:
        # Decide the leaves that read a test, unless its name's fixed tests
        # cannot then all hold: by the key order, a check sees all of them.
        if key is _WILDCARD and (True in fixed.values() if not v else
                                 True not in fixed.values() and not spare()):
            return False  # false with a true test, or true with no action left to take
        fixed[key] = v
        trail.append(key)
        if type(key) is RelativizedAction:
            cells.setdefault(key[:2], [0, 0])[v] += 1
        elif type(key) is tuple:  # a performer
            false, true = cells.get(key, (0, 0))
            if false == len(order) if v else true:
                return False  # every cell of its row false, or one true
        elif type(key) is str:  # a global test: every sender can perform, or one may idle
            rows, idle = shares[key]  # a sender of no row can always perform or idle
            if v and any(fixed.get(row) is False or cells.get(row, (0, 0))[0] == len(order)
                         for row in rows):
                return False  # a sender cannot perform
            if not (v or idle) and all(fixed.get(row) or cells.get(row, (0, 0))[1] for row in rows):
                return False  # every sender performs
        if v and key is not _WILDCARD:  # every other key of its name is fixed or shut
            parts[key] = ((key,) if type(key) is RelativizedAction else performing([key])
                          if type(key) is tuple else performing(rows) + idle)
        for n in readers[key]:
            decide(n, nodes[n][1] if v else nodes[n][2])
            if value[0] is not None:
                break
        return True

    todo = [(0, len(trail), None)]  # (key index, trail mark, outcome to fix first)
    while todo:
        i, mark, v = todo.pop()
        for n in reversed(trail[mark:]):
            if type(n) is not int:
                if type(n) is RelativizedAction:
                    cells[n[:2]][fixed[n]] -= 1
                del fixed[n]
                parts.pop(n, None)
            elif n < 0:
                left[~n] += 1
            else:
                value[n] = None
        del trail[mark:]
        if v is not None:
            if not fix(keys[i], v):
                continue
            i += 1
        if value[0] is not None:
            step = frozenset(chain.from_iterable(parts.values()))
            yield step if step or not fixed.get(_WILDCARD) else spare(), value[0], dict(fixed)
            continue
        # Liveness only falls along a path: a key once shut stays shut.
        while not any(map(live, readers[keys[i]])):
            i += 1
        todo += (i, len(trail), False), (i, len(trail), True)


def enumerate_action_sets(
    formula: Formula,
    individuals: frozenset[Individual],
    options: BuildOptions = BuildOptions(),
    actions: frozenset[ActionName] = frozenset(),
    leaf: Callable[[Formula], tuple] = partial(_leaf, prepare),
) -> Iterator[tuple[frozenset, Formula, dict | None]]:
    """The transitions of one state, as lazy ``(step, residual, cube)``.

    The state is compiled into its step table (see ``decompose._table``),
    each leaf's record made by ``leaf``.  The default puts bodies and
    reparations through ``prepare``, so a residual is
    ``prepare(decompose(formula, step))``.  There is one item per
    satisfiable cube of the state's leaf tests (see ``_cubes``), or, under
    ``options.no_pruning``, the concrete reference: every subset of the
    full universe over ``actions`` (cube ``None``), in ``_subsets`` order.
    """
    table = _table(formula, leaf)
    if not options.no_pruning:
        return _cubes(table, individuals, actions)
    return ((step, _apply(table, step, individuals), None)
            for step in _subsets(relativized_universe(individuals, actions)))


def _subsets(universe: frozenset) -> Iterator[frozenset]:
    """Every subset of ``universe``, largest first, then in ``combinations``
    order of the sorted universe."""
    ordered = sorted(universe)
    return chain.from_iterable(map(frozenset, combinations(ordered, size))
                               for size in range(len(ordered), -1, -1))


# ---------------------------------------------------------------------------
# Construction

OnState = Callable[[int, Formula, frozenset], bool]


_MISSING = object()


def _by_identity(fn: Callable) -> Callable:
    """``fn``, computed once per argument object.  Every argument is kept,
    so an id is never reused while the function lives."""
    records: dict[int, object] = {}
    kept: list = []

    def once(x):
        record = records.get(id(x), _MISSING)
        if record is _MISSING:
            record = records[id(x)] = fn(x)
            kept.append(x)
        return record

    return once


def construct(
    spec: ContractSpec,
    options: BuildOptions = BuildOptions(),
    on_state: OnState | None = None,
) -> ContractAutomaton:
    """Build the automaton of a contract by repeated decomposition.

    A state's transitions come from ``enumerate_action_sets``, looked up
    when the state is visited.  Each leaf object's step-table record, and
    each exposed body and reparation, is made once per construction.  The
    root is prepared whole, so every state is canonical all the way down,
    and an exposed body or reparation needs only ``prepare_exposed``: its
    rewrite, joined at its top level.  Every action of a step is checked
    against the alphabet the first time a step holds it.
    ``on_state`` runs on every state with its deontic groups, before its
    successors are explored; returning True halts the construction there.
    States are labelled only for ``on_state``, from the groups of their
    top-level conjuncts, each conjunct object labelled once per
    construction, so a conjunct that states share hands them one group
    object.  The automaton built so far is returned whether the build
    finished, halted or ran out of a budget, which ``exhausted`` then
    names; every state but the first is entered by a transition.
    """
    individuals = spec.effective_individuals
    checked: set = set()  # actions of drawn steps, all inside the alphabet
    prepared: dict[Formula, Formula] = {}

    def prepare_once(formula: Formula) -> Formula:
        return prepared.get(formula) or prepared.setdefault(formula, prepare_exposed(formula))

    leaf_once = _by_identity(partial(_leaf, prepare_once))
    group_once = _by_identity(_group)
    deadline = None if options.time_limit is None else time.monotonic() + options.time_limit

    formulas: list[Formula] = []
    transitions: list[Transition] = []
    state_ids: dict[Formula, int] = {}
    stack: list[tuple[int, Iterator[tuple]]] = []

    def visit(formula: Formula) -> bool:
        # Add a state; True when the callback halts the build there.
        # Satisfied and violated residuals get a self-loop, everything
        # else its cubes, explored depth-first.
        sid = state_ids[formula] = len(formulas)
        formulas.append(formula)
        if on_state is not None and on_state(
                sid, formula, frozenset(filter(None, map(group_once, conjuncts(formula))))):
            return True
        if isinstance(formula, (Top, Bottom)):
            loop = SpecialLabel.TOP_LOOP if isinstance(formula, Top) else SpecialLabel.VIOLATION_LOOP
            stack.append((sid, iter([(loop, formula, None)])))
        else:
            stack.append((sid, enumerate_action_sets(formula, individuals, options,
                                                     spec.actions, leaf_once)))
        return False

    exhausted = ""
    visit(prepare(spec.root()))  # a halt here pushes nothing
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            exhausted = f"time limit of {options.time_limit}s"
            break
        sid, successors = stack[-1]
        item = next(successors, None)
        if item is None:
            stack.pop()
            continue
        step, residual, _ = item
        if type(step) is frozenset and not step <= checked:
            outside = sorted(a for a in step - checked if a[0] not in individuals
                             or a[1] not in spec.actions or a[2] not in individuals)
            if outside:
                raise ValueError(f"step outside the alphabet: {outside!r}")
            checked |= step
        target = state_ids.get(residual)
        if target is None and len(formulas) >= options.max_states:
            exhausted = f"state budget of {options.max_states}"
            break
        if len(transitions) >= options.max_transitions:
            exhausted = f"transition budget of {options.max_transitions}"
            break
        transitions.append(Transition(sid, step, len(formulas) if target is None else target))
        if target is None and visit(residual):
            break
    if exhausted:
        exhausted += f" exhausted after {len(formulas)} states and {len(transitions)} transitions"
    return ContractAutomaton(tuple(formulas), tuple(transitions), state_ids.get(BOTTOM),
                             exhausted=exhausted)


# ---------------------------------------------------------------------------
# Traces


class TraceStep(NamedTuple):
    """One stop along a path: the state, and the label plus transition
    index that led into it (absent on the initial state)."""

    state: int
    label: Label | None = None
    via: int | None = None


def trace_to(automaton: ContractAutomaton, state: int) -> tuple[TraceStep, ...]:
    """One shortest path from state 0, by breadth-first search."""
    if not (0 <= state < automaton.n_states):
        raise ValueError(f"no such state: {state}")
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for idx, tr in enumerate(automaton.transitions):
        adjacency.setdefault(tr.source, []).append((idx, tr.target))
    parents: dict[int, tuple[int, int]] = {}  # state -> (parent, transition idx)
    seen = {0}
    queue = deque([0])
    while queue and state not in seen:
        source = queue.popleft()
        for idx, target in adjacency.get(source, ()):
            if target not in seen:
                seen.add(target)
                parents[target] = (source, idx)
                queue.append(target)
    if state not in seen:
        raise ValueError(f"state s{state} is unreachable from s0")
    path: list[TraceStep] = []
    cursor = state
    while cursor:
        parent, idx = parents[cursor]
        path.append(TraceStep(cursor, automaton.transitions[idx].label, idx))
        cursor = parent
    path.append(TraceStep(0))
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
