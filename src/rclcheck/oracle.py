"""Brute-force semantics used as an independent test oracle.

``satisfies`` evaluates the trace satisfaction relation directly on a pair
of action and deontic traces.  ``oracle_verdict`` searches for conflicting
states by re-decomposing the contract from the root along every bounded
trace, with none of the automaton machinery (no state sharing, no
witness steps, no early construction stop): each residual steps over every
subset of ``relevant_universe`` of its step table.
"""
from __future__ import annotations

from functools import partial
from itertools import product
from typing import NamedTuple

from .automaton import _subsets, _universe
from .conflicts import Clash, search_conflicts
from .decompose import (
    DeonticOp,
    DeonticTag,
    _apply,
    _leaf,
    _table,
    deontic_tags,
    prepare,
    trigger_matched,
)
from .formula import (
    BOTTOM,
    And,
    Atom,
    Bottom,
    ContractSpec,
    Dynamic,
    Formula,
    Individual,
    Negation,
    Obligation,
    Permission,
    Prohibition,
    Top,
    XChoice,
)

ActionTrace = tuple  # of frozenset[RelativizedAction]
DeonticTrace = tuple  # of frozenset[DeonticTag]


def _splits(tags: frozenset):
    """All pairs (left, right) with left | right == tags."""
    members = sorted(tags, key=DeonticTag.sort_key)
    for assign in product((0, 1, 2), repeat=len(members)):
        left = frozenset(m for m, a in zip(members, assign) if a != 1)
        right = frozenset(m for m, a in zip(members, assign) if a != 0)
        yield left, right


def _dynamic_holds(
    f: Dynamic,
    sigma: ActionTrace,
    sigma_d: DeonticTrace,
    individuals: frozenset[Individual],
) -> bool:
    step = sigma[0]
    trig = f.trigger
    if isinstance(trig, Negation):
        if trigger_matched(f.rel, trig.inner, step, individuals):
            return True
        return satisfies(sigma[1:], sigma_d[1:], f.body, individuals)
    matched = trigger_matched(f.rel, trig, step, individuals)
    if matched:
        return satisfies(sigma[1:], sigma_d[1:], f.body, individuals)
    if f.rel.is_global and isinstance(trig, Atom):
        # A partially performed global trigger satisfies neither arm: the
        # rule demands all performers or none.
        if any(a.action == trig.name for a in step):
            return False
    return True


def satisfies(
    sigma: ActionTrace,
    sigma_d: DeonticTrace,
    formula: Formula,
    individuals: frozenset[Individual],
) -> bool:
    """Direct evaluation of the trace satisfaction relation.

    Mismatched trace lengths never satisfy; the breached contract is never
    satisfied; otherwise empty traces satisfy everything.  Conjunctions
    split the deontic trace as a pointwise union, obligations require
    their tag at the head of the deontic trace plus either a matching
    performance or a trace satisfying the reparation, dynamic modalities
    check only the action trace, and prohibitions behave as the dynamic
    modality guarding their reparation.
    """
    sigma = tuple(sigma)
    sigma_d = tuple(sigma_d)
    if len(sigma) != len(sigma_d):
        return False
    formula = prepare(formula)
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Top):
        return True
    if not sigma:
        return True
    if isinstance(formula, And):
        rest = formula.children[1:]
        right_formula = rest[0] if len(rest) == 1 else And(rest)
        for tags_by_pos in _position_splits(sigma_d):
            left_d = tuple(t[0] for t in tags_by_pos)
            right_d = tuple(t[1] for t in tags_by_pos)
            if satisfies(sigma, left_d, formula.children[0], individuals) and satisfies(
                sigma, right_d, right_formula, individuals
            ):
                return True
        return False
    if isinstance(formula, XChoice):
        return any(satisfies(sigma, sigma_d, c, individuals) for c in formula.children)
    if isinstance(formula, Permission):
        return True
    if isinstance(formula, Obligation):
        tag = DeonticTag(formula.rel, DeonticOp.OBLIGATION, formula.action.name)
        if tag not in sigma_d[0]:
            return False
        if trigger_matched(formula.rel, formula.action, sigma[0], individuals):
            return True
        reparation = formula.reparation if formula.reparation is not None else BOTTOM
        return satisfies(sigma[1:], sigma_d[1:], reparation, individuals)
    if isinstance(formula, Prohibition):
        reparation = formula.reparation if formula.reparation is not None else BOTTOM
        return _dynamic_holds(
            Dynamic(formula.rel, formula.action, reparation), sigma, sigma_d, individuals
        )
    if isinstance(formula, Dynamic):
        return _dynamic_holds(formula, sigma, sigma_d, individuals)
    raise TypeError(f"not a formula: {formula!r}")


def _position_splits(sigma_d: DeonticTrace):
    """Cross product of per-position splits of the deontic trace."""
    if not sigma_d:
        yield ()
        return
    for head in _splits(sigma_d[0]):
        for tail in _position_splits(sigma_d[1:]):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Exhaustive conflict search


class OracleResult(NamedTuple):
    conflict: bool
    trace: tuple | None = None  # action sets leading to the clash
    clash: Clash | None = None

    @property
    def is_conflict_free(self) -> bool:
        return not self.conflict


_MAX_INDIVIDUALS = 3
_MAX_ACTIONS = 3
_MAX_LEN = 4


def oracle_verdict(spec: ContractSpec, max_len: int = 4) -> OracleResult:
    """Search for a conflicting residual by plain re-decomposition.

    Every action trace up to ``max_len`` over the per-residual relevant
    actions (plus the empty step) is tried depth-first from the root; each
    residual's deontic groups are searched for a clash.  Only practical on
    small alphabets; bounds are enforced.  A residual steps the way a
    ``-n`` state does (``BuildOptions(no_pruning=True)``): it is compiled
    once into its step table, with bodies and reparations prepared, and
    ``_apply`` takes it through every subset of its ``relevant_universe``,
    in ``-n``'s order.

    The engine's enumerator, one witness step per cube of a state's leaf
    tests, is not the oracle's, and neither is the universe: the engine
    never reads ``relevant_universe``, and ``_cubes`` picks a true
    wildcard's spare action by its own rule, the least action that makes
    no test fixed false true.  What the oracle does share with the engine
    is ``_table``, ``prepare``, ``deontic_tags`` and ``search_conflicts``.
    """
    individuals = spec.effective_individuals
    if len(individuals) > _MAX_INDIVIDUALS or len(spec.actions) > _MAX_ACTIONS:
        raise ValueError("instance too large for exhaustive search")
    if max_len > _MAX_LEN:
        raise ValueError(f"trace bound {max_len} exceeds {_MAX_LEN}")

    done: dict[Formula, int] = {}

    def explore(formula: Formula, remaining: int, prefix: tuple) -> OracleResult | None:
        clash = search_conflicts(deontic_tags(formula), spec.conflicts)
        if clash is not None:
            return OracleResult(True, prefix, clash)
        if remaining == 0 or isinstance(formula, (Top, Bottom)):
            return None
        if done.get(formula, -1) >= remaining:
            return None
        done[formula] = remaining
        table = _table(formula, partial(_leaf, prepare))
        for step in _subsets(_universe(table[2], individuals, spec.actions)):
            found = explore(_apply(table, step, individuals), remaining - 1, prefix + (step,))
            if found is not None:
                return found
        return None

    found = explore(prepare(spec.root()), max_len, ())
    return found if found is not None else OracleResult(False)
