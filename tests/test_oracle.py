from __future__ import annotations

import itertools

import pytest

import rclcheck.oracle
from rclcheck import (
    BOTTOM,
    GLOBAL,
    TOP,
    Atom,
    Bottom,
    DeonticOp,
    DeonticTag,
    Dynamic,
    Obligation,
    Permission,
    Prohibition,
    RelativizedAction,
    Top,
    check,
    conj,
    deontic_tags,
    directed,
    oracle_verdict,
    parse_or_raise,
    performer,
    prepare,
    relativized_universe,
    satisfies,
    search_conflicts,
)
from rclcheck.automaton import relevant_universe
from rclcheck.decompose import decompose
from rclcheck.formula import And, Formula, Prohibition as Proh, XChoice
from rclcheck.generator import generate

A, B = Atom("a"), Atom("b")
IJ = directed("i", "j")
INDS = frozenset({"i", "j"})


def ra(s, a, r):
    return RelativizedAction(s, a, r)


def otag(rel, action):
    return DeonticTag(rel, DeonticOp.OBLIGATION, action)


# ---------------------------------------------------------------------------
# satisfies


def test_empty_traces_satisfy_pending_contracts():
    for formula in (TOP, Obligation(IJ, A), Dynamic(IJ, A, BOTTOM), Permission(GLOBAL, B)):
        assert satisfies((), (), formula, INDS)


def test_breached_contract_is_never_satisfied():
    assert not satisfies((), (), BOTTOM, INDS)
    assert not satisfies((frozenset(),), (frozenset(),), BOTTOM, INDS)


def test_length_mismatch_never_satisfies():
    assert not satisfies((frozenset(), frozenset()), (frozenset(),), TOP, INDS)


def test_directed_obligation_on_a_single_step():
    f = Obligation(IJ, A)
    good_d = (frozenset({otag(IJ, "a")}),)
    assert satisfies((frozenset({ra("i", "a", "j")}),), good_d, f, INDS)
    assert not satisfies((frozenset(),), good_d, f, INDS)
    # the tag must be recorded on the deontic trace
    assert not satisfies((frozenset({ra("i", "a", "j")}),), (frozenset(),), f, INDS)
    # a different receiver does not discharge it
    assert not satisfies((frozenset({ra("i", "a", "i")}),), good_d, f, INDS)


def test_conjunction_splits_the_deontic_trace():
    f = conj(Obligation(IJ, A), Obligation(performer("j"), B))
    sigma = (frozenset({ra("i", "a", "j"), ra("j", "b", "i")}),)
    sigma_d = (frozenset({otag(IJ, "a"), otag(performer("j"), "b")}),)
    assert satisfies(sigma, sigma_d, f, INDS)


def test_choice_is_satisfied_by_any_branch():
    f = parse_or_raise("{i,j}O(a+b);").clauses[0]
    sigma = (frozenset({ra("i", "a", "j")}),)
    sigma_d = (frozenset({otag(IJ, "a"), otag(IJ, "b")}),)
    assert satisfies(sigma, sigma_d, f, INDS)
    assert not satisfies((frozenset(),), sigma_d, f, INDS)


def test_prohibition_behaves_as_a_guarded_reparation():
    f = Prohibition(IJ, A)
    sigma_hit = (frozenset({ra("i", "a", "j")}),)
    assert not satisfies(sigma_hit, (frozenset(),), f, INDS)
    assert satisfies((frozenset(),), (frozenset(),), f, INDS)


def test_satisfies_rejects_what_is_not_a_formula(monkeypatch):
    # ``prepare`` rejects it first; without it, ``satisfies`` still does.
    with pytest.raises(TypeError, match="^not a formula: "):
        satisfies((frozenset(),), (frozenset(),), A, INDS)
    monkeypatch.setattr(rclcheck.oracle, "prepare", lambda formula: formula)
    with pytest.raises(TypeError, match="^not a formula: "):
        satisfies((frozenset(),), (frozenset(),), A, INDS)


def test_global_trigger_requires_all_or_none():
    # a partially performed global trigger satisfies neither arm of the
    # rule, while decomposition treats the unfired trigger as a non-event
    f = Dynamic(GLOBAL, A, BOTTOM)
    partial = (frozenset({ra("i", "a", "i")}),)
    assert not satisfies(partial, (frozenset(),), f, INDS)
    assert decompose(f, partial[0], INDS) == TOP


# ---------------------------------------------------------------------------
# coherence with iterated decomposition


def _has_global_watch(formula: Formula) -> bool:
    """Global dynamics/prohibitions diverge on partially performed steps."""
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, XChoice)):
            stack.extend(f.children)
        elif isinstance(f, Dynamic):
            if f.rel.is_global:
                return True
            stack.append(f.body)
        elif isinstance(f, Proh):
            if f.rel.is_global:
                return True
            if f.reparation is not None:
                stack.append(f.reparation)
        elif isinstance(f, Obligation):
            if f.rel.is_global and not isinstance(f.action, Atom):
                return True
            if f.reparation is not None:
                stack.append(f.reparation)
    return False


def _flat_tags(groups):
    out = set()
    for g in groups:
        out |= g.tags
    return frozenset(out)


def test_satisfaction_matches_iterated_decomposition():
    checked = 0
    for seed in range(150):
        spec = generate(individuals=2, actions=2, clauses=1, max_depth=2, seed=seed)
        root = prepare(spec.root())
        if _has_global_watch(root):
            continue
        checked += 1
        individuals = spec.effective_individuals

        def walk(formula, sigma, sigma_d, remaining):
            if sigma:
                expected = not isinstance(formula, Bottom)
                assert satisfies(sigma, sigma_d, root, individuals) == expected, (
                    seed,
                    sigma,
                    sigma_d,
                )
            if remaining == 0 or isinstance(formula, (Top, Bottom)):
                return
            universe = sorted(relevant_universe(formula, individuals, spec.actions))
            candidates = [frozenset()]
            for size in range(1, len(universe) + 1):
                candidates.extend(
                    frozenset(c) for c in itertools.combinations(universe, size)
                )
            for step in candidates:
                residual = prepare(decompose(formula, step, individuals, spec.actions))
                walk(
                    residual,
                    sigma + (step,),
                    sigma_d + (_flat_tags(deontic_tags(formula)),),
                    remaining - 1,
                )

        walk(root, (), (), 3)
    assert checked >= 60


# ---------------------------------------------------------------------------
# oracle_verdict


def test_immediate_clash_found_at_step_zero():
    result = oracle_verdict(parse_or_raise("{i}O(a) ^ {i}F(a);"))
    assert result.conflict
    assert result.trace == ()


def test_trivial_contract_is_conflict_free():
    assert oracle_verdict(parse_or_raise("true;")).is_conflict_free


def test_choice_micro_contract_is_conflict_free():
    assert oracle_verdict(parse_or_raise("{i,j}O(a+b) ^ {i,j}F(b);")).is_conflict_free


def test_guarded_clash_needs_a_step():
    result = oracle_verdict(parse_or_raise("[a]({i}O(b) ^ {i}F(b));"))
    assert result.conflict
    assert len(result.trace) == 1


def test_bounds_are_enforced():
    big = generate(individuals=4, actions=4, clauses=2, max_depth=2, seed=0)
    with pytest.raises(ValueError):
        oracle_verdict(big)
    small = parse_or_raise("O(a);")
    with pytest.raises(ValueError):
        oracle_verdict(small, max_len=9)


def test_oracle_agrees_with_the_engine():
    for seed in range(60):
        spec = generate(individuals=2, actions=2, clauses=1 + seed % 2, max_depth=3, seed=seed)
        engine = check(spec)
        oracle = oracle_verdict(spec, max_len=4)
        assert engine.has_conflicts == oracle.conflict, seed


@pytest.mark.parametrize("n_actions, max_len", [(2, 4), (3, 3)], ids=["2x2", "2x3"])
def test_oracle_traces_replay_to_their_clash(n_actions, max_len):
    # Each conflict's trace stays inside the alphabet and the bound, and
    # stepping the root along it reaches a state whose tags clash.
    stepped = 0
    for seed in range(200):
        spec = generate(individuals=2, actions=n_actions, clauses=3, max_depth=3, seed=seed)
        result = oracle_verdict(spec, max_len=max_len)
        if not result.conflict:
            continue
        stepped += bool(result.trace)
        individuals = spec.effective_individuals
        alphabet = relativized_universe(individuals, spec.actions)
        assert len(result.trace) <= max_len
        assert all(step <= alphabet for step in result.trace)
        state = prepare(spec.root())
        for step in result.trace:
            state = prepare(decompose(state, step, individuals, spec.actions))
        assert search_conflicts(deontic_tags(state), spec.conflicts) == result.clash
    assert stepped >= 20
