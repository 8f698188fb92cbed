"""How a contract decomposes, one step at a time.

Run from the repository root:  python3 demos/02_decomposition_walkthrough.py
"""
from rclcheck import (
    RelativizedAction,
    deontic_tags,
    parse_or_raise,
    prepare,
    render_formula,
)
from rclcheck.decompose import decompose

spec = parse_or_raise("{i,j}O(a.b) ^ {i}[c*]({i,j}F(b));")
individuals = spec.effective_individuals

# Compound actions are rewritten away first: the sequence under the
# obligation becomes "do a now, then owe b", and the iterated trigger
# unfolds one step.
state = prepare(spec.root())
print("normal form:", render_formula(state))
print("deontic tags:")
for group in sorted(deontic_tags(state), key=lambda g: g.sort_key()):
    print("   ", group.kind.value, sorted(map(repr, group.tags)))

# Now perform steps.  Each step is a set of relativized actions; the
# residual contract is what remains to be honoured afterwards.
steps = [
    frozenset({RelativizedAction("i", "a", "j")}),
    frozenset({RelativizedAction("i", "b", "j")}),
]
for n, step in enumerate(steps, start=1):
    state = prepare(decompose(state, step, individuals, spec.actions))
    print(f"after step {n} {sorted(map(repr, step))}:")
    print("    residual:", render_formula(state))

# Doing nothing violates a pending obligation: the residual collapses to
# the breached contract.
fresh = prepare(spec.root())
breached = prepare(decompose(fresh, frozenset(), individuals, spec.actions))
print("empty step from the start:", render_formula(breached))
