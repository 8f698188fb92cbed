"""Finding (and fixing) the delivery conflict in the sales contract.

Run from the repository root:  python3 demos/03_sales_contract_conflict.py
"""
from pathlib import Path

from rclcheck import parse_or_raise, render_formula, run_check

CONTRACTS = Path(__file__).resolve().parent.parent / "contracts"

# The original contract: the carrier must deliver once the seller ships,
# but is forbidden to deliver until the seller has paid the shipping
# costs.  Nothing forces those two events into the right order.
spec = parse_or_raise((CONTRACTS / "sales-contract.rcl").read_text())
outcome = run_check(spec)
print("original verdict:", outcome.verdict.kind.value)
report = outcome.verdict.reports[0]
print("  state:  s%d" % report.state)
print("  clash:  %s  AND  %s" % (report.left_clause, report.right_clause))
print("  kind:   %s" % report.kind.value)
print("  trace:")
for step in report.trace:
    if step.label is not None:
        print("      --T%d--> %s" % (step.via, sorted(map(repr, step.label))))
    print("      s%d: %s" % (step.state, render_formula(outcome.automaton.formulas[step.state])[:100]))

# The amended contract keys both the delivery obligation and the
# carrier's internal rule to the same bank notification, so the
# prohibition is always lifted exactly when the obligation starts.
amended = parse_or_raise((CONTRACTS / "sales-contract-amended.rcl").read_text())
fixed = run_check(amended)
print()
print("amended verdict:", fixed.verdict.kind.value)
print("states explored:", fixed.automaton.n_states)
