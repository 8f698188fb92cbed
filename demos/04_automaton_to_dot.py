"""Exporting a contract automaton to Graphviz DOT.

Run from the repository root:  python3 demos/04_automaton_to_dot.py > out.dot
(then e.g. `dot -Tpng out.dot -o out.png` wherever Graphviz is installed)
"""
import sys

from rclcheck import check, construct, export_dot, parse_or_raise

# A small two-stage contract: after the request, payment is owed but
# refunds are forbidden until the goods went out.
text = """
{b,s}[request](
    {b,s}O(pay)
    ^ {b,s}[pay]({s,b}O(ship))
);
{s,b}[!ship*]({s,b}F(refund));
"""

spec = parse_or_raise(text)
# No two of these tags can clash, so the check decides the contract without
# building anything; construct builds the automaton to draw.
print("verdict:", check(spec).kind.value, file=sys.stderr)
automaton = construct(spec)
print("states:", automaton.n_states, file=sys.stderr)

# Plain mode labels states s0, s1, ...; verbose mode inlines each state's
# residual contract, which is handy for small automata like this one.
sys.stdout.write(export_dot(automaton, verbose=True))
