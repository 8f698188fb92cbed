"""Text format for RCL contracts.

A contract file is an optional pre-defined conflict header followed by
clauses, each terminated by ``;``::

    conflict {
        global { (a, b), (c, d) };
        relativized { (e, f), (e, a) };
    };
    [e]({j,k}O(f) ^ P(a) ^ {k}[a.b]({i,j}O(e&f)));
    {j,i}F(c) _/{j}O(d)/_ ^ P(b);

Operators: ``^`` conjunction, ``(+)`` clause choice, ``&`` concurrency,
``.`` sequence, ``+`` action choice, ``!a`` negation and ``b*`` iteration
(triggers only), ``0``/``1`` special actions, ``_/ ... /_`` reparation,
``{i}``/``{i,j}`` relativizations, ``//`` line comments.  Whitespace is
insignificant outside identifiers.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

from .formula import (
    GLOBAL,
    TOP,
    BOTTOM,
    ActionExpr,
    And,
    Atom,
    Choice,
    Concurrent,
    ConflictRelations,
    ContractSpec,
    Dynamic,
    Formula,
    Negation,
    Obligation,
    ONE,
    OneAction,
    Permission,
    Prohibition,
    Relativization,
    Sequence,
    Star,
    Top,
    Bottom,
    XChoice,
    ZERO,
    ZeroAction,
    conj,
    xchoice,
)

KEYWORDS = frozenset({"conflict", "global", "relativized", "O", "P", "F", "true", "false"})

# Deepest nesting a clause may have.  Parenthesized formulas, dynamic bodies
# and reparations each open one level, and so does every link of an action
# chain (``.``, ``&``, ``+``, ``*``), which builds a tree as deep as it is
# long; every layer after the parser walks those trees recursively.
MAX_DEPTH = 100


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" or "warning"
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass
class ParseResult:
    spec: ContractSpec | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.spec is not None

    @property
    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]


class RclSyntaxError(Exception):
    """Raised by ``parse_or_raise`` when the input has errors."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(NamedTuple):
    kind: str
    value: str
    offset: int


# One pass of ``finditer`` over alternatives tried in order at each offset:
# whitespace and ``//`` comments, the marks (longest first), words, and any
# other single character, which is an error.
_SCANNER = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*)"
    r"|(?P<punct>\(\+\)|_/|/_|[{}()\[\],;^&.+!*01])"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str, report: Callable[[str, int], None]) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _SCANNER.finditer(text):
        group, value = match.lastgroup, match.group()
        if group == "punct":
            tokens.append(_Token(value, value, match.start()))
        elif group == "word":
            kind = value if value in KEYWORDS else "ident"
            tokens.append(_Token(kind, value, match.start()))
        elif group == "bad":
            report(f"unknown token {value!r}", match.start())
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _found(tok: _Token) -> str:
    return repr(tok.value) if tok.kind != "eof" else "end of input"


# ---------------------------------------------------------------------------
# Parser


class _ParseAbort(Exception):
    """Internal: unwinds to the clause loop for resynchronization."""


class _Parser:
    def __init__(self, text: str, diagnostics: list[ParseDiagnostic]):
        self.text = text
        self.diagnostics = diagnostics
        self.tokens = _tokenize(text, partial(self.diagnose, "error"))
        self.pos = 0
        self.depth = 0

    # -- diagnostics -------------------------------------------------------

    @cached_property
    def newlines(self) -> list[int]:
        return [i for i, ch in enumerate(self.text) if ch == "\n"]

    def diagnose(self, severity: str, message: str, offset: int) -> None:
        """Record a diagnostic at ``offset``; its line and column (from 1,
        counting characters) are worked out here, from the newlines."""
        line = bisect_left(self.newlines, offset)
        column = offset - (self.newlines[line - 1] if line else -1)
        self.diagnostics.append(ParseDiagnostic(severity, line + 1, column, message))

    def error(self, message: str, tok: _Token | None = None) -> None:
        self.diagnose("error", message, (tok or self.peek()).offset)
        raise _ParseAbort

    def warn(self, message: str, tok: _Token) -> None:
        self.diagnose("warning", message, tok.offset)

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what or repr(kind)}, found {_found(tok)}", tok)
        return self.advance()

    def descend(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels", tok)

    def nested(self, tok: _Token, parse, *args):
        """Run ``parse(*args)`` one nesting level deeper."""
        self.descend(tok)
        result = parse(*args)
        self.depth -= 1
        return result

    def chain(self, op: str, build, operand, trigger: bool) -> ActionExpr:
        """A left-nested chain of ``operand`` joined by ``op``."""
        depth = self.depth
        left = operand(trigger)
        while (tok := self.accept(op)) is not None:
            self.descend(tok)
            left = build(left, operand(trigger))
        self.depth = depth
        return left

    def resync(self) -> None:
        # Skip to just past the next clause terminator.
        while self.peek().kind not in (";", "eof"):
            self.advance()
        self.accept(";")

    # -- file structure ----------------------------------------------------

    def parse_file(self) -> ContractSpec | None:
        conflicts = ConflictRelations()
        if self.peek().kind == "conflict":
            try:
                conflicts = self.parse_conflict_header()
            except _ParseAbort:
                self.resync()
        clauses: list[Formula] = []
        while self.peek().kind != "eof":
            try:
                clauses.append(self.parse_clause())
            except _ParseAbort:
                self.resync()
        if not clauses and not self.diagnostics:
            self.diagnose("error", "contract has no clauses", 0)
        if any(d.severity == "error" for d in self.diagnostics):
            return None
        return ContractSpec.from_clauses(clauses, conflicts)

    def parse_conflict_header(self) -> ConflictRelations:
        self.expect("conflict")
        self.expect("{")
        global_pairs: list[tuple[str, str]] = []
        relativized_pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while self.peek().kind in ("global", "relativized"):
            section = self.advance()
            if section.kind in seen:
                self.error(f"duplicate {section.kind!r} section", section)
            seen.add(section.kind)
            target = global_pairs if section.kind == "global" else relativized_pairs
            self.expect("{")
            if self.peek().kind != "}":
                target.append(self.parse_pair())
                while self.accept(","):
                    target.append(self.parse_pair())
            self.expect("}")
            self.expect(";")
        self.expect("}")
        self.expect(";")
        return ConflictRelations.make(global_pairs, relativized_pairs)

    def parse_pair(self) -> tuple[str, str]:
        self.expect("(")
        a = self.expect("ident", "an action name").value
        self.expect(",")
        b = self.expect("ident", "an action name").value
        self.expect(")")
        return (a, b)

    def parse_clause(self) -> Formula:
        self.depth = 0  # an aborted clause leaves it raised
        formula = self.parse_formula()
        self.expect(";", "';' after a clause")
        return formula

    # -- formulas ------------------------------------------------------------

    def parse_formula(self) -> Formula:
        first = self.parse_conjunction()
        if self.peek().kind != "(+)":
            return first
        branches = [first]
        while True:
            tok = self.accept("(+)")
            if tok is None:
                break
            branches.append(self.parse_conjunction())
            self.check_choice_operand(branches[-2], tok)
            self.check_choice_operand(branches[-1], tok)
        families = {self.choice_family(b) for b in branches}
        if len(families) > 1:
            self.error("clause choice cannot mix obligations and permissions",
                       self.tokens[self.pos - 1])
        return xchoice(*branches)

    def check_choice_operand(self, branch: Formula, tok: _Token) -> None:
        if self.choice_family(branch) is None:
            self.error("clause choice applies only to obligation or permission clauses", tok)

    def choice_family(self, branch: Formula) -> str | None:
        """'O' or 'P' when every deontic leaf matches; None otherwise."""
        ops: set[str] = set()
        stack = [branch]
        while stack:
            f = stack.pop()
            if isinstance(f, Obligation):
                ops.add("O")
            elif isinstance(f, Permission):
                ops.add("P")
            elif isinstance(f, (And, XChoice)):
                stack.extend(f.children)
            else:
                return None
        if len(ops) == 1:
            return ops.pop()
        return None

    def parse_conjunction(self) -> Formula:
        parts = [self.parse_primary()]
        while self.accept("^"):
            parts.append(self.parse_primary())
        return conj(*parts)

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "true":
            self.advance()
            return TOP
        if tok.kind == "false":
            self.advance()
            return BOTTOM
        if tok.kind == "(":
            self.advance()
            inner = self.nested(tok, self.parse_formula)
            self.expect(")")
            return inner
        rel = GLOBAL
        if tok.kind == "{":
            rel = self.parse_relativization()
            tok = self.peek()
        if tok.kind in ("O", "P", "F"):
            return self.parse_deontic(rel)
        if tok.kind == "[":
            return self.parse_dynamic(rel)
        self.error(f"expected a clause, found {_found(tok)}", tok)
        raise AssertionError("unreachable")

    def parse_relativization(self) -> Relativization:
        open_tok = self.expect("{")
        names = [self.expect("ident", "an individual").value]
        while self.accept(","):
            names.append(self.expect("ident", "an individual").value)
        self.expect("}")
        if len(names) > 2:
            self.error("a relativization names at most two individuals", open_tok)
        if len(names) == 2 and names[0] == names[1]:
            self.warn(f"self-directed relativization {{{names[0]},{names[1]}}}", open_tok)
        return Relativization(*names)

    def parse_deontic(self, rel: Relativization) -> Formula:
        op = self.advance()
        self.expect("(")
        action = self.parse_action(trigger=False)
        self.expect(")")
        reparation: Formula | None = None
        rep_tok = self.accept("_/")
        if rep_tok is not None:
            reparation = self.nested(rep_tok, self.parse_formula)
            self.expect("/_", "'/_' closing the reparation")
        if op.kind == "O":
            return Obligation(rel, action, reparation)
        if op.kind == "F":
            return Prohibition(rel, action, reparation)
        if reparation is not None:
            self.error("permissions cannot carry a reparation", rep_tok)
        return Permission(rel, action)

    def parse_dynamic(self, rel: Relativization) -> Formula:
        self.expect("[")
        trigger = self.parse_action(trigger=True)
        close = self.expect("]")
        # ``[a](C)``: the parentheses belong to the modality, one level.
        if self.accept("("):
            body = self.nested(close, self.parse_formula)
            self.expect(")")
        else:
            body = self.nested(close, self.parse_primary)
        return Dynamic(rel, trigger, body)

    # -- action expressions --------------------------------------------------

    def parse_action(self, trigger: bool) -> ActionExpr:
        return self.chain("+", Choice, self.parse_action_seq, trigger)

    def parse_action_seq(self, trigger: bool) -> ActionExpr:
        return self.chain(".", Sequence, self.parse_action_conc, trigger)

    def parse_action_conc(self, trigger: bool) -> ActionExpr:
        return self.chain("&", Concurrent, self.parse_action_unary, trigger)

    def parse_action_unary(self, trigger: bool) -> ActionExpr:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            if not trigger:
                self.error("negation is allowed only in dynamic triggers", tok)
            inner = self.parse_action_atom(trigger)
            if not isinstance(inner, (Atom, ZeroAction, OneAction)):
                self.error("negation applies to a single action", tok)
            expr: ActionExpr = Negation(inner)
        else:
            expr = self.parse_action_atom(trigger)
        depth = self.depth
        while (star_tok := self.accept("*")) is not None:
            if not trigger:
                self.error("iteration is allowed only in dynamic triggers", star_tok)
            self.descend(star_tok)
            expr = Star(expr)
        self.depth = depth
        return expr

    def parse_action_atom(self, trigger: bool) -> ActionExpr:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return Atom(tok.value)
        if tok.kind == "0":
            self.advance()
            return ZERO
        if tok.kind == "1":
            self.advance()
            return ONE
        if tok.kind == "(":
            self.advance()
            inner = self.nested(tok, self.parse_action, trigger)
            self.expect(")")
            return inner
        self.error(f"expected an action, found {_found(tok)}", tok)
        raise AssertionError("unreachable")


def parse(text: str) -> ParseResult:
    """Parse contract text; errors leave ``spec`` unset in the result."""
    diagnostics: list[ParseDiagnostic] = []
    spec = _Parser(text, diagnostics).parse_file()
    if any(d.severity == "error" for d in diagnostics):
        spec = None
    return ParseResult(spec, diagnostics)


def parse_or_raise(text: str) -> ContractSpec:
    result = parse(text)
    if result.spec is None:
        raise RclSyntaxError(result.errors)
    return result.spec


# ---------------------------------------------------------------------------
# Rendering

_CHOICE_PREC, _SEQ_PREC, _CONC_PREC, _UNARY_PREC = 0, 1, 2, 3


def render_action(expr: ActionExpr, _parent: int = 0) -> str:
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, ZeroAction):
        return "0"
    if isinstance(expr, OneAction):
        return "1"
    if isinstance(expr, Negation):
        return "!" + render_action(expr.inner, _UNARY_PREC)
    if isinstance(expr, Star):
        return render_action(expr.inner, _UNARY_PREC) + "*"
    ops = {Choice: ("+", _CHOICE_PREC), Sequence: (".", _SEQ_PREC), Concurrent: ("&", _CONC_PREC)}
    op, prec = ops[type(expr)]
    text = f"{render_action(expr.left, prec)}{op}{render_action(expr.right, prec + 1)}"
    if prec < _parent:
        return f"({text})"
    return text


def _render_rel(rel: Relativization) -> str:
    if rel.is_global:
        return ""
    if rel.is_performer:
        return "{%s}" % rel.sender
    return "{%s,%s}" % (rel.sender, rel.receiver)


_XCH_PREC, _AND_PREC, _PRIMARY_PREC = 0, 1, 2


def render_formula(formula: Formula, _parent: int = 0) -> str:
    if isinstance(formula, Top):
        return "true"
    if isinstance(formula, Bottom):
        return "false"
    if isinstance(formula, (Obligation, Permission, Prohibition)):
        op = {Obligation: "O", Permission: "P", Prohibition: "F"}[type(formula)]
        text = f"{_render_rel(formula.rel)}{op}({render_action(formula.action)})"
        if not isinstance(formula, Permission) and formula.reparation is not None:
            text += f" _/{render_formula(formula.reparation)}/_"
        return text
    if isinstance(formula, Dynamic):
        body = render_formula(formula.body)
        return f"{_render_rel(formula.rel)}[{render_action(formula.trigger)}]({body})"
    if isinstance(formula, And):
        text = " ^ ".join(render_formula(c, _PRIMARY_PREC) for c in formula.children)
        return f"({text})" if _parent > _AND_PREC else text
    if isinstance(formula, XChoice):
        text = " (+) ".join(render_formula(c, _AND_PREC) for c in formula.children)
        return f"({text})" if _parent > _XCH_PREC else text
    raise TypeError(f"not a formula: {formula!r}")


def render(spec: ContractSpec) -> str:
    """Canonical text for a contract; ``parse`` maps it back to an equal spec."""
    lines: list[str] = []
    conflicts = spec.conflicts
    if not conflicts.is_empty:
        lines.append("conflict {")
        for name, pairs in (("global", conflicts.global_pairs),
                            ("relativized", conflicts.relativized_pairs)):
            if not pairs:
                continue
            rendered = sorted("(%s, %s)" % (min(p), max(p)) for p in pairs)
            lines.append(f"    {name} {{ {', '.join(rendered)} }};")
        lines.append("};")
    for clause in spec.clauses:
        lines.append(render_formula(clause) + ";")
    return "\n".join(lines) + "\n"
