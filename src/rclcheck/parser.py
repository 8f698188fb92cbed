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
``{i}``/``{i,j}`` relativizations, ``//`` line comments.  Space, tab, CR
and LF separate tokens and are skipped; other whitespace is an unknown token.
"""
from __future__ import annotations

import re
from itertools import islice, repeat
from typing import NamedTuple

from .formula import (
    GLOBAL,
    TOP,
    BOTTOM,
    ActionExpr,
    And,
    Atom,
    Choice,
    Concurrent,
    NO_CONFLICTS,
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


class ParseDiagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class _ParseResult(NamedTuple):
    spec: ContractSpec | None
    diagnostics: list[ParseDiagnostic]


class ParseResult(_ParseResult):
    """The contract, or ``None`` when the text has errors, and every
    diagnostic made.  Each result owns its list of diagnostics."""

    __slots__ = ()

    def __new__(cls, spec: ContractSpec | None,
                diagnostics: list[ParseDiagnostic] | None = None) -> ParseResult:
        return tuple.__new__(cls, (spec, [] if diagnostics is None else diagnostics))

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

_MARKS = ("(+)", "_/", "/_", *"{}()[],;^&.+!*01")  # longest first
# One group-free ``findall`` pass, so each match is a plain string: a
# ``//`` comment, a mark, a word, or any other single character, tried in
# that order at each offset; whitespace between matches is skipped.
# Comments and other characters are no tokens (the latter an error).
# Token offsets are not kept: a diagnostic scans again for its own.
_SCANNER = re.compile(r"//[^\n]*|\(\+\)|_/|/_|[{}()\[\],;^&.+!*01]|[A-Za-z][A-Za-z0-9_]*|[^ \t\r\n]")
# A token's kind is its text, except that a non-keyword word is "ident".
_KINDS = {t: t for t in (*_MARKS, *KEYWORDS)}

# Levels of the binary action operators, loosest first, and their nodes.
_ACTION_OPS = {"+": 0, ".": 1, "&": 2}
_ACTION_NODES = (Choice, Sequence, Concurrent)


def _found(kind: str, value: str) -> str:
    return repr(value) if kind != "eof" else "end of input"


def _choice_family(branch: Formula) -> type | None:
    """``Obligation`` or ``Permission`` when every leaf of a clause-choice
    branch is one of that kind; None otherwise."""
    kinds = set()
    stack = [branch]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, XChoice)):
            stack.extend(f.children)
        elif isinstance(f, (Obligation, Permission)):
            kinds.add(type(f))
        else:
            return None
    return kinds.pop() if len(kinds) == 1 else None


# ---------------------------------------------------------------------------
# Parser


class _ParseAbort(Exception):
    """Internal: unwinds to the clause loop for resynchronization."""


class _Parser:
    """Recursive descent over parallel token ``kinds`` and ``values``; a
    token is its index into both, and the last one is ``eof``."""

    def __init__(self, text: str, diagnostics: list[ParseDiagnostic]):
        self.text = text
        self.diagnostics = diagnostics
        self.values = _SCANNER.findall(text)
        # Matches that are neither marks nor keywords are identifiers (ASCII,
        # from a letter), and comments and unknown characters, which are
        # dropped.  ``isalpha`` alone would take ``µ`` for a letter.  Only an
        # unknown character needs a second scan, for its offset.
        self.dropped = {v for v in set(self.values).difference(_KINDS)
                        if not (v.isascii() and v[0].isalpha())}
        if self.dropped:
            self.values = [v for v in self.values if v not in self.dropped]
        if any(v[:2] != "//" for v in self.dropped):
            for match in _SCANNER.finditer(text):
                if match[0] in self.dropped and match[0][:2] != "//":
                    self.diagnose("error", f"unknown token {match[0]!r}", match.start())
        self.kinds = list(map(_KINDS.get, self.values, repeat("ident")))
        self.kinds.append("eof")
        self.values.append("")
        self.pos = 0
        self.depth = 0

    # -- diagnostics -------------------------------------------------------

    def offset(self, tok: int) -> int:
        """Token ``tok``'s offset in the text, found by scanning up to it."""
        matches = _SCANNER.finditer(self.text)
        if self.dropped:
            matches = (m for m in matches if m[0] not in self.dropped)
        match = next(islice(matches, tok, None), None)
        return len(self.text) if match is None else match.start()

    def diagnose(self, severity: str, message: str, offset: int) -> None:
        """Record a diagnostic at ``offset``; its line and column (from 1,
        counting characters) are worked out here."""
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        self.diagnostics.append(ParseDiagnostic(severity, line, column, message))

    def error(self, message: str, tok: int | None = None) -> None:
        self.diagnose("error", message, self.offset(self.pos if tok is None else tok))
        raise _ParseAbort

    def warn(self, message: str, tok: int) -> None:
        self.diagnose("warning", message, self.offset(tok))

    # -- token plumbing ----------------------------------------------------

    def accept(self, kind: str) -> int | None:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return self.pos - 1
        return None

    def expect(self, kind: str, what: str | None = None) -> int:
        tok = self.pos
        if self.kinds[tok] != kind:
            self.unexpected(what or repr(kind), tok)
        self.pos += 1
        return tok

    def unexpected(self, what: str, tok: int) -> None:
        self.pos = tok
        self.error(f"expected {what}, found {_found(self.kinds[tok], self.values[tok])}", tok)

    def descend(self, tok: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels", tok)

    def nested(self, tok: int, parse, *args):
        """Run ``parse(*args)`` one nesting level deeper."""
        self.descend(tok)
        result = parse(*args)
        self.depth -= 1
        return result

    def resync(self) -> None:
        # Skip to just past the next clause terminator.
        while self.kinds[self.pos] not in (";", "eof"):
            self.pos += 1
        self.accept(";")

    # -- file structure ----------------------------------------------------

    def parse_file(self) -> ContractSpec | None:
        conflicts = NO_CONFLICTS
        if self.kinds[self.pos] == "conflict":
            try:
                conflicts = self.parse_conflict_header()
            except _ParseAbort:
                self.resync()
        clauses: list[Formula] = []
        while self.kinds[self.pos] != "eof":
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
        while (kind := self.kinds[self.pos]) in ("global", "relativized"):
            section = self.pos
            self.pos += 1
            if kind in seen:
                self.error(f"duplicate {kind!r} section", section)
            seen.add(kind)
            target = global_pairs if kind == "global" else relativized_pairs
            self.expect("{")
            if self.kinds[self.pos] != "}":
                target.append(self.parse_pair())
                while self.accept(",") is not None:
                    target.append(self.parse_pair())
            self.expect("}")
            self.expect(";")
        self.expect("}")
        self.expect(";")
        return ConflictRelations.make(global_pairs, relativized_pairs)

    def parse_pair(self) -> tuple[str, str]:
        self.expect("(")
        a = self.values[self.expect("ident", "an action name")]
        self.expect(",")
        b = self.values[self.expect("ident", "an action name")]
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
        if self.kinds[self.pos] != "(+)":
            return first
        branches, families = [first], []
        while (tok := self.accept("(+)")) is not None:
            branches.append(self.parse_conjunction())
            for branch in branches[len(families):]:  # both operands of the first (+)
                families.append(_choice_family(branch))
                if families[-1] is None:
                    self.error("clause choice applies only to obligation or permission clauses", tok)
        if len(set(families)) > 1:
            self.error("clause choice cannot mix obligations and permissions", self.pos - 1)
        return xchoice(*branches)

    def parse_conjunction(self) -> Formula:
        first = self.parse_primary()
        if self.kinds[self.pos] != "^":
            return first
        parts = [first]
        while self.kinds[self.pos] == "^":
            self.pos += 1
            parts.append(self.parse_primary())
        return conj(*parts)

    def parse_primary(self) -> Formula:
        tok = self.pos
        kind = self.kinds[tok]
        if kind == "true":
            self.pos += 1
            return TOP
        if kind == "false":
            self.pos += 1
            return BOTTOM
        if kind == "(":
            self.pos += 1
            inner = self.nested(tok, self.parse_formula)
            self.expect(")")
            return inner
        rel = GLOBAL
        if kind == "{":
            rel = self.parse_relativization()
            tok = self.pos
            kind = self.kinds[tok]
        if kind in ("O", "P", "F"):
            return self.parse_deontic(rel)
        if kind == "[":
            return self.parse_dynamic(rel)
        self.error(f"expected a clause, found {_found(kind, self.values[tok])}", tok)
        raise AssertionError("unreachable")

    def parse_relativization(self) -> Relativization:
        kinds, values = self.kinds, self.values
        open_tok = tok = self.pos  # at '{'
        names = []
        while True:
            tok += 1
            if kinds[tok] != "ident":
                self.unexpected("an individual", tok)
            names.append(values[tok])
            tok += 1
            if kinds[tok] != ",":
                break
        if kinds[tok] != "}":
            self.unexpected("'}'", tok)
        self.pos = tok + 1
        if len(names) > 2:
            self.error("a relativization names at most two individuals", open_tok)
        if len(names) == 2 and names[0] == names[1]:
            self.warn(f"self-directed relativization {{{names[0]},{names[1]}}}", open_tok)
        return Relativization(*names)

    def parse_deontic(self, rel: Relativization) -> Formula:
        kinds = self.kinds
        tok = self.pos
        op = kinds[tok]
        if kinds[tok + 1] != "(":
            self.unexpected("'('", tok + 1)
        if kinds[tok + 2] == "ident" and kinds[tok + 3] == ")":
            # A lone action name, the usual case, needs no climb.
            action: ActionExpr = Atom(self.values[tok + 2])
            self.pos = tok + 4
        else:
            self.pos = tok + 2
            action = self.parse_action(trigger=False)
            self.expect(")")
        reparation: Formula | None = None
        rep_tok = self.pos
        if kinds[rep_tok] == "_/":
            self.pos += 1
            reparation = self.nested(rep_tok, self.parse_formula)
            self.expect("/_", "'/_' closing the reparation")
        if op == "O":
            return Obligation(rel, action, reparation)
        if op == "F":
            return Prohibition(rel, action, reparation)
        if reparation is not None:
            self.error("permissions cannot carry a reparation", rep_tok)
        return Permission(rel, action)

    def parse_dynamic(self, rel: Relativization) -> Formula:
        self.expect("[")
        trigger = self.parse_action(trigger=True)
        close = self.expect("]")
        # ``[a](C)``: the parentheses belong to the modality, one level.
        if self.accept("(") is not None:
            body = self.nested(close, self.parse_formula)
            self.expect(")")
        else:
            body = self.nested(close, self.parse_primary)
        return Dynamic(rel, trigger, body)

    # -- action expressions --------------------------------------------------

    def parse_action(self, trigger: bool) -> ActionExpr:
        """Operands joined by ``+``, ``.`` and ``&`` (loosest first), all
        left-associative, by precedence climbing in one loop.  A link opens
        one nesting level more than the links before it at its own and at
        looser levels, and the tighter levels count afresh after it.
        """
        right = self.parse_action_operand(trigger)
        if self.kinds[self.pos] not in _ACTION_OPS:
            return right
        base = self.depth
        links = [0, 0, 0]
        pending: list[tuple[int, ActionExpr]] = []  # (level, left operand)
        while (level := _ACTION_OPS.get(self.kinds[self.pos])) is not None:
            tok = self.pos
            self.pos += 1
            while pending and pending[-1][0] >= level:
                done, left = pending.pop()
                right = _ACTION_NODES[done](left, right)
            pending.append((level, right))
            links[level] += 1
            links[level + 1:] = (0,) * (2 - level)
            self.depth = base + sum(links) - 1
            self.descend(tok)
            right = self.parse_action_operand(trigger)
        while pending:
            done, left = pending.pop()
            right = _ACTION_NODES[done](left, right)
        self.depth = base
        return right

    def parse_action_operand(self, trigger: bool) -> ActionExpr:
        """An action, a parenthesized action expression, or in triggers a
        negated action, each with any trailing ``*``."""
        kinds = self.kinds
        neg = self.pos
        kind = kinds[neg]
        if kind == "!":
            self.pos += 1
            if not trigger:
                self.error("negation is allowed only in dynamic triggers", neg)
        tok = self.pos
        kind = kinds[tok]
        if kind == "ident":
            self.pos += 1
            expr: ActionExpr = Atom(self.values[tok])
        elif kind == "0":
            self.pos += 1
            expr = ZERO
        elif kind == "1":
            self.pos += 1
            expr = ONE
        elif kind == "(":
            self.pos += 1
            expr = self.nested(tok, self.parse_action, trigger)
            self.expect(")")
        else:
            self.error(f"expected an action, found {_found(kind, self.values[tok])}", tok)
        if neg != tok:
            if not isinstance(expr, (Atom, ZeroAction, OneAction)):
                self.error("negation applies to a single action", neg)
            expr = Negation(expr)
        if kinds[self.pos] == "*":
            depth = self.depth
            while (star := self.accept("*")) is not None:
                if not trigger:
                    self.error("iteration is allowed only in dynamic triggers", star)
                self.descend(star)
                expr = Star(expr)
            self.depth = depth
        return expr


def parse(text: str) -> ParseResult:
    """Parse contract text; errors leave ``spec`` unset in the result."""
    diagnostics: list[ParseDiagnostic] = []
    return ParseResult(_Parser(text, diagnostics).parse_file(), diagnostics)


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
