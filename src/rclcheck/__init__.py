"""Conflict checking for multi-party RCL contracts.

The toolkit parses contracts written in the RCL text format, builds a
decomposition automaton, and searches its states for deontic conflicts:
obligation against prohibition, prohibition against permission, and
pre-defined conflicting action pairs, all sensitive to who performs what
for whom.
"""

from .automaton import (
    BuildOptions,
    ContractAutomaton,
    SpecialLabel,
    TraceStep,
    Transition,
    construct,
    enumerate_action_sets,
    export_dot,
    relativized_universe,
    relevant_universe,
    trace_to,
)
from .conflicts import (
    CheckOutcome,
    Clash,
    ConflictKind,
    ConflictReport,
    Verdict,
    VerdictKind,
    check,
    iter_group_conflicts,
    run_check,
    search_conflicts,
    tags_conflict,
)
from .decompose import (
    DeonticGroup,
    DeonticOp,
    DeonticTag,
    GroupKind,
    RelativizedAction,
    deontic_tags,
    prepare,
    rewrite_compound,
)
from .formula import (
    BOTTOM,
    GLOBAL,
    ONE,
    TOP,
    ZERO,
    And,
    Atom,
    Bottom,
    Choice,
    Concurrent,
    ConflictRelations,
    ContractSpec,
    Dynamic,
    Formula,
    Negation,
    Obligation,
    OneAction,
    Permission,
    Prohibition,
    Relativization,
    Sequence,
    Star,
    Top,
    XChoice,
    ZeroAction,
    canonicalize,
    conj,
    directed,
    extract_alphabet,
    performer,
    xchoice,
)
from .generator import generate
from .bench import BenchGroup, bench, write_csv
from .oracle import OracleResult, oracle_verdict, satisfies
from .parser import (
    ParseDiagnostic,
    ParseResult,
    RclSyntaxError,
    parse,
    parse_or_raise,
    render,
    render_action,
    render_formula,
)

__version__ = "0.1.0"
