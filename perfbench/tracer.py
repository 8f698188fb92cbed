"""Per-layer tracing from outside the program.

The engine looks its collaborators up as module globals at call time, so
replacing those globals with wrappers records a span around every call
into a layer without touching the engine's source.  ``Tracer.installed``
puts the wrappers in and always takes them out again.

Spans are not kept one by one: a smoke check makes hundreds of thousands
of them.  Each open span sits on a stack, so it knows its parent; when it
closes, its duration goes to its own total and to its parent's child time,
and its self time is its duration minus that child time.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (module, global name, span name).  ``rclcheck.decompose`` as a package
# attribute is the function of that name, so modules come from sys.modules.
SPANS = (
    ("rclcheck.parser", "parse", "parser.parse"),
    ("rclcheck.conflicts", "run_check", "conflicts.run_check"),
    ("rclcheck.conflicts", "construct", "automaton.construct"),
    ("rclcheck.conflicts", "search_conflicts", "conflicts.search"),
    ("rclcheck.conflicts", "trace_to", "conflicts.trace_to"),
    ("rclcheck.conflicts", "render_tag", "conflicts.render_tag"),
    ("rclcheck.automaton", "prepare", "decompose.prepare"),
    ("rclcheck.automaton", "decompose", "decompose.decompose"),
    ("rclcheck.automaton", "deontic_tags", "decompose.deontic_tags"),
    ("rclcheck.decompose", "canonicalize", "formula.canonicalize"),
    ("rclcheck.decompose", "rewrite_compound", "decompose.rewrite_compound"),
)
# Called too often to time each call; only counted.
COUNTS = (("rclcheck.decompose", "trigger_matched", "decompose.trigger_matched"),)
# Returns an iterator; each ``next()`` on it is a span.
ITERATORS = (("rclcheck.automaton", "enumerate_action_sets", "automaton.enumerate"),)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child time]

    def reset(self) -> None:
        self.calls.clear()
        self.self_time.clear()

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _span(self, fn, name: str):
        def wrapper(*args, **kwargs):
            # Recursion through the patched global (rewrite_compound) stays
            # inside the outermost span.
            if self._inside(name):
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _count(self, fn, name: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _iterator(self, fn, name: str):
        tracer = self

        class Traced:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                tracer._enter(name)
                try:
                    return next(self.inner)
                finally:
                    tracer._exit()

        def wrapper(*args, **kwargs):
            return Traced(fn(*args, **kwargs))
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for table, make in ((SPANS, self._span), (COUNTS, self._count),
                                (ITERATORS, self._iterator)):
                for module_name, attr, name in table:
                    module = sys.modules[module_name]
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
