"""Structured trace events and consistency checkers.

When given a sink, the engine emits one event per observable step to it,
as the step happens; without one it builds no event.  Kinds:

- ``expand``: a step made a node (fields say which source: root, a
  clause, a fetched answer, a memo-look fetch, or a cut).
- ``backtrack``: a node was popped.
- ``memo``: an answer tuple reached a table (``new`` says whether it was
  kept, ``comp`` is the table's completion bit afterwards).
- ``fetch``: a cursor consumed an answer.
- ``loop-detected``: an ancestor variant was found.  ``rerun`` is always
  0, as a follower's flags are set once; the field keeps traces as they
  read before.
- ``iteration-start`` / ``iteration-end``: a top loop node began another
  evaluation pass or proved a pass produced nothing new and completed.
- ``answer``: a top-level answer was emitted.

Events hold raw values; ``format_event`` renders one per line, e.g.
``EVENT kind=expand node=4 parent=3 source=clause clause=reach1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Const, Struct, Var, format_term, format_tuple

__all__ = [
    "TraceEvent",
    "event",
    "format_event",
    "check_stack_discipline",
    "check_clause_skip",
]

KINDS = (
    "expand",
    "backtrack",
    "memo",
    "fetch",
    "loop-detected",
    "iteration-start",
    "iteration-end",
    "answer",
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    kind: str
    fields: tuple[tuple[str, object], ...]

    def get(self, name: str, default=None):
        for k, v in self.fields:
            if k == name:
                return v
        return default


def event(kind: str, **fields) -> TraceEvent:
    assert kind in KINDS, kind
    return TraceEvent(kind, tuple(fields.items()))


def _fmt(v) -> str:
    if isinstance(v, (Var, Const, Struct)):
        return format_term(v)
    if isinstance(v, tuple):
        if v and isinstance(v[0], int):
            return "(" + ",".join(str(i) for i in v) + ")"
        return format_tuple(v)
    return str(v)


def format_event(ev: TraceEvent) -> str:
    parts = [f"EVENT kind={ev.kind}"]
    parts += [f"{k}={_fmt(v)}" for k, v in ev.fields]
    return " ".join(parts)


def check_stack_discipline(events) -> list[str]:
    """Verify that expansions only ever grow the tip of the derivation,
    backtracking only ever pops it, and the run ends with no node active.
    Returns human-readable violations."""
    errors: list[str] = []
    stack: list[int] = []
    for i, ev in enumerate(events):
        if ev.kind == "expand":
            parent = ev.get("parent")
            if stack:
                if parent != stack[-1]:
                    errors.append(
                        f"event {i}: expand of node {ev.get('node')} under parent"
                        f" {parent} but the active node is {stack[-1]}"
                    )
            elif parent is not None:
                errors.append(f"event {i}: first expand must be a root, got parent {parent}")
            stack.append(ev.get("node"))
        elif ev.kind == "backtrack":
            node = ev.get("node")
            if not stack:
                errors.append(f"event {i}: backtrack of node {node} on an empty stack")
            elif stack[-1] != node:
                errors.append(
                    f"event {i}: backtrack of node {node} but the active node is {stack[-1]}"
                )
                stack.pop()
            else:
                stack.pop()
    if stack:
        errors.append(f"run ended with {len(stack)} nodes still active: {stack}")
    return errors


def check_clause_skip(events) -> list[str]:
    """Verify no expansion under a known ancestor variant reuses a clause at
    or before the ancestor's in-use ordinal."""
    errors: list[str] = []
    for i, ev in enumerate(events):
        if ev.kind != "expand" or ev.get("source") != "clause":
            continue
        anc = ev.get("anc")
        ord_ = ev.get("ord")
        if isinstance(anc, int) and anc > 0 and ord_ is not None and ord_ <= anc:
            errors.append(
                f"event {i}: clause ordinal {ord_} used under ancestor clause {anc}"
            )
    return errors
