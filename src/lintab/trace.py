"""Structured trace events and their one-line format.

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
  evaluation pass or proved a pass produced nothing new and completed
  (``new`` says whether any table gained an answer since the run's
  latest ``iteration-start``, or since the run began if it had none).
- ``answer``: a top-level answer was emitted.

Events hold raw values; ``format_event`` renders one per line, e.g.
``EVENT kind=expand node=4 parent=3 source=clause clause=reach1``.
The checks that a trace keeps the stack discipline and skips the clauses
an ancestor variant has in use live with the tests, in
``tests/tracecheck.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Const, Struct, Var, format_term, format_tuple

__all__ = [
    "TraceEvent",
    "event",
    "format_event",
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
