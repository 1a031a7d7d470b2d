"""Outside-in layer tracing for the benchmark.

The traced run replaces the public functions of each ``lintab`` module with
wrappers that record one span per call: name, parent span, request, start,
end, and a one-bit outcome (``unify`` found a unifier, ``memo`` kept a new
answer, ``get_or_create`` made a table).  ``engine`` binds its imports when
it is imported, so the wrappers go on ``lintab.engine.<fn>``,
``lintab.tables.<fn>`` and the ``TableStore`` methods, not only on
``lintab.terms``.  Nothing inside ``src/`` changes; untraced runs never
install a wrapper.

Spans are kept in flat arrays while the run lasts and written out as
gzipped CSV when it ends.  A span's self time is its duration minus the durations of
the spans directly nested in it.
"""

from __future__ import annotations

import csv
import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import lintab.cli
import lintab.engine
import lintab.oracle
import lintab.program
import lintab.tables


def _found(result) -> bool:
    return result is not None


def _created(result) -> bool:
    return result[1]


# marks a target that returns a generator: one span per resumption
GENERATOR = object()


# (owner, attribute, span name, outcome of the call or None)
LAYER_TARGETS = (
    (lintab.program, "parse_program", "program.parse", None),
    (lintab.program, "parse_query", "program.parse", None),
    (lintab.engine, "unify", "terms.unify", _found),
    (lintab.engine, "rename_apart", "terms.rename_apart", None),
    (lintab.engine, "apply", "terms.apply", None),
    (lintab.engine, "apply_tuple", "terms.apply", None),
    (lintab.engine, "canonicalize", "terms.canonicalize", None),
    (lintab.tables, "canonicalize", "terms.canonicalize", None),
    (lintab.engine, "vars_of", "terms.vars_of", None),
    (lintab.tables, "vars_of", "terms.vars_of", None),
    (lintab.engine, "event", "trace.event", None),
    (lintab.tables.TableStore, "memo", "tables.memo", bool),
    (lintab.tables.TableStore, "get_or_create", "tables.get_or_create", _created),
    (lintab.engine.TPEngine, "solve", "engine.solve", GENERATOR),
)
ORACLE_TARGETS = (
    (lintab.oracle, "bottomup_solve", "oracle.bottomup", None),
)
# only the boundaries ``tp run`` crosses, so its own overhead is what is left
CLI_TARGETS = (
    (lintab.cli, "parse_program", "program.parse", None),
    (lintab.cli, "parse_query", "program.parse", None),
    (lintab.cli, "TPEngine", "engine.init", None),
    (lintab.engine.TPEngine, "solve", "engine.solve", GENERATOR),
)


class Tracer:
    """Spans of one benchmark invocation, held in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_request(self, label: str) -> None:
        """Spans opened from now on belong to the request ``label``."""
        self.requests.append(label)

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(len(self.requests) - 1)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def _wrapper(self, fn, nid: int, outcome):
        open_, close, flag = self.open, self.close, self.flag
        if outcome is GENERATOR:
            def wrapped(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    yield item
        elif outcome is None:
            def wrapped(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        else:
            def wrapped(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                if outcome(result):
                    flag[i] = 1
                return result
        return wrapped

    @contextmanager
    def installed(self, targets):
        """Wrap ``targets`` for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, outcome in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(fn, self.name_id(name), outcome))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def summary(self, request_prefix: str = "") -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and outcome count,
        over the requests whose label starts with ``request_prefix``."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        keep = [label.startswith(request_prefix) for label in self.requests]
        acc: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0})
        for i in range(n):
            if not keep[self.request[i]]:
                continue
            a = acc[self.names[self.name[i]]]
            d = end[i] - start[i]
            a["calls"] += 1
            a["total_s"] += d
            a["self_s"] += d - child[i]
            a["hits"] += self.flag[i]
        return acc

    def write_csv(self, path) -> None:
        """All spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(("span", "parent", "request", "name", "start_s", "end_s", "outcome"))
            names, requests = self.names, self.requests
            for i in range(len(self.name)):
                w.writerow((i, self.parent[i], requests[self.request[i]],
                            names[self.name[i]], f"{self.start[i] - t0:.9f}",
                            f"{self.end[i] - t0:.9f}", self.flag[i]))
