"""Source syntax, parser, and static predicate classification.

Programs are plain text: one clause per line or many, ``%`` comments,
``.`` terminators, ``,`` conjunction, ``:-`` between head and body, ``!``
for cut.  A directive ``:- table p/2.`` forces tabling of a predicate;
independently of directives, every predicate on a cycle of the predicate
dependency graph (including self-loops) is tabled.  The control predicates
``memo_look`` and ``return`` are reserved for the engine and rejected in
source.  There are no built-ins: an undefined predicate (``fail`` by
convention) simply has an empty relation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .terms import Const, Struct, Term, Var, vars_of

__all__ = [
    "ParseError",
    "Cut",
    "CUT",
    "BodyItem",
    "Clause",
    "Program",
    "PredKey",
    "parse_program",
    "parse_query",
    "dependency_graph",
    "classify_tabled",
]

PredKey = tuple[str, int]

RESERVED = ("memo_look", "return")


class ParseError(Exception):
    """Source text rejected; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class Cut:
    """Source-level ``!``; the engine attaches the owning call at resolution."""

    def __repr__(self) -> str:
        return "CUT"


CUT = Cut()

BodyItem = Union[Struct, Cut]


@dataclass(frozen=True, slots=True)
class Clause:
    head: Struct
    body: tuple[BodyItem, ...]
    ordinal: int  # 1-based position within its predicate
    label: str  # predicate name + ordinal, e.g. "reach2"

    @property
    def pred(self) -> PredKey:
        return (self.head.functor, len(self.head.args))


@dataclass(frozen=True, slots=True)
class Program:
    clauses: tuple[Clause, ...]
    by_predicate: dict[PredKey, tuple[Clause, ...]]
    declared_tabled: frozenset[PredKey]
    tabled: frozenset[PredKey]


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<name>[a-z][A-Za-z0-9_]*)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<neck>:-)
      | (?P<punct>[(),.!/])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self._var_ids = 0
        self.scope: dict[str, Var] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            got = t.text if t.kind != "eof" else "end of input"
            raise ParseError(f"expected {want!r}, found {got!r}", t.line, t.col)
        return self.next()

    def fresh_scope(self) -> None:
        self.scope = {}

    def var(self, name: str) -> Var:
        if name == "_":
            v = Var(self._var_ids, "_")
            self._var_ids += 1
            return v
        v = self.scope.get(name)
        if v is None:
            v = Var(self._var_ids, name)
            self._var_ids += 1
            self.scope[name] = v
        return v

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "var":
            self.next()
            return self.var(t.text)
        if t.kind == "int":
            self.next()
            return Const(t.text)
        if t.kind == "name":
            self.next()
            if self.peek().kind == "punct" and self.peek().text == "(":
                return Struct(t.text, self.args())
            return Const(t.text)
        raise ParseError(f"expected a term, found {t.text or 'end of input'!r}", t.line, t.col)

    def args(self) -> tuple[Term, ...]:
        self.expect("punct", "(")
        out = [self.term()]
        while self.peek().text == ",":
            self.next()
            out.append(self.term())
        self.expect("punct", ")")
        return tuple(out)

    def atom(self) -> Struct:
        t = self.expect("name")
        if t.text in RESERVED:
            raise ParseError(f"{t.text!r} is reserved for the engine", t.line, t.col)
        if self.peek().kind == "punct" and self.peek().text == "(":
            return Struct(t.text, self.args())
        return Struct(t.text, ())

    def body(self) -> tuple[BodyItem, ...]:
        items: list[BodyItem] = []
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "!":
                self.next()
                items.append(CUT)
            else:
                items.append(self.atom())
            if self.peek().text == ",":
                self.next()
                continue
            return tuple(items)

    def directive(self) -> PredKey:
        t = self.expect("name")
        if t.text != "table":
            raise ParseError(f"unknown directive {t.text!r}", t.line, t.col)
        name = self.expect("name").text
        self.expect("punct", "/")
        arity = int(self.expect("int").text)
        self.expect("punct", ".")
        return (name, arity)


def parse_program(text: str) -> Program:
    p = _Parser(text)
    raw: list[tuple[Struct, tuple[BodyItem, ...]]] = []
    declared: set[PredKey] = set()
    while p.peek().kind != "eof":
        if p.peek().kind == "neck":
            p.next()
            declared.add(p.directive())
            continue
        p.fresh_scope()
        head = p.atom()
        body: tuple[BodyItem, ...] = ()
        if p.peek().kind == "neck":
            p.next()
            body = p.body()
        p.expect("punct", ".")
        raw.append((head, body))

    clauses: list[Clause] = []
    grouped: dict[PredKey, list[Clause]] = {}
    for head, body in raw:
        group = grouped.setdefault((head.functor, len(head.args)), [])
        n = len(group) + 1
        c = Clause(head, body, n, f"{head.functor}{n}")
        group.append(c)
        clauses.append(c)
    by_pred = {key: tuple(cs) for key, cs in grouped.items()}

    prog = Program(tuple(clauses), by_pred, frozenset(declared), frozenset())
    tabled = classify_tabled(prog) | frozenset(declared)
    return Program(prog.clauses, prog.by_predicate, prog.declared_tabled, tabled)


def parse_query(text: str) -> tuple[tuple[Struct, ...], list[Var]]:
    """Parse a conjunctive query; returns the atoms and the distinct query
    variables in first-occurrence order.  Cut is not allowed in queries."""
    p = _Parser(text)
    atoms: list[Struct] = []
    while True:
        t = p.peek()
        if t.kind == "punct" and t.text == "!":
            raise ParseError("cut is not allowed in queries", t.line, t.col)
        atoms.append(p.atom())
        if p.peek().text == ",":
            p.next()
            continue
        break
    if p.peek().text == ".":
        p.next()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {t.text!r} after query", t.line, t.col)
    return tuple(atoms), vars_of(atoms)


def dependency_graph(program: Program) -> dict[PredKey, frozenset[PredKey]]:
    """Edges from each head predicate to the predicates its bodies call."""
    keys: set[PredKey] = set(program.by_predicate)
    edges: dict[PredKey, set[PredKey]] = {k: set() for k in keys}
    for c in program.clauses:
        for b in c.body:
            if isinstance(b, Cut):
                continue
            callee = (b.functor, len(b.args))
            keys.add(callee)
            edges.setdefault(callee, set())
            edges[c.pred].add(callee)
    return {k: frozenset(v) for k, v in edges.items()}


def classify_tabled(program: Program) -> frozenset[PredKey]:
    """Predicates on a dependency cycle (self-loops included)."""
    graph = dependency_graph(program)
    index: dict[PredKey, int] = {}
    low: dict[PredKey, int] = {}
    on_stack: set[PredKey] = set()
    stack: list[PredKey] = []
    counter = 0
    tabled: set[PredKey] = set()

    for root in graph:
        if root in index:
            continue
        work: list[tuple[PredKey, Iterator[PredKey]]] = []
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work.append((root, iter(graph[root])))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: list[PredKey] = []
                while True:
                    k = stack.pop()
                    on_stack.discard(k)
                    scc.append(k)
                    if k == node:
                        break
                if len(scc) > 1 or node in graph[node]:
                    tabled.update(scc)
    return frozenset(tabled)
