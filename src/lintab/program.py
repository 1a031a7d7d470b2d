"""Source syntax, parser, and static predicate classification.

Programs are plain text: one clause per line or many, ``.`` terminators,
``,`` conjunction, ``:-`` between head and body, ``!`` for cut, and ``%``
comments that run to the end of the line.  Names start with a lower-case
letter, variables with a capital or ``_`` (``_`` alone is anonymous), and
integers are constants.  A directive ``:- table p/2.`` forces tabling of a
predicate; independently of directives, every predicate on a cycle of the
predicate dependency graph (including self-loops) is tabled.  There are
no built-ins: an undefined predicate (``fail`` by convention) simply has an
empty relation.

Parsing is one regex pass over the text into ``(kind, text, offset)``
tokens, then a recursive-descent pass over the tokens that nests terms on
an explicit stack, so term depth is limited by memory only.  A
``ParseError`` carries the 1-based line and column of the offending token,
counted in characters, and computed from its offset only when raised.  An
unexpected character anywhere in the text is reported before any syntax
error.  Variables are numbered in order of first occurrence across the
whole text; their names are scoped to one clause.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Union

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


@dataclass(frozen=True, slots=True)
class Program:
    clauses: tuple[Clause, ...]
    by_predicate: dict[PredKey, tuple[Clause, ...]]
    tabled: frozenset[PredKey]


# One pass of this pattern is one token: the layout before it (whitespace
# and ``%`` comments) is skipped inside the match, and the named group that
# matched is the token's kind.  The ``bad`` group takes the rest of the text
# from an unexpected character on, so a lexical error is the last token
# but for ``eof``.  Some alternative always matches after the layout (``eof``
# at the end), so the layout loop never backtracks.
_TOKEN_RE = re.compile(
    r"""(?:\s+|%[^\n]*)*
      (?: (?P<name>[a-z][A-Za-z0-9_]*)
        | (?P<var>[A-Z_][A-Za-z0-9_]*)
        | (?P<int>\d+)
        | (?P<punct>:-|[(),.!/])
        | (?P<bad>.+)
        | (?P<eof>\Z) )
    """,
    re.VERBOSE | re.DOTALL,
)

_Token = tuple[str, str, int]  # kind, text, offset into the source


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, ending in ``eof`` (text ``""``)."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        append((kind, m[kind], m.start(kind)))
    # after the last token (or trailing layout) finditer may yield one more,
    # empty, eof match, so a bad character is the last or next-to-last token
    for kind, chunk, offset in tokens[-2:]:
        if kind == "bad":
            raise _error(f"unexpected character {chunk[0]!r}", text, offset)
    return tokens


def _error(message: str, text: str, offset: int) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


class _Parser:
    """Recursive-descent over a token list, with an explicit stack for term
    nesting.  The parsing methods take the index of their first token and
    return what they parsed with the index after it."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.var_ids = count()
        self.scope: dict[str, Var] = {}
        # one Const per name, as in a Prolog atom table
        self.consts: dict[str, Const] = {}

    def expected(self, want: str, i: int) -> ParseError:
        kind, text, offset = self.tokens[i]
        return _error(f"expected {want!r}, found {text or 'end of input'!r}", self.text, offset)

    def atom(self, i: int) -> tuple[Struct, int]:
        kind, name, _ = self.tokens[i]
        if kind != "name":
            raise self.expected("name", i)
        if self.tokens[i + 1][1] == "(":
            return self.compound(name, i + 2)
        return Struct(name, ()), i + 1

    def compound(self, functor: str, i: int) -> tuple[Struct, int]:
        """The arguments of ``functor`` from ``tokens[i]``, just past its
        ``(``, to the matching ``)``."""
        tokens = self.tokens
        scope = self.scope
        consts = self.consts
        var_ids = self.var_ids
        outer: list[tuple[str, list[Term]]] = []  # the enclosing compounds
        args: list[Term] = []
        while True:
            kind, text, offset = tokens[i]
            i += 1
            if kind == "var":
                if text == "_":
                    term = Var(next(var_ids), "_")
                else:
                    term = scope.get(text)
                    if term is None:
                        term = scope[text] = Var(next(var_ids), text)
            elif kind == "name" and tokens[i][1] == "(":
                outer.append((functor, args))
                functor, args = text, []
                i += 1
                continue
            elif kind == "name" or kind == "int":
                term = consts.get(text)
                if term is None:
                    term = consts[text] = Const(text)
            else:
                raise _error(f"expected a term, found {text or 'end of input'!r}",
                             self.text, offset)
            args.append(term)
            while True:
                sep = tokens[i][1]
                if sep == ",":
                    i += 1
                    break
                if sep != ")":
                    raise self.expected(")", i)
                i += 1
                term = Struct(functor, tuple(args))
                if not outer:
                    return term, i
                functor, args = outer.pop()
                args.append(term)

    def body(self, i: int) -> tuple[tuple[BodyItem, ...], int]:
        tokens = self.tokens
        items: list[BodyItem] = []
        while True:
            if tokens[i][1] == "!":
                items.append(CUT)
                i += 1
            else:
                atom, i = self.atom(i)
                items.append(atom)
            if tokens[i][1] != ",":
                return tuple(items), i
            i += 1

    def directive(self, i: int) -> tuple[PredKey, int]:
        """``table name/arity.`` from ``tokens[i]``, just past the ``:-``."""
        tokens = self.tokens
        kind, text, offset = tokens[i]
        if kind != "name":
            raise self.expected("name", i)
        if text != "table":
            raise _error(f"unknown directive {text!r}", self.text, offset)
        kind, name, _ = tokens[i + 1]
        if kind != "name":
            raise self.expected("name", i + 1)
        if tokens[i + 2][1] != "/":
            raise self.expected("/", i + 2)
        kind, digits, offset = tokens[i + 3]
        if kind != "int":
            raise self.expected("int", i + 3)
        try:
            arity = int(digits)
        except ValueError:  # more digits than int() converts
            raise _error(f"arity of {len(digits)} digits is too large",
                         self.text, offset) from None
        if tokens[i + 4][1] != ".":
            raise self.expected(".", i + 4)
        return (name, arity), i + 5


def parse_program(text: str) -> Program:
    p = _Parser(text)
    tokens = p.tokens
    clauses: list[Clause] = []
    grouped: dict[PredKey, list[Clause]] = {}
    declared: set[PredKey] = set()
    i = 0
    while True:
        kind, tok, _ = tokens[i]
        if kind == "eof":
            break
        if tok == ":-":
            key, i = p.directive(i + 1)
            declared.add(key)
            continue
        p.scope = {}
        head, i = p.atom(i)
        body: tuple[BodyItem, ...] = ()
        if tokens[i][1] == ":-":
            body, i = p.body(i + 1)
        if tokens[i][1] != ".":
            raise p.expected(".", i)
        i += 1
        key = (head.functor, len(head.args))
        group = grouped.get(key)
        if group is None:
            group = grouped[key] = []
        n = len(group) + 1
        c = Clause(head, body, n, f"{head.functor}{n}")
        group.append(c)
        clauses.append(c)
    by_pred = {key: tuple(cs) for key, cs in grouped.items()}
    return Program(tuple(clauses), by_pred, classify_tabled(by_pred) | declared)


def parse_query(text: str) -> tuple[tuple[Struct, ...], list[Var]]:
    """Parse a conjunctive query; returns the atoms and the distinct query
    variables in first-occurrence order.  Cut is not allowed in queries."""
    p = _Parser(text)
    tokens = p.tokens
    atoms: list[Struct] = []
    i = 0
    while True:
        kind, tok, offset = tokens[i]
        if tok == "!":
            raise _error("cut is not allowed in queries", text, offset)
        atom, i = p.atom(i)
        atoms.append(atom)
        if tokens[i][1] != ",":
            break
        i += 1
    if tokens[i][1] == ".":
        i += 1
    kind, tok, offset = tokens[i]
    if kind != "eof":
        raise _error(f"unexpected {tok!r} after query", text, offset)
    return tuple(atoms), vars_of(atoms)


def dependency_graph(
        by_predicate: dict[PredKey, tuple[Clause, ...]]) -> dict[PredKey, frozenset[PredKey]]:
    """Edges from each head predicate to the predicates its bodies call."""
    edges: dict[PredKey, set[PredKey]] = {k: set() for k in by_predicate}
    for key, group in by_predicate.items():
        for c in group:
            for b in c.body:
                if isinstance(b, Cut):
                    continue
                callee = (b.functor, len(b.args))
                edges.setdefault(callee, set())
                edges[key].add(callee)
    return {k: frozenset(v) for k, v in edges.items()}


def classify_tabled(by_predicate: dict[PredKey, tuple[Clause, ...]]) -> frozenset[PredKey]:
    """Predicates on a dependency cycle (self-loops included)."""
    graph = dependency_graph(by_predicate)
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
