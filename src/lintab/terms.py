"""Term algebra: variables, constants, compound terms, substitutions.

Every layer above this module (parser, answer tables, resolution engines)
manipulates the three term shapes defined here through plain functions.
Substitutions are ordinary dicts mapping ``Var`` to terms; bindings may
chain (X -> Y, Y -> a) and ``apply`` resolves chains.  The occurs check is
off by default; if a cyclic binding built that way is ever traversed,
``apply`` raises ``CyclicTermError`` instead of looping.

``canonicalize`` and ``rename_apart`` are one renaming walk over a term or
a tuple of items.  It replaces variables and rebuilds compound terms; any
other item (a constant, or the parser's cut) passes through as the same
object, so a clause's head and body, cuts included, rename in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

__all__ = [
    "Var",
    "Const",
    "Struct",
    "Term",
    "Subst",
    "CyclicTermError",
    "FreshVars",
    "format_term",
    "format_tuple",
    "vars_of",
    "max_var_id",
    "apply",
    "apply_tuple",
    "unify",
    "canonicalize",
    "rename_apart",
]


class CyclicTermError(Exception):
    """A substitution built with the occurs check off turned out cyclic."""


@dataclass(frozen=True, slots=True)
class Var:
    """A logic variable.  Identity is the numeric id; ``name`` is display only."""

    id: int
    name: str = field(default="_", compare=False)

    def __repr__(self) -> str:
        return f"Var({self.id}, {self.name!r})"


@dataclass(frozen=True, slots=True)
class Const:
    """An atomic constant."""

    name: str

    def __repr__(self) -> str:
        return f"Const({self.name!r})"


@dataclass(frozen=True, slots=True)
class Struct:
    """A compound term; also used for atoms (0-ary ones have empty args)."""

    functor: str
    args: tuple["Term", ...] = ()

    def __repr__(self) -> str:
        return f"Struct({self.functor!r}, {self.args!r})"


Term = Union[Var, Const, Struct]
Subst = dict[Var, Term]


class FreshVars:
    """Monotone source of variable ids, owned by whoever needs renaming.

    Start the counter above every id already in play (see ``max_var_id``)
    so fresh variables never collide with parsed ones.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def new(self) -> Var:
        v = Var(self._next, f"_G{self._next}")
        self._next += 1
        return v


def format_term(t: Term) -> str:
    """Render a term in source syntax.

    >>> format_term(Struct("edge", (Const("a"), Var(0, "X"))))
    'edge(a,X)'
    """
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if not t.args:
        return t.functor
    return f"{t.functor}({','.join(format_term(a) for a in t.args)})"


def format_tuple(ts: tuple[Term, ...]) -> str:
    """Render an answer tuple: ``(a,b)``, 1-tuples as ``(a)``, empty as ``()``."""
    return "(" + ",".join(format_term(t) for t in ts) + ")"


def vars_of(x: Term | Iterable) -> list[Var]:
    """Distinct variables of a term (or nested tuples and lists of items),
    in first-occurrence order; items other than terms, such as a cut, are
    skipped."""
    seen: set[Var] = set()
    out: list[Var] = []
    stack = [x]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if t not in seen:
                seen.add(t)
                out.append(t)
        elif isinstance(t, Struct):
            stack.extend(reversed(t.args))
        elif isinstance(t, (tuple, list)):
            stack.extend(reversed(t))
    return out


def max_var_id(x: Term | Iterable) -> int:
    """Largest variable id occurring in ``x``; -1 if there is none."""
    return max((v.id for v in vars_of(x)), default=-1)


def apply(t: Term, s: Subst) -> Term:
    """Apply a substitution, resolving chained bindings."""
    if not s:
        return t
    return _apply(t, s, ())


def _apply(t: Term, s: Subst, guard: tuple[Var, ...]) -> Term:
    while type(t) is Var:
        b = s.get(t)
        if b is None:
            return t
        if t in guard:
            raise CyclicTermError(f"cyclic binding through {t.name}")
        guard = guard + (t,)
        t = b
    if type(t) is Const:
        return t
    return Struct(t.functor, tuple(_apply(a, s, guard) for a in t.args))


def apply_tuple(ts: tuple[Term, ...], s: Subst) -> tuple[Term, ...]:
    return tuple(apply(t, s) for t in ts)


def _deref(t: Term, s: Subst) -> Term:
    while type(t) is Var:
        b = s.get(t)
        if b is None:
            break
        t = b
    return t


def _occurs(v: Var, t: Term, s: Subst) -> bool:
    stack = [t]
    while stack:
        x = _deref(stack.pop(), s)
        if x == v:
            return True
        if isinstance(x, Struct):
            stack.extend(x.args)
    return False


def unify(a: Term, b: Term, occurs_check: bool = False, s: Subst | None = None) -> Subst | None:
    """Most general unifier of ``a`` and ``b``; None on failure.

    Given a substitution ``s``, unify ``a`` and ``b`` under its bindings and
    extend it in place with the new ones: it is the one returned, and on
    failure it may hold some of them.  In the variable-variable case the
    younger variable (larger id) is bound to the older one, so query
    variables survive resolution against fresh clause variables.

    >>> s = unify(Struct("p", (Var(0, "X"), Const("b"))),
    ...           Struct("p", (Const("a"), Var(1, "Y"))))
    >>> sorted((v.name, format_term(t)) for v, t in s.items())
    [('X', 'a'), ('Y', 'b')]
    """
    if s is None:
        s = {}
    stack: list[tuple[Term, Term]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        while type(x) is Var:
            b_ = s.get(x)
            if b_ is None:
                break
            x = b_
        while type(y) is Var:
            b_ = s.get(y)
            if b_ is None:
                break
            y = b_
        if x == y:
            continue
        x_var = type(x) is Var
        y_var = type(y) is Var
        if x_var and y_var:
            if x.id < y.id:
                x, y = y, x
            s[x] = y
        elif x_var:
            if occurs_check and _occurs(x, y, s):
                return None
            s[x] = y
        elif y_var:
            if occurs_check and _occurs(y, x, s):
                return None
            s[y] = x
        elif type(x) is Const or type(y) is Const:
            return None
        elif x.functor != y.functor or len(x.args) != len(y.args):
            return None
        else:
            stack.extend(zip(x.args, y.args))
    return s


def _ground(x) -> bool:
    """Whether no variable occurs in a term or tuple of items: a flat check
    of the top level, walking only the compound terms."""
    if type(x) is Struct:
        x = x.args
    elif type(x) is not tuple:
        return type(x) is Const
    for t in x:
        if type(t) is Var:
            return False
        if type(t) is Struct:
            stack = list(t.args)
            while stack:
                a = stack.pop()
                if type(a) is Var:
                    return False
                if type(a) is Struct:
                    stack.extend(a.args)
    return True


def _rename(x, mapping: dict[Var, Var] | None, fresh: FreshVars | None):
    """The one renaming walk: each variable of ``x`` is replaced by the
    variable ``mapping`` gives it, or else by a new one from ``fresh`` (the
    next canonical variable when ``fresh`` is None), recorded in
    ``mapping``.  Other items pass through as they are."""
    if _ground(x):
        return x
    if mapping is None:
        mapping = {}

    def repl(t):
        if type(t) is Var:
            c = mapping.get(t)
            if c is None:
                if fresh is None:
                    k = len(mapping)
                    c = Var(-(k + 1), f"_{k}")
                else:
                    c = fresh.new()
                mapping[t] = c
            return c
        if type(t) is Struct:
            return Struct(t.functor, tuple(repl(a) for a in t.args))
        return t

    # the top level is walked here, not through a call of repl, since each
    # frame on the way down lowers how deep a term can nest before Python's
    # recursion limit stops the walk
    if type(x) is Struct:
        return Struct(x.functor, tuple(repl(a) for a in x.args))
    if type(x) is Var:
        return repl(x)
    return tuple(map(repl, x))


def canonicalize(x, mapping: dict[Var, Var] | None = None):
    """Rename variables to a canonical series in first-occurrence order.

    Canonical variables have negative ids so they can never collide with
    parsed or freshly generated ones.  Accepts a term or a tuple of terms
    (renamed jointly) and returns the same shape; a ground one is its own
    canonical form and comes back as the same object.  A ``mapping``, when
    given, receives each variable with its canonical name, in
    first-occurrence order.

    >>> format_term(canonicalize(Struct("p", (Var(7, "A"), Const("a"), Var(7, "A")))))
    'p(_0,a,_0)'
    """
    return _rename(x, mapping, None)


def rename_apart(x, fresh: FreshVars, mapping: dict[Var, Var] | None = None):
    """Consistent fresh renaming of a term or tuple of terms.

    Passing the same ``mapping`` across calls keeps the renaming consistent
    between them (the second call reuses names picked by the first).  A
    ground term or tuple is its own renaming: it comes back as the same
    object and draws no fresh variable.
    """
    return _rename(x, mapping, fresh)
