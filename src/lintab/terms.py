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
Canonical variables come from one series, made once per process, so equal
canonical forms share their variables and table lookups on them end on
identity.

Constants are interned, as a Prolog machine's atom table keeps them:
``Const(name)`` returns the one object for its name, so a constant
hashes and compares by identity, in C, and a set or dict lookup of a
tuple of constants calls no Python method.  The price is that the
intern table keeps one object per distinct name the process has ever
made, for as long as the process lives.

Hashing and equality are otherwise structural and cheap to repeat.  A
variable hashes to its id and equals any variable with the same id.  A
compound computes its hash the first time it is hashed and keeps it.
Two compounds are equal when they are the same object, or have the same
functor and arity, do not both carry different hashes, and have equal
arguments pairwise.

A compound likewise works out whether it is ground the first time it is
asked and keeps the answer, in a walk apart from the hash's, so a term
that is only hashed pays nothing for it.  ``apply`` and the renaming walk
hand a ground compound back whole without entering it, so neither walks a
shared ground subterm as a tree.

No operation here recurses once per nesting level: hashing, groundness,
equality, ``apply``, renaming, ``unify``, ``format_term`` and ``repr``
walk on explicit stacks, so a term nested as deep as memory allows can be
built, compared, printed and solved.
"""

from __future__ import annotations

from operator import is_
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


class Var:
    """A logic variable.  Identity is the numeric id; ``name`` is display only."""

    __slots__ = ("id", "name")

    def __init__(self, id: int, name: str = "_") -> None:
        self.id = id
        self.name = name

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is Var and other.id == self.id)

    def __hash__(self) -> int:
        # CPython hashes -1 as -2, so the id itself would give the
        # canonical _0 and _1 one hash; doubled, no two ids share one
        return self.id << 1

    def __repr__(self) -> str:
        return f"Var({self.id}, {self.name!r})"


class Const:
    """An atomic constant, interned: ``Const(name)`` is the one object for
    ``name``, so constants hash and compare by identity, in C."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Const":
        c = _CONSTS.get(name)
        if c is None:
            c = _CONSTS[name] = object.__new__(cls)
            c.name = name
        return c

    def __reduce__(self):
        # a copy or an unpickled constant is the interned one
        return Const, (self.name,)

    def __repr__(self) -> str:
        return f"Const({self.name!r})"


# every constant the process has made, by name; never emptied
_CONSTS: dict[str, Const] = {}


class Struct:
    """A compound term; also used for atoms (0-ary ones have empty args).

    The hash and whether the term is ground are each computed the first
    time they are asked for and kept.
    """

    __slots__ = ("functor", "args", "_hash", "_ground")

    def __init__(self, functor: str, args: tuple["Term", ...] = ()) -> None:
        self.functor = functor
        self.args = args
        self._hash: int | None = None
        self._ground: bool | None = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = _hash_struct(self)
        return h

    def __eq__(self, other) -> bool:
        return _equal_args((self,), (other,))

    def __repr__(self) -> str:
        # pre-order on an explicit stack of terms and the punctuation between
        # them, as format_term walks: Struct('f', (Const('a'),))
        out: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if type(t) is str:
                out.append(t)
            elif type(t) is not Struct:
                out.append(repr(t))
            else:
                out.append(f"Struct({t.functor!r}, (")
                args = t.args
                stack.append(",))" if len(args) == 1 else "))")
                for i in range(len(args) - 1, 0, -1):
                    stack.append(args[i])
                    stack.append(", ")
                if args:
                    stack.append(args[0])
        return "".join(out)


def _hash_struct(t: Struct) -> int:
    """Compute and keep the hash of ``t`` and of every compound under it
    not yet hashed, children first, so hashing never recurses."""
    for a in t.args:
        if type(a) is Struct and a._hash is None and a.args:
            break
    else:
        h = t._hash = hash((t.functor, t.args))
        return h
    # post-order on an explicit stack: (term, whether its children are hashed)
    stack = [(t, False)]
    while stack:
        u, ready = stack.pop()
        if u._hash is not None:
            continue
        if ready:
            u._hash = hash((u.functor, u.args))
            continue
        stack.append((u, True))
        for a in u.args:
            if type(a) is Struct and a._hash is None and a.args:
                stack.append((a, False))
    return t._hash


def _ground_args(args: tuple) -> bool | None:
    """Whether no variable occurs in ``args``, or None while one of them
    is a compound whose groundness is not yet known."""
    ground = True
    for a in args:
        if type(a) is Var:
            ground = False
        elif type(a) is Struct and a.args:
            g = a._ground
            if g is None:
                return None
            if not g:
                ground = False
    return ground


def _ground_struct(t: Struct) -> bool:
    """Compute and keep whether ``t`` is ground, and the same for every
    compound under it not yet known, children first on an explicit stack,
    so it never recurses."""
    stack = [t]
    while stack:
        u = stack[-1]
        g = u._ground
        if g is None:
            g = _ground_args(u.args)
            if g is None:
                stack.extend([a for a in u.args
                              if type(a) is Struct and a._ground is None and a.args])
                continue
            u._ground = g
        stack.pop()
    return t._ground


def _equal_args(xs: tuple, ys: tuple) -> bool:
    """Whether two argument tuples of one length are equal, walked pairwise
    on an explicit stack."""
    stack = None
    while True:
        for a, b in zip(xs, ys):
            if a is b:
                continue
            ta = type(a)
            if ta is not type(b):
                return False
            if ta is Struct:
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return False
                h, g = a._hash, b._hash
                if h is not None and g is not None and h != g:
                    return False
                if stack is None:
                    stack = []
                stack.append((a.args, b.args))
            elif ta is Var:
                if a.id != b.id:
                    return False
            else:
                # two constants, interned: equal only as one object
                return False
        if not stack:
            return True
        xs, ys = stack.pop()


Term = Union[Var, Const, Struct]
Subst = dict[Var, Term]

# what a memo lookup in ``_apply`` gives for a variable not met yet
_UNSEEN = object()


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
    # pre-order on an explicit stack of terms and the punctuation between them
    out: list[str] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
        elif type(t) is not Struct:
            out.append(t.name)
        elif not t.args:
            out.append(t.functor)
        else:
            out.append(t.functor + "(")
            args = t.args
            stack.append(")")
            for i in range(len(args) - 1, 0, -1):
                stack.append(args[i])
                stack.append(",")
            stack.append(args[0])
    return "".join(out)


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
    """Apply a substitution, resolving chained bindings.

    An atom none of whose arguments is bound comes back as the same object,
    and one whose bound arguments resolve to constants, unbound variables
    or atoms is rebuilt flat; any other term takes the general walk.
    """
    if not s:
        return t
    if type(t) is Var:
        b = s.get(t)
        if b is None:
            return t
        if type(b) is Const:
            return b
        return _apply(t, s)
    if type(t) is not Struct:
        return t
    args = t.args
    out = None
    for i, a in enumerate(args):
        if type(a) is Var:
            b = s.get(a)
            if b is None:
                if out is not None:
                    out.append(a)
                continue
            if type(b) is Var:
                if b in s:
                    return _apply(t, s)
            elif type(b) is Struct and b.args:
                return _apply(t, s)
            if out is None:
                out = list(args[:i])
            out.append(b)
        elif type(a) is Struct and a.args:
            return _apply(t, s)
        elif out is not None:
            out.append(a)
    return t if out is None else Struct(t.functor, tuple(out))


def _apply(t: Term, s: Subst) -> Term:
    """The general walk of ``apply``: post-order on an explicit stack.

    ``memo`` holds each bound variable met, with None while its value is
    being resolved and the resolved term once it is, so a variable shared
    by several arguments is resolved once; meeting a variable again while
    it is being resolved means its binding is cyclic.  A compound none of
    whose arguments changed comes back as the same object, and a ground
    one is not entered.
    """
    memo: dict[Var, Term | None] = {}
    # (compound or None for the top, its items, their values so far, the
    # bound variables whose value it is)
    stack: list = [(None, iter((t,)), [], None)]
    while True:
        term, items, out, owners = stack[-1]
        for a in items:
            chain = None
            resolved = False
            while type(a) is Var:
                b = s.get(a)
                if b is None:
                    break
                r = memo.get(a, _UNSEEN)
                if r is not _UNSEEN:
                    if r is None:
                        raise CyclicTermError(f"cyclic binding through {a.name}")
                    a, resolved = r, True
                    break
                memo[a] = None
                if chain is None:
                    chain = [a]
                else:
                    chain.append(a)
                a = b
            if not resolved and type(a) is Struct and a.args and not _ground(a):
                stack.append((a, iter(a.args), [], chain))
                break
            if chain is not None:
                for v in chain:
                    memo[v] = a
            out.append(a)
        else:
            stack.pop()
            if term is None:
                return out[0]
            if not all(map(is_, out, term.args)):
                term = Struct(term.functor, tuple(out))
            if owners is not None:
                for v in owners:
                    memo[v] = term
            stack[-1][2].append(term)


def apply_tuple(ts: tuple[Term, ...], s: Subst) -> tuple[Term, ...]:
    return tuple([apply(t, s) for t in ts])


def _occurs(v: Var, t: Term, s: Subst) -> bool:
    stack = [t]
    while stack:
        x = stack.pop()
        while type(x) is Var:
            b = s.get(x)
            if b is None:
                break
            x = b
        if type(x) is Var:
            if x.id == v.id:
                return True
        elif type(x) is Struct:
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
        # identity, not ==: equal compounds would be walked twice, once by
        # == and once below
        if x is y:
            continue
        x_var = type(x) is Var
        y_var = type(y) is Var
        if x_var and y_var:
            if x.id == y.id:
                continue
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
            # interned: a constant equals only itself, and x is not y
            return None
        elif x.functor != y.functor or len(x.args) != len(y.args):
            return None
        else:
            stack.extend(zip(x.args, y.args))
    return s


def _ground(x) -> bool:
    """Whether no variable occurs in a term or tuple of items: a compound
    answers from what it keeps, so only the top level of a tuple is walked."""
    if type(x) is tuple:
        for t in x:
            if type(t) is Var:
                return False
            if type(t) is Struct:
                g = t._ground
                if not (_ground_struct(t) if g is None else g):
                    return False
        return True
    if type(x) is Struct:
        g = x._ground
        return _ground_struct(x) if g is None else g
    return type(x) is Const


def _rename(x, mapping: dict[Var, Var] | None, fresh: FreshVars | None):
    """The one renaming walk over an ``x`` that is not ground: each
    variable is replaced by the variable ``mapping`` gives it, or else by a
    new one from ``fresh`` (the next canonical variable when ``fresh`` is
    None), recorded in ``mapping``.  Other items, and ground compounds,
    pass through as they are."""
    if mapping is None:
        mapping = {}
    if type(x) is Var:
        return _rename((x,), mapping, fresh)[0]
    canonical = _CANONICAL
    # post-order on an explicit stack, as ``engine._build`` walks a template:
    # (functor, or None for the top-level tuple, its items, renamed so far)
    if type(x) is Struct:
        stack = [(x.functor, iter(x.args), [])]
    else:
        stack = [(None, iter(x), [])]
    while True:
        functor, items, out = stack[-1]
        for t in items:
            if type(t) is Var:
                c = mapping.get(t)
                if c is None:
                    if fresh is None:
                        k = len(mapping)
                        try:
                            c = canonical[k]
                        except IndexError:
                            c = _canonical_var(k)
                    else:
                        c = fresh.new()
                    mapping[t] = c
                out.append(c)
            elif type(t) is Struct and t.args and not _ground(t):
                stack.append((t.functor, iter(t.args), []))
                break
            else:
                out.append(t)
        else:
            stack.pop()
            term = tuple(out) if functor is None else Struct(functor, tuple(out))
            if not stack:
                return term
            stack[-1][2].append(term)


# The canonical variables _0, _1, ... in order, each made once: every
# canonical form draws on this one series, so equal canonical terms share
# their variables and compare by identity.
_CANONICAL: list[Var] = []


def _canonical_var(k: int) -> Var:
    """The canonical variable ``_k``, extending the series up to it."""
    while len(_CANONICAL) <= k:
        n = len(_CANONICAL)
        _CANONICAL.append(Var(-(n + 1), f"_{n}"))
    return _CANONICAL[k]


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
    return x if _ground(x) else _rename(x, mapping, None)


def rename_apart(x, fresh: FreshVars, mapping: dict[Var, Var] | None = None):
    """Consistent fresh renaming of a term or tuple of terms.

    Passing the same ``mapping`` across calls keeps the renaming consistent
    between them (the second call reuses names picked by the first).  A
    ground term or tuple is its own renaming: it comes back as the same
    object and draws no fresh variable.
    """
    return x if _ground(x) else _rename(x, mapping, fresh)
