"""Clause templates: a clause compiled once into the form resolution uses.

Resolution matches a call against a clause's head template in place and
builds only the body from its template (see ``engine``), as a Prolog
machine's head and body instructions do.
"""

from __future__ import annotations

from .program import Cut, PredKey
from .terms import Const, FreshVars, Struct, Subst, Term, Var, _ground, _occurs, unify


# A clause template numbers the clause's variables as slots, in first-
# occurrence order over head then body.  A template term is a slot (an int),
# a term with no variable (kept as it is, and shared), or a compound with a
# variable as a (functor, argument templates) pair; a body's cut stays as it
# is.  Resolution fills a register per slot: matching the head sets those of
# the head, and building the body draws fresh variables for the rest.  A
# clause without variables is its own template: no slots, its head's
# arguments and its body as they are.  A template also keeps, per body goal
# of a tabled predicate with own variables, its position and their slots.
Template = tuple[int, tuple, tuple, dict | None]  # (slot count, head arguments, body, marked)


def _template(t: Term, slots: dict[Var, int]):
    """The template of ``t``, numbering its new variables in ``slots``."""
    if type(t) is Var:
        return slots.setdefault(t, len(slots))
    if type(t) is not Struct or _ground(t):
        return t
    # post-order on an explicit stack: (term, its arguments, templates so far)
    stack = [(t, iter(t.args), [])]
    while True:
        t, args, out = stack[-1]
        for a in args:
            if type(a) is Var:
                out.append(slots.setdefault(a, len(slots)))
            elif type(a) is Struct and a.args and not _ground(a):
                stack.append((a, iter(a.args), []))
                break
            else:
                out.append(a)
        else:
            stack.pop()
            tmpl = (t.functor, tuple(out))
            if not stack:
                return tmpl
            stack[-1][2].append(tmpl)


def _compile(head: Struct, body: tuple, tabled: frozenset[PredKey]) -> Template:
    """The template of a clause, with the position of each body goal of a
    predicate in ``tabled`` that has own variables, variables that occur in
    no other goal and not in the head, and the slots of those variables."""
    slots: dict[Var, int] = {}
    head_t = tuple(_template(a, slots) for a in head.args)
    # per goal, its template and the slots first numbered in it: those of
    # its variables that occur in the head or an earlier goal are not
    body_t, new = [], []
    for b in body:
        first = len(slots)
        body_t.append(b if type(b) is Cut else _template(b, slots))
        new.append(range(first, len(slots)))
    # only a tabled goal that numbers a slot first can have own variables
    tabled_new = [k for k, b in enumerate(body)
                  if new[k] and (b.functor, len(b.args)) in tabled]
    if not tabled_new:
        return len(slots), head_t, tuple(body_t), {}
    # per slot, the last goal it occurs in
    last = [-1] * len(slots)
    for k, t in enumerate(body_t):
        stack = [t[1]] if type(t) is tuple else []
        while stack:
            for a in stack.pop():
                if type(a) is int:
                    last[a] = k
                elif type(a) is tuple:
                    stack.append(a[1])
    marked = {k: own for k in tabled_new
              if (own := tuple(s for s in new[k] if last[s] == k))}
    return len(slots), head_t, tuple(body_t), marked


def _build(tmpl: tuple, regs: list, fresh: FreshVars) -> Struct:
    """The compound a (functor, argument templates) pair stands for under
    ``regs``; a slot still empty draws a fresh variable."""
    stack = [(tmpl[0], iter(tmpl[1]), [])]
    while True:
        functor, args, out = stack[-1]
        for a in args:
            if type(a) is int:
                v = regs[a]
                if v is None:
                    v = regs[a] = fresh.new()
                out.append(v)
            elif type(a) is tuple:
                stack.append((a[0], iter(a[1]), []))
                break
            else:
                out.append(a)
        else:
            stack.pop()
            term = Struct(functor, tuple(out))
            if not stack:
                return term
            stack[-1][2].append(term)


def _match(head: tuple, args: tuple, regs: list, fresh: FreshVars,
           occurs_check: bool) -> Subst | None:
    """Match a call's arguments against a head template in place: the
    bindings of the call's variables, none of which the store binds, and of
    fresh ones, that make the two equal; None if there are none.

    A slot's first occurrence takes the call's argument as it is.  A
    compound binds an unbound call variable to the term it builds, and
    otherwise matches argument by argument; a repeated slot unifies, under
    the bindings made so far, which are never applied while matching.
    """
    theta: Subst = {}
    stack: list = []
    for t, a in zip(head, args):
        while True:
            if type(t) is int:
                r = regs[t]
                if r is None:
                    regs[t] = a
                elif unify(r, a, occurs_check, theta) is None:
                    return None
            else:
                while type(a) is Var:
                    b = theta.get(a)
                    if b is None:
                        break
                    a = b
                if type(t) is tuple:
                    if type(a) is Var:
                        b = _build(t, regs, fresh)
                        if occurs_check and _occurs(a, b, theta):
                            return None
                        theta[a] = b
                    elif type(a) is Struct and a.functor == t[0] and len(a.args) == len(t[1]):
                        stack.extend(zip(reversed(t[1]), reversed(a.args)))
                    else:
                        return None
                elif a is t:
                    pass
                elif type(a) is Var:
                    theta[a] = t
                elif type(t) is Const:
                    if type(a) is not Const or a.name != t.name:
                        return None
                elif unify(a, t, occurs_check, theta) is None:
                    return None
            if not stack:
                break
            t, a = stack.pop()
    return theta
