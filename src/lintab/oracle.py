"""Independent reference evaluators and a random program generator.

Two oracles cross-check the tabled engine without sharing any of its
machinery beyond terms and the parsed program:

- ``sld_answers``: plain depth-first resolution with cut, run the way a
  minimal Prolog runs it (one binding store undone from a trail, goal
  lists that share their tails), except derivation branches are pruned at
  a depth bound.  Answers stream as they are found, and
  ``DepthBoundExceeded`` follows the last one if a branch was pruned;
  ``sld_solve`` collects them and says whether pruning happened.
- ``bottomup_solve``: naive fixpoint of the immediate-consequence step for
  function-free cut-free programs; by construction complete and terminating,
  which makes it the ground truth for differential testing.

``generate_program`` emits small random function-free, cut-free,
range-restricted programs (ground facts, head variables bound by the body)
whose predicates call each other freely, so recursion through several
predicates is common.  The query predicate is declared tabled so the
engine's answer deduplication is actually exercised at the top level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .program import Cut, Program
from .terms import (
    Const,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    apply,
    apply_tuple,
    max_var_id,
    rename_apart,
    unify,
    vars_of,
)

__all__ = [
    "OracleResult",
    "UnsupportedProgramError",
    "DepthBoundExceeded",
    "sld_answers",
    "sld_solve",
    "bottomup_solve",
    "ground_expand",
    "constants_of",
    "generate_program",
]


@dataclass(slots=True)
class OracleResult:
    answers: tuple[tuple[Term, ...], ...]
    status: str  # "complete" | "depth-exceeded"


class UnsupportedProgramError(Exception):
    """The program falls outside what this oracle can evaluate."""


# -- depth-bounded resolution ----------------------------------------


class DepthBoundExceeded(Exception):
    """An sld run pruned a branch at its depth bound."""


def _push(items, rest):
    """The goal list of ``items`` followed by ``rest``, which is shared."""
    for item in reversed(items):
        rest = (item, rest)
    return rest


def sld_answers(
    program: Program,
    query: Sequence[Struct],
    depth_bound: int,
    occurs_check: bool = False,
) -> Iterator[tuple[Term, ...]]:
    """Yield answers depth-first with no tabling and no loop checking.

    Bindings live in one store and are undone from a trail on backtracking.
    A frame is ``[goals, next clause, trail mark]`` and the frame list is
    the current branch; goal lists are ``(item, rest)`` cells, so a clause
    body is pushed onto its caller's shared tail.  A body's cut becomes the
    index of the frame whose call the clause resolved: failing back into it
    drops that frame and every frame above.  A branch whose depth (its
    number of frames) reaches ``depth_bound`` is pruned, and
    ``DepthBoundExceeded`` is raised after the last answer.  Answers may
    repeat; they come in discovery order.
    """
    fresh = FreshVars(max_var_id(query) + 1)
    qvars = tuple(vars_of(tuple(query)))
    bindings: Subst = {}
    trail: list[Var] = []
    stack = [[_push(query, None), 0, 0]]
    exceeded = False
    while stack:
        frame = stack[-1]
        goals = frame[0]
        if goals is None:
            yield apply_tuple(qvars, bindings)
        elif len(stack) >= depth_bound:
            exceeded = True
        elif type(goals[0]) is int:
            stack.append([goals[1], 0, len(trail)])
            continue
        else:
            # the goal's variables are unbound in the store and the clause
            # is fresh, so the unifier binds only unbound variables
            goal = apply(goals[0], bindings)
            clauses = program.by_predicate.get((goal.functor, len(goal.args)), ())
            child = None
            while child is None and frame[1] < len(clauses):
                cl = clauses[frame[1]]
                frame[1] += 1
                h, *body = rename_apart((cl.head,) + cl.body, fresh)
                theta = unify(goal, h, occurs_check=occurs_check)
                if theta is not None:
                    bindings.update(theta)
                    trail.extend(theta)
                    here = len(stack) - 1
                    body = [here if type(b) is Cut else b for b in body]
                    child = [_push(body, goals[1]), 0, len(trail)]
            if child is not None:
                stack.append(child)
                continue
        # the top frame has failed: pop it, and every cut failed back into
        # fails the call that holds it
        stack.pop()
        while stack and type(stack[-1][0][0]) is int:
            del stack[stack[-1][0][0]:]
        if stack:
            mark = stack[-1][2]
            while len(trail) > mark:
                del bindings[trail.pop()]
    if exceeded:
        raise DepthBoundExceeded


def sld_solve(
    program: Program,
    query: Sequence[Struct],
    depth_bound: int,
    occurs_check: bool = False,
) -> OracleResult:
    """Collect ``sld_answers``; the status says whether a branch was pruned."""
    answers: list[tuple[Term, ...]] = []
    try:
        for tup in sld_answers(program, query, depth_bound, occurs_check):
            answers.append(tup)
    except DepthBoundExceeded:
        return OracleResult(tuple(answers), "depth-exceeded")
    return OracleResult(tuple(answers), "complete")


# -- bottom-up fixpoint ----------------------------------------------


def _check_function_free(program: Program, query: Sequence[Struct]) -> None:
    def flat(args: tuple[Term, ...], where: str) -> None:
        for a in args:
            if isinstance(a, Struct):
                raise UnsupportedProgramError(f"compound argument in {where}")

    for c in program.clauses:
        flat(c.head.args, "a clause head")
        for b in c.body:
            if isinstance(b, Cut):
                raise UnsupportedProgramError("cut in a clause body")
            flat(b.args, "a clause body")
    for a in query:
        flat(a.args, "the query")


def constants_of(program: Program, query: Sequence[Struct]) -> list[str]:
    """Sorted constant names appearing in the program or query."""
    names: set[str] = set()
    for c in program.clauses:
        for t in (c.head,) + tuple(b for b in c.body if not isinstance(b, Cut)):
            for a in t.args:
                if isinstance(a, Const):
                    names.add(a.name)
    for q in query:
        for a in q.args:
            if isinstance(a, Const):
                names.add(a.name)
    return sorted(names)


def _match(
    atoms: Sequence[Struct],
    facts: dict,
    theta: dict[Var, str],
) -> Iterator[dict[Var, str]]:
    if not atoms:
        yield theta
        return
    atom, rest = atoms[0], atoms[1:]
    key = (atom.functor, len(atom.args))
    for row in facts.get(key, ()):
        ext = dict(theta)
        ok = True
        for arg, val in zip(atom.args, row):
            if isinstance(arg, Const):
                if arg.name != val:
                    ok = False
                    break
            else:
                bound = ext.get(arg)
                if bound is None:
                    ext[arg] = val
                elif bound != val:
                    ok = False
                    break
        if ok:
            yield from _match(rest, facts, ext)


def bottomup_solve(program: Program, query: Sequence[Struct]) -> OracleResult:
    """Least-model answers for a function-free, cut-free program.

    Computed by iterating the immediate-consequence step to fixpoint over
    the constants of program and query (one invented constant when there
    are none, so non-ground facts still denote something).
    """
    _check_function_free(program, query)
    consts = constants_of(program, query) or ["u0"]

    facts: dict[tuple[str, int], set[tuple[str, ...]]] = {}

    def head_rows(head: Struct, theta: dict[Var, str]) -> Iterator[tuple[str, ...]]:
        free = [a for a in head.args if isinstance(a, Var) and a not in theta]
        free_distinct = list(dict.fromkeys(free))
        for combo in product(consts, repeat=len(free_distinct)):
            local = dict(theta)
            local.update(zip(free_distinct, combo))
            yield tuple(
                a.name if isinstance(a, Const) else local[a] for a in head.args
            )

    changed = True
    while changed:
        changed = False
        snapshot = {k: tuple(v) for k, v in facts.items()}
        for c in program.clauses:
            key = (c.head.functor, len(c.head.args))
            rel = facts.setdefault(key, set())
            for theta in _match(tuple(c.body), snapshot, {}):
                for row in head_rows(c.head, theta):
                    if row not in rel:
                        rel.add(row)
                        changed = True

    qvars = vars_of(tuple(query))
    seen: set[tuple[str, ...]] = set()
    for theta in _match(tuple(query), facts, {}):
        seen.add(tuple(theta[v] for v in qvars))
    answers = tuple(
        tuple(Const(n) for n in row) for row in sorted(seen)
    )
    return OracleResult(answers, "complete")


def ground_expand(
    answers: Sequence[tuple[Term, ...]], universe: Sequence[str]
) -> frozenset[tuple[str, ...]]:
    """Close answer tuples over a constant universe: every variable ranges
    over all constants.  Ground tuples pass through unchanged."""
    out: set[tuple[str, ...]] = set()
    consts = list(universe) or ["u0"]
    for tup in answers:
        vs = vars_of(tup)
        if not vs:
            out.add(tuple(t.name for t in tup))  # type: ignore[union-attr]
            continue
        for combo in product(consts, repeat=len(vs)):
            s: Subst = dict(zip(vs, (Const(c) for c in combo)))
            grounded = apply_tuple(tuple(tup), s)
            out.add(tuple(t.name for t in grounded))  # type: ignore[union-attr]
    return frozenset(out)


# -- random program generator ----------------------------------------

_PRED_NAMES = ("p", "q", "r", "s")
_CONST_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
_VAR_NAMES = ("X", "Y", "Z", "U", "V", "W")


def generate_program(rng: random.Random) -> tuple[str, str]:
    """One random function-free, cut-free, range-restricted program and a
    query for it, both as source text.  Deterministic in the generator
    state.  The query predicate carries a table directive."""
    n_preds = rng.randint(1, 4)
    preds = [(name, rng.randint(0, 2)) for name in _PRED_NAMES[:n_preds]]
    n_consts = rng.choice((2, 2, 3, 3, 4, 4, 5, 6, 7, 8))
    consts = _CONST_NAMES[:n_consts]
    n_clauses = rng.randint(4, 12)

    lines: list[str] = []
    joins = 0
    for _ in range(n_clauses):
        head_name, head_arity = rng.choice(preds)
        # facts dominate and at most two clauses get multi-atom bodies:
        # loops stay frequent but recomputation between them stays cheap
        roll = rng.random()
        body_len = 0 if roll < 0.45 else 1 if roll < 0.75 else 2 if roll < 0.92 else 3
        if body_len >= 2:
            if joins >= 2:
                body_len = 1
            else:
                joins += 1
        if body_len == 0:
            args = ",".join(rng.choice(consts) for _ in range(head_arity))
            lines.append(f"{head_name}({args})." if args else f"{head_name}.")
            continue
        body_parts: list[str] = []
        body_vars: list[str] = []
        for _ in range(body_len):
            b_name, b_arity = rng.choice(preds)
            b_args: list[str] = []
            for _ in range(b_arity):
                if rng.random() < 0.5:
                    v = rng.choice(_VAR_NAMES)
                    b_args.append(v)
                    body_vars.append(v)
                else:
                    b_args.append(rng.choice(consts))
            body_parts.append(
                f"{b_name}({','.join(b_args)})" if b_args else b_name
            )
        head_args: list[str] = []
        for _ in range(head_arity):
            if body_vars and rng.random() < 0.7:
                head_args.append(rng.choice(body_vars))
            else:
                head_args.append(rng.choice(consts))
        head = f"{head_name}({','.join(head_args)})" if head_args else head_name
        lines.append(f"{head} :- {', '.join(body_parts)}.")

    q_name, q_arity = rng.choice(preds)
    q_args = []
    fresh_q = iter(("X", "Y"))
    for _ in range(q_arity):
        if rng.random() < 0.2:
            q_args.append(rng.choice(consts))
        else:
            q_args.append(next(fresh_q))
    query = f"{q_name}({','.join(q_args)})" if q_args else q_name
    lines.insert(0, f":- table {q_name}/{q_arity}.")
    return "\n".join(lines) + "\n", query
