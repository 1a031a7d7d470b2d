"""Independent reference evaluators and a random program generator.

Two oracles cross-check the tabled engine without sharing any of its
machinery beyond terms and the parsed program:

- ``sld_solve``: plain depth-first resolution with cut, exactly what a
  minimal Prolog would do, except derivation branches are pruned at a
  depth bound (and the result says whether pruning happened).
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
    canonicalize,
    max_var_id,
    rename_apart,
    unify,
    vars_of,
)

__all__ = [
    "OracleResult",
    "UnsupportedProgramError",
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

    @property
    def answer_set(self) -> frozenset:
        return frozenset(canonicalize(a) for a in self.answers)


class UnsupportedProgramError(Exception):
    """The program falls outside what this oracle can evaluate."""


# -- depth-bounded resolution ----------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class _SCut:
    origin: "_Frame"


@dataclass(frozen=True, slots=True, eq=False)
class _SAnswer:
    values: tuple[Term, ...]


class _Frame:
    __slots__ = ("parent", "items", "clause_ptr")

    def __init__(self, parent: "_Frame | None", items: tuple) -> None:
        self.parent = parent
        self.items = items
        self.clause_ptr = 0


def sld_solve(
    program: Program,
    query: Sequence[Struct],
    depth_bound: int,
    occurs_check: bool = False,
) -> OracleResult:
    """Enumerate answers depth-first with no tabling and no loop checking.

    Depth is the number of frames on the current branch; a branch about to
    exceed ``depth_bound`` is pruned and the run is flagged.  Answers may
    repeat; they are reported in discovery order.
    """
    fresh = FreshVars(max_var_id(query) + 1)
    qvars = tuple(vars_of(tuple(query)))
    answers: list[tuple[Term, ...]] = []
    exceeded = False

    root = _Frame(None, tuple(query) + (_SAnswer(qvars),))
    stack = [root]
    frame: _Frame | None = root

    def backtrack(fr: _Frame) -> _Frame | None:
        while True:
            assert stack and stack[-1] is fr
            stack.pop()
            parent = fr.parent
            if parent is None:
                return None
            phead = parent.items[0]
            if isinstance(phead, _SCut):
                origin = phead.origin
                cur = parent
                while cur is not origin:
                    popped = stack.pop()
                    assert popped is cur
                    cur = cur.parent
                fr = origin  # the cut fails the pruned call outright
                continue
            return parent

    while frame is not None:
        head = frame.items[0]
        if isinstance(head, _SAnswer):
            answers.append(head.values)
            frame = backtrack(frame)
            continue
        if isinstance(head, _SCut):
            if len(stack) >= depth_bound:
                exceeded = True
                frame = backtrack(frame)
                continue
            child = _Frame(frame, frame.items[1:])
            stack.append(child)
            frame = child
            continue
        # ordinary atom: try the next matching clause
        if len(stack) >= depth_bound:
            exceeded = True
            frame = backtrack(frame)
            continue
        clauses = program.by_predicate.get((head.functor, len(head.args)), ())
        child = None
        while frame.clause_ptr < len(clauses):
            cl = clauses[frame.clause_ptr]
            frame.clause_ptr += 1
            h, *body = rename_apart((cl.head,) + cl.body, fresh)
            theta = unify(head, h, occurs_check=occurs_check)
            if theta is None:
                continue
            items = tuple(
                _SCut(frame) if isinstance(b, Cut)
                else apply(b, theta)
                for b in body
            ) + tuple(
                it if isinstance(it, _SCut)
                else (_SAnswer(apply_tuple(it.values, theta)) if isinstance(it, _SAnswer)
                      else apply(it, theta))
                for it in frame.items[1:]
            )
            child = _Frame(frame, items)
            break
        if child is None:
            frame = backtrack(frame)
        else:
            stack.append(child)
            frame = child

    status = "depth-exceeded" if exceeded else "complete"
    return OracleResult(tuple(answers), status)


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
