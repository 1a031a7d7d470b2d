"""Benchmark inputs and the references their answers are checked against.

A workload is a list of ``Query`` objects: program text, query text and a
``check`` that takes the engine's answer tuples and returns an error string
or None.  Everything here is computed before any timing starts.

- ``chain-left``: left-recursive ``reach(n0,Y)`` over chains.  One table,
  one loop; the time goes to clause selection scanning the edge facts, and
  the cost per step grows with N.
- ``cycle-right``: right-recursive ``reach(n0,Y)`` over cycles.  One
  strongly connected component of N tables, re-evaluated in passes with a
  quadratic number of steps and mostly duplicate memos.
- ``sweep``: the 500 random programs of the acceptance sweep (generator
  seeds 0-499), many small tables and mutual recursion.

For the two graph workloads the seed shuffles the order of the edge facts,
which leaves answers, answer order and step counts unchanged.  For the
sweep the seed shuffles the order in which the 500 programs run.  Drawing
a fresh set of 500 generator seeds per run was measured instead: the
per-program cost is so heavy-tailed (a few programs take 100k-200k steps,
and about one in 200 runs past 300k steps and gigabytes of memory) that
the total of a 500-program draw spreads by about 80% of its median from
draw to draw, which no bound can absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import lintab.oracle as oracle
import lintab.program as program_mod
from lintab.engine import tp_solve
from lintab.terms import canonicalize, format_tuple

CHAIN_SIZES = (100, 200, 400, 800)
CYCLE_SIZES = (100, 150)
SWEEP_PROGRAMS = 500


@dataclass(frozen=True)
class Query:
    label: str
    program: str
    query: str
    check: Callable[[list], str | None]


def _graph_program(edges: list[tuple[int, int]], rule: str) -> str:
    lines = [":- table reach/2.", rule, "reach(X,X)."]
    lines += [f"edge(n{a},n{b})." for a, b in edges]
    return "\n".join(lines) + "\n"


def _reachable(edges: list[tuple[int, int]], start: int) -> set[int]:
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen = {start}
    todo = [start]
    while todo:
        for b in succ.get(todo.pop(), ()):
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def _order_check(expected: list[str]) -> Callable[[list], str | None]:
    def check(answers: list) -> str | None:
        got = [a[0].name for a in answers]
        if got == expected:
            return None
        return f"{len(got)} answers not in the closed-form order of {len(expected)}"
    return check


def _graph_query(label: str, edges: list[tuple[int, int]], rule: str,
                 order: list[int]) -> Query:
    # the walk is the answer-set reference; the closed form gives the order
    if set(order) != _reachable(edges, 0) or len(order) != len(set(order)):
        raise AssertionError(f"{label}: closed-form order disagrees with the walk")
    return Query(label, _graph_program(edges, rule), "reach(n0,Y)",
                 _order_check([f"n{i}" for i in order]))


def chain_left(seed: int) -> list[Query]:
    rng = random.Random(seed)
    out = []
    for n in CHAIN_SIZES:
        edges = [(i, i + 1) for i in range(n)]
        rng.shuffle(edges)
        out.append(_graph_query(f"chain{n}", edges,
                                "reach(X,Y) :- reach(X,Z), edge(Z,Y).",
                                list(range(n + 1))))
    return out


def cycle_right(seed: int) -> list[Query]:
    rng = random.Random(seed)
    out = []
    for n in CYCLE_SIZES:
        edges = [(i, (i + 1) % n) for i in range(n)]
        rng.shuffle(edges)
        out.append(_graph_query(f"cycle{n}", edges,
                                "reach(X,Y) :- edge(X,Z), reach(Z,Y).",
                                [0] + list(range(n - 1, 0, -1))))
    return out


def _sweep_check(text: str, query: str) -> Callable[[list], str | None]:
    prog = program_mod.parse_program(text)
    atoms, _ = program_mod.parse_query(query)
    universe = oracle.constants_of(prog, atoms)
    expected = oracle.ground_expand(oracle.bottomup_solve(prog, atoms).answers, universe)

    def check(answers: list) -> str | None:
        canon = [canonicalize(a) for a in answers]
        if len(set(canon)) != len(canon):
            return "variant-duplicate answers"
        if oracle.ground_expand(answers, universe) != expected:
            return "ground answers differ from bottomup_solve"
        return None
    return check


def sweep(seed: int) -> list[Query]:
    out = []
    for gen_seed in range(SWEEP_PROGRAMS):
        text, query = oracle.generate_program(random.Random(gen_seed))
        out.append(Query(f"gen{gen_seed}", text, query, _sweep_check(text, query)))
    random.Random(seed).shuffle(out)
    return out


WORKLOADS = {"chain-left": chain_left, "cycle-right": cycle_right, "sweep": sweep}


# -- goldens ----------------------------------------------------------
# The eight example programs of the acceptance tests with their pinned
# answers in emission order; p1's table dump is pinned as well.

GOLDENS = (
    ("p1", ":- table reach/2.\nreach(X,Y) :- reach(X,Z), edge(Z,Y).\nreach(X,X).\n"
           "reach(X,d).\nedge(a,b).\nedge(d,e).\n",
     "reach(a,X)", ["(a)", "(b)", "(d)", "(e)"]),
    ("p2", ":- table p/3.\np(a,b,c).\np(X,Y,Z) :- p(Z,X,Y).\n",
     "p(X,Y,Z)", ["(a,b,c)", "(b,c,a)", "(c,a,b)"]),
    ("p3", "p(X,Y) :- q(X,Y).\nq(X,Y) :- p(X,Z), t(Z,Y).\nq(a,b).\nt(b,c).\n",
     "p(X,Y)", ["(a,b)", "(a,c)"]),
    ("p4", "p(X,Y) :- p(X,Z), t(Z,Y).\np(X,Y) :- p(X,Y), !.\np(a,b).\np(f,g).\nt(b,c).\n",
     "p(X,Y)", ["(a,b)", "(a,c)"]),
    ("p5_1", "not_p(X) :- p(X), !, fail.\nnot_p(X).\n", "not_p(a)", ["()"]),
    ("p5_2", "not_p(X) :- p(X), !, fail.\nnot_p(X).\np(a).\n", "not_p(a)", []),
    ("p5_3", "not_p(X) :- p(X), !, fail.\nnot_p(X).\np(X) :- p(X).\n", "not_p(a)", ["()"]),
    ("p6", "p(X) :- q(X), p(b), !, b.\np(X) :- c.\nq(a).\nb.\nc.\n", "p(X)", ["(a)"]),
)
P1_DUMP = ["TB(reach(a,_0)): answers=[(a),(b),(d),(e)] status=[1,0,0] comp=1"]


def check_goldens() -> list[str]:
    """One error per failing golden query; the cut-free ones are also
    checked against ``bottomup_solve``."""
    errors = []
    for name, text, query, expected in GOLDENS:
        res = tp_solve(text, query)
        got = [format_tuple(a) for a in res.answers]
        problems = []
        if res.status != "complete" or got != expected:
            problems.append(f"{res.status} {got}, expected {expected}")
        if name == "p1" and res.engine.tables.dump() != P1_DUMP:
            problems.append(f"table dump {res.engine.tables.dump()}")
        if "!" not in text:
            prog = program_mod.parse_program(text)
            atoms, _ = program_mod.parse_query(query)
            universe = oracle.constants_of(prog, atoms)
            if oracle.ground_expand(res.answers, universe) != oracle.ground_expand(
                    oracle.bottomup_solve(prog, atoms).answers, universe):
                problems.append("disagrees with bottomup_solve")
        if problems:
            errors.append(f"golden {name}: " + "; ".join(problems))
    return errors
