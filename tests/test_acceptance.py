"""Acceptance checks, one test per criterion.

Criteria 1-6 pin the six worked examples end to end (answers, order, table
state, trace shape).  Criteria 7-10 run a 500-program randomized sweep once
per module and assert differential agreement with the bottom-up evaluator,
termination inside the step budget, trace discipline, and answer uniqueness.
Each test prints a one-line verdict so the -s output reads as a checklist.
"""

import time

import pytest

from goldens import GOLDEN_QUERIES
from lintab.engine import tp_solve
from lintab.oracle import bottomup_solve, constants_of, ground_expand, sld_solve
from lintab.program import parse_program, parse_query
from lintab.terms import Const, canonicalize, format_tuple
from runs import sweep as sweep_grid
from tracecheck import check_clause_skip, check_stack_discipline

SWEEP_SEEDS = 500
SWEEP_BUDGET = 10_000_000
SWEEP_TIME_LIMIT = 120.0


@pytest.fixture(scope="module")
def goldens(load):
    return {name: tp_solve(load(name), q) for name, q in GOLDEN_QUERIES}


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    runs = []
    for seed, _, src, query in sweep_grid(range(SWEEP_SEEDS), ("plain",)):
        program = parse_program(src)
        atoms, _ = parse_query(query)
        res = tp_solve(program, atoms, step_budget=SWEEP_BUDGET)
        entry = {"seed": seed, "status": res.status}
        if res.status == "complete":
            canon = [canonicalize(a) for a in res.answers]
            entry["duplicates"] = len(set(canon)) != len(canon)
            universe = constants_of(program, atoms)
            entry["match"] = ground_expand(res.answers, universe) == ground_expand(
                bottomup_solve(program, atoms).answers, universe
            )
            entry["trace_errors"] = check_stack_discipline(
                res.engine.events
            ) + check_clause_skip(res.engine.events)
        runs.append(entry)
    elapsed = time.perf_counter() - t0
    return {"elapsed": elapsed, "runs": runs}


def test_criterion_01_reachability_walkthrough(load):
    program = parse_program(load("p1.pl"))
    atoms, _ = parse_query("reach(a,X)")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        res = tp_solve(program, atoms)
        best = min(best, time.perf_counter() - t0)
    assert [format_tuple(a) for a in res.answers] == ["(a)", "(b)", "(d)", "(e)"]
    assert res.status == "complete"
    assert res.engine.tables.dump() == [
        "TB(reach(a,_0)): answers=[(a),(b),(d),(e)] status=[1,0,0] comp=1"
    ]
    assert best < 0.010
    print(
        f"\nACCEPTANCE 1: PASS - reach(a,X) = a,b,d,e in order, "
        f"table comp=1 status=[1,0,0], {best * 1000:.2f} ms"
    )


def test_criterion_02_rotation_terminates(goldens):
    res = goldens["p2.pl"]
    assert res.status == "complete"
    assert [format_tuple(a) for a in res.answers] == ["(a,b,c)", "(b,c,a)", "(c,a,b)"]
    assert len({canonicalize(a) for a in res.answers}) == 3
    print("\nACCEPTANCE 2: PASS - p(X,Y,Z) = exactly the three rotations, terminates")


def test_criterion_03_answer_arrives_in_iteration(goldens):
    res = goldens["p3.pl"]
    assert [format_tuple(a) for a in res.answers] == ["(a,b)", "(a,c)"]
    ev = res.engine.events
    starts = [i for i, e in enumerate(ev) if e.kind == "iteration-start"]
    late_memo = [
        i
        for i, e in enumerate(ev)
        if e.kind == "memo"
        and e.get("new") == 1
        and e.get("tuple") == (Const("a"), Const("c"))
    ]
    ends = [i for i, e in enumerate(ev) if e.kind == "iteration-end"]
    assert starts and late_memo and ends
    assert starts[0] < late_memo[0] < ends[-1]
    final = ev[ends[-1]]
    assert final.get("new") == 0 and final.get("comp") == 1
    print(
        "\nACCEPTANCE 3: PASS - (a,c) memoized inside an evaluation pass, "
        "closing pass sets comp=1 with new=0"
    )


def test_criterion_04_cut_prunes(goldens):
    res = goldens["p4.pl"]
    assert [format_tuple(a) for a in res.answers] == ["(a,b)", "(a,c)"]
    key = canonicalize(parse_query("p(X,Y)")[0][0])
    (table,) = [t for t in res.engine.tables.tables.values() if t.key == key]
    assert table.clause_status == [1, 0, 0, 0]
    memoed = {
        format_tuple(e.get("tuple")) for e in res.engine.events if e.kind == "memo"
    }
    assert "(f,g)" not in memoed
    print(
        "\nACCEPTANCE 4: PASS - answers (a,b),(a,c); clauses 2-4 cut away; "
        "p(f,g) never memoized"
    )


def test_criterion_05_negation_triple(goldens, load):
    verdicts = [
        bool(goldens[name].answers) for name in ("p5_1.pl", "p5_2.pl", "p5_3.pl")
    ]
    assert verdicts == [True, False, True]
    program = parse_program(load("p5_3.pl"))
    atoms, _ = parse_query("not_p(a)")
    for bound in (10, 50, 1000):
        assert sld_solve(program, atoms, depth_bound=bound).status == "depth-exceeded"
    print(
        "\nACCEPTANCE 5: PASS - not_p(a): yes/no/yes across the three variants; "
        "plain resolution exceeds any depth bound on the looping one"
    )


def test_criterion_06_both_branches_run(goldens):
    res = goldens["p6.pl"]
    labels = [
        e.get("clause")
        for e in res.engine.events
        if e.kind == "expand" and e.get("clause") is not None
    ]
    assert "c1" in labels and "b1" in labels
    assert [format_tuple(a) for a in res.answers] == ["(a)"]
    print("\nACCEPTANCE 6: PASS - trace expands both the b1 and c1 clauses")


def test_criterion_07_differential_agreement(sweep):
    completed = [r for r in sweep["runs"] if r["status"] == "complete"]
    mismatched = [r["seed"] for r in completed if not r["match"]]
    assert mismatched == []
    assert sweep["elapsed"] < SWEEP_TIME_LIMIT
    print(
        f"\nACCEPTANCE 7: PASS - {len(completed)}/{SWEEP_SEEDS} random programs "
        f"agree with the bottom-up evaluator in {sweep['elapsed']:.1f} s"
    )


def test_criterion_08_termination(sweep):
    overruns = [r["seed"] for r in sweep["runs"] if r["status"] != "complete"]
    assert overruns == []
    print(
        f"\nACCEPTANCE 8: PASS - all {SWEEP_SEEDS} random programs halt "
        f"within {SWEEP_BUDGET} steps"
    )


def test_criterion_09_stack_discipline(sweep, goldens):
    for name, res in goldens.items():
        assert check_stack_discipline(res.engine.events) == [], name
        assert check_clause_skip(res.engine.events) == [], name
    violations = [
        r["seed"] for r in sweep["runs"] if r.get("trace_errors")
    ]
    assert violations == []
    print(
        "\nACCEPTANCE 9: PASS - expand/backtrack stack discipline holds on all "
        "golden and randomized traces"
    )


def test_criterion_10_no_duplicate_answers(sweep, goldens):
    for name, res in goldens.items():
        canon = [canonicalize(a) for a in res.answers]
        assert len(set(canon)) == len(canon), name
    dups = [r["seed"] for r in sweep["runs"] if r.get("duplicates")]
    assert dups == []
    print(
        "\nACCEPTANCE 10: PASS - no query, golden or randomized, emitted two "
        "variant-equal answers"
    )
