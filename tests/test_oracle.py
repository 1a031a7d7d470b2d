import random
import tracemalloc

import pytest

from lintab.cli import EXIT_OK, main
from lintab.oracle import (
    DepthBoundExceeded,
    UnsupportedProgramError,
    bottomup_solve,
    generate_program,
    ground_expand,
    sld_answers,
    sld_solve,
)
from lintab.program import parse_program, parse_query
from lintab.terms import Const, Struct, Var, format_tuple, vars_of


def solve_sld(src, query, bound):
    atoms, _ = parse_query(query)
    return sld_solve(parse_program(src), atoms, depth_bound=bound)


def solve_bottomup(src, query):
    atoms, _ = parse_query(query)
    return bottomup_solve(parse_program(src), atoms)


# -- depth-bounded resolution ----------------------------------------


def test_sld_plain_conjunction():
    src = "e(a,b).\ne(b,c).\npath2(X,Y) :- e(X,Z), e(Z,Y).\n"
    r = solve_sld(src, "path2(X,Y)", 50)
    assert r.status == "complete"
    assert [format_tuple(a) for a in r.answers] == ["(a,c)"]


def test_sld_left_recursion_never_completes(load):
    for bound in (10, 50, 200):
        r = solve_sld(load("p1.pl"), "reach(a,X)", bound)
        assert r.status == "depth-exceeded"


def test_sld_finds_answers_before_the_bound(load):
    r = solve_sld(load("p1.pl"), "reach(a,X)", 50)
    assert [format_tuple(a) for a in r.answers] == ["(b)", "(e)", "(a)", "(d)"]


def test_sld_memory_stays_linear_in_the_depth(load):
    tracemalloc.start()
    try:
        r = solve_sld(load("p1.pl"), "reach(a,X)", 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [format_tuple(a) for a in r.answers] == ["(b)", "(e)", "(a)", "(d)"]
    assert r.status == "depth-exceeded"
    assert peak < 5_000_000


def test_sld_answers_stream():
    program = parse_program("nat(z).\nnat(s(X)) :- nat(X).\n")
    atoms, _ = parse_query("nat(X)")
    assert next(sld_answers(program, atoms, depth_bound=10**6)) == (Const("z"),)


def test_sld_answers_raise_after_the_last_answer(load):
    atoms, _ = parse_query("reach(a,X)")
    answers = sld_answers(parse_program(load("p1.pl")), atoms, depth_bound=50)
    assert [format_tuple(next(answers)) for _ in range(4)] == ["(b)", "(e)", "(a)", "(d)"]
    with pytest.raises(DepthBoundExceeded):
        next(answers)


def test_sld_cut_semantics(load):
    # first clause: p(a) succeeds, cut commits, fail fails: no answer at all
    r = solve_sld(load("p5_2.pl"), "not_p(a)", 100)
    assert r.answers == () and r.status == "complete"
    # without the fact the cut is never reached
    r = solve_sld(load("p5_1.pl"), "not_p(a)", 100)
    assert r.answers == ((),) and r.status == "complete"


def test_sld_loop_is_only_broken_by_the_bound(load):
    for bound in (10, 50, 1000):
        r = solve_sld(load("p5_3.pl"), "not_p(a)", bound)
        assert r.status == "depth-exceeded"


# -- bottom-up fixpoint ------------------------------------------------


def test_bottomup_goldens(load):
    assert [format_tuple(a) for a in solve_bottomup(load("p1.pl"), "reach(a,X)").answers] == [
        "(a)", "(b)", "(d)", "(e)",
    ]
    assert [format_tuple(a) for a in solve_bottomup(load("p2.pl"), "p(X,Y,Z)").answers] == [
        "(a,b,c)", "(b,c,a)", "(c,a,b)",
    ]
    assert [format_tuple(a) for a in solve_bottomup(load("p3.pl"), "p(X,Y)").answers] == [
        "(a,b)", "(a,c)",
    ]


def test_bottomup_answers_are_sorted_ground_constants():
    r = solve_bottomup("e(b,a).\ne(a,b).\n", "e(X,Y)")
    assert [format_tuple(a) for a in r.answers] == ["(a,b)", "(b,a)"]
    assert all(isinstance(t, Const) for a in r.answers for t in a)


def test_bottomup_nonground_fact_uses_invented_universe():
    r = solve_bottomup("p(X).\n", "p(Y)")
    assert [format_tuple(a) for a in r.answers] == ["(u0)"]


def test_bottomup_rejects_functions_and_cuts():
    with pytest.raises(UnsupportedProgramError):
        solve_bottomup("p(f(a)).\n", "p(X)")
    with pytest.raises(UnsupportedProgramError):
        solve_bottomup("p(a) :- q(a), !.\nq(a).\n", "p(X)")


def test_a_long_body_and_query_join_without_recursion(tmp_path, capsys):
    # a frame per goal would pass Python's recursion limit
    goals = ", ".join(["q"] * 1500)
    source = f"p :- {goals}.\nq.\n"
    prog = tmp_path / "long.pl"
    prog.write_text(source)
    for query in ("p", goals):
        assert solve_bottomup(source, query).answers == ((),)
        assert main(["run", str(prog), "-q", query, "--engine", "bottomup"]) == EXIT_OK
        assert capsys.readouterr() == ("yes\n", "")


def test_ground_expand():
    assert ground_expand([(Const("a"),)], ["a", "b"]) == {("a",)}
    got = ground_expand([(Var(0, "X"), Const("a"))], ["a", "b"])
    assert got == {("a", "a"), ("b", "a")}
    # one variable used twice ranges jointly
    got = ground_expand([(Var(0, "X"), Var(0, "X"))], ["a", "b"])
    assert got == {("a", "a"), ("b", "b")}


# -- random program generator -----------------------------------------


def test_generator_is_deterministic():
    assert generate_program(random.Random(7)) == generate_program(random.Random(7))
    assert generate_program(random.Random(7)) != generate_program(random.Random(8))


@pytest.mark.parametrize("seed", range(0, 50))
def test_generated_programs_stay_inside_the_envelope(seed):
    src, query = generate_program(random.Random(seed))
    pr = parse_program(src)
    assert 1 <= len(pr.clauses) <= 12
    assert len({c.pred[0] for c in pr.clauses}) <= 4
    for c in pr.clauses:
        assert len(c.head.args) <= 2
        assert len(c.body) <= 3
        # function-free and range-restricted
        body_vars = set(vars_of(tuple(b for b in c.body)))
        for arg in c.head.args:
            assert isinstance(arg, (Const, Var))
            if isinstance(arg, Var):
                assert arg in body_vars
        for b in c.body:
            assert isinstance(b, Struct)
            assert all(isinstance(a, (Const, Var)) for a in b.args)
    atoms, _ = parse_query(query)
    assert len(atoms) == 1
    assert src.startswith(f":- table {atoms[0].functor}/{len(atoms[0].args)}.\n")
    assert (atoms[0].functor, len(atoms[0].args)) in pr.tabled
