import pytest

from lintab.program import (
    CUT,
    ParseError,
    classify_tabled,
    dependency_graph,
    parse_program,
    parse_query,
)
from lintab.terms import Const, Struct, Var


def test_parse_clauses_and_labels(load):
    pr = parse_program(load("p1.pl"))
    assert len(pr.clauses) == 5
    assert [c.label for c in pr.by_predicate[("reach", 2)]] == [
        "reach1",
        "reach2",
        "reach3",
    ]
    assert [c.ordinal for c in pr.by_predicate[("reach", 2)]] == [1, 2, 3]
    assert ("edge", 2) in pr.by_predicate


def test_directive_and_cycle_tabling(load):
    pr = parse_program(load("p1.pl"))
    assert pr.declared_tabled == {("reach", 2)}
    assert ("reach", 2) in pr.tabled
    assert ("edge", 2) not in pr.tabled


def test_mutual_recursion_is_tabled_without_directive(load):
    pr = parse_program(load("p3.pl"))
    assert pr.declared_tabled == frozenset()
    assert ("p", 2) in pr.tabled and ("q", 2) in pr.tabled
    assert ("t", 2) not in pr.tabled


def test_self_loop_through_other_args_is_tabled(load):
    # p calls p(b) inside its own body, so p sits on a dependency cycle
    pr = parse_program(load("p6.pl"))
    assert ("p", 1) in pr.tabled
    for key in (("q", 1), ("b", 0), ("c", 0)):
        assert key not in pr.tabled


def test_dependency_graph(load):
    g = dependency_graph(parse_program(load("p3.pl")))
    assert g[("p", 2)] == {("q", 2)}
    assert g[("q", 2)] == {("p", 2), ("t", 2)}


def test_zero_arity_and_cut_bodies(load):
    pr = parse_program(load("p6.pl"))
    first = pr.clauses[0]
    assert first.body[2] == CUT
    assert first.body[3] == Struct("b", ())


def test_clause_variables_are_scoped_per_clause():
    pr = parse_program("p(X).\nq(X).\n")
    v1 = pr.clauses[0].head.args[0]
    v2 = pr.clauses[1].head.args[0]
    assert isinstance(v1, Var) and isinstance(v2, Var)
    assert v1 != v2


def test_anonymous_variables_are_distinct():
    head = parse_program("p(_,_).\n").clauses[0].head
    assert head.args[0] != head.args[1]


@pytest.mark.parametrize(
    "src, fragment, line, col",
    [
        ("p(a", "expected ')'", 1, 4),
        ("p(a) :- q(a)", "expected '.'", 1, 13),
        ("P(a).", "expected 'name'", 1, 1),
        ("p(a,).", "expected a term", 1, 5),
        ("memo_look(a).", "reserved", 1, 1),
        ("p(a).\nq(a) :- return.", "reserved", 2, 9),
    ],
)
def test_parse_errors_carry_position(src, fragment, line, col):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert fragment in exc.value.message
    assert exc.value.line == line
    assert exc.value.col == col
    assert f"(line {line}, column {col})" in str(exc.value)


def test_comments_and_whitespace():
    pr = parse_program("% a comment\np(a).  % trailing\n\np(b).\n")
    assert len(pr.clauses) == 2


def test_parse_query_vars_first_occurrence():
    atoms, qvars = parse_query("e(X,Y), f(Y,Z)")
    assert len(atoms) == 2
    assert [v.name for v in qvars] == ["X", "Y", "Z"]


def test_parse_query_ground():
    atoms, qvars = parse_query("not_p(a).")
    assert atoms == (Struct("not_p", (Const("a"),)),)
    assert qvars == []


def test_parse_query_rejects_cut():
    with pytest.raises(ParseError, match="cut is not allowed"):
        parse_query("p(X), !")
