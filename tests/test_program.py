import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from lintab.engine import tp_solve
from lintab.oracle import generate_program
from lintab.program import (
    CUT,
    ParseError,
    classify_tabled,
    dependency_graph,
    parse_program,
    parse_query,
)
from lintab.terms import Const, Struct, Var, format_tuple


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
    assert pr.tabled == {("reach", 2)}
    # a directive tables a predicate that is on no cycle
    assert parse_program(":- table e/2.\ne(a,b).\nf(a).\n").tabled == {("e", 2)}


def test_mutual_recursion_is_tabled_without_directive(load):
    pr = parse_program(load("p3.pl"))
    assert pr.tabled == {("p", 2), ("q", 2)}


def test_self_loop_through_other_args_is_tabled(load):
    # p calls p(b) inside its own body, so p sits on a dependency cycle
    pr = parse_program(load("p6.pl"))
    assert ("p", 1) in pr.tabled
    for key in (("q", 1), ("b", 0), ("c", 0)):
        assert key not in pr.tabled


def test_dependency_graph(load):
    g = dependency_graph(parse_program(load("p3.pl")).by_predicate)
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
    ],
)
def test_parse_errors_carry_position(src, fragment, line, col):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert fragment in exc.value.message
    assert exc.value.line == line
    assert exc.value.col == col
    assert f"(line {line}, column {col})" in str(exc.value)


# the engine's memo-looks are nodes, not goals, so no name is kept from
# programs: these parse and resolve as ordinary predicates
@pytest.mark.parametrize(
    "src, query, answers",
    [
        ("memo_look(a).", "memo_look(X)", ["(a)"]),
        ("p(a).\nq(a) :- return.\nreturn.", "q(X)", ["(a)"]),
        ("p :- q,\n  memo_look(a).\nq.\nmemo_look(a).", "p", ["()"]),
        ("p(a).\np(b).\nreturn(b).", "p(X), return(X)", ["(b)"]),
    ],
    ids=["memo_look-fact", "return-in-body", "memo_look-in-body", "return-in-query"],
)
def test_engine_control_names_are_ordinary_predicates(src, query, answers):
    result = tp_solve(src, query)
    assert (result.status, [format_tuple(a) for a in result.answers]) == ("complete", answers)


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


def _raises(parse, src):
    with pytest.raises(ParseError) as exc:
        parse(src)
    e = exc.value
    return e.message, e.line, e.col


# every raise site, with the position counted in characters from 1
@pytest.mark.parametrize(
    "src, message, line, col",
    [
        # unexpected character: after comments, tabs, CRLF, at the end
        ("% one\n% two, p(x).\n%\np(a).\n  # q(b).", "unexpected character '#'", 5, 3),
        ("p(a).\n\t\tq(\t$).", "unexpected character '$'", 2, 6),
        ("p(a).\r\nq(b).\r\n@", "unexpected character '@'", 3, 1),
        ("p(a).\r\nq(b) :- r(c) ?\r\n", "unexpected character '?'", 2, 14),
        ("p(a).\nq(b) :- p(a)?", "unexpected character '?'", 2, 13),
        # a lexical error anywhere wins over a syntax error before it
        ("p(a b).\nq(c) :- -", "unexpected character '-'", 2, 9),
        ("p :- q: r.", "unexpected character ':'", 1, 7),
        # directives
        (":- dynamic p/1.", "unknown directive 'dynamic'", 1, 4),
        (":- table p 2.", "expected '/', found '2'", 1, 12),
        (":- table p/x.", "expected 'int', found 'x'", 1, 12),
        (":- table p/1", "expected '.', found 'end of input'", 1, 13),
        (":- table.", "expected 'name', found '.'", 1, 9),
        (":- Table p/1.", "expected 'name', found 'Table'", 1, 4),
        # a missing '.'
        ("p(a)\nq(b).", "expected '.', found 'q'", 2, 1),
        ("p(a) :- q(a)\n", "expected '.', found 'end of input'", 2, 1),
        # terms
        ("p(f(a,g(b)).", "expected ')', found '.'", 1, 12),
        ("p(f(a,!)).", "expected a term, found '!'", 1, 7),
        ("p(q(\n", "expected a term, found 'end of input'", 2, 1),
    ],
)
def test_program_parse_error_sites(src, message, line, col):
    assert _raises(parse_program, src) == (message, line, col)


@pytest.mark.parametrize(
    "src, message, line, col",
    [
        ("p(X) q(Y)", "unexpected 'q' after query", 1, 6),
        ("p(X). q(Y)", "unexpected 'q' after query", 1, 7),
        ("p(X), !", "cut is not allowed in queries", 1, 7),
        ("!", "cut is not allowed in queries", 1, 1),
        ("", "expected 'name', found 'end of input'", 1, 1),
        ("  % nothing", "expected 'name', found 'end of input'", 1, 12),
        ("p(X),", "expected 'name', found 'end of input'", 1, 6),
        ("p(X), .", "expected 'name', found '.'", 1, 7),
        ("p(X) ; q(X)", "unexpected character ';'", 1, 6),
    ],
)
def test_query_parse_error_sites(src, message, line, col):
    assert _raises(parse_query, src) == (message, line, col)


def test_directive_arity_too_long_for_int_is_a_parse_error():
    digits = "1" * 5000
    message, line, col = _raises(parse_program, f"p.\n:- table p/{digits}.")
    assert (line, col) == (2, 12)
    assert "arity" in message


def _depth(t):
    n = 0
    while isinstance(t, Struct):
        assert t.functor == "s" and len(t.args) == 1
        t = t.args[0]
        n += 1
    return n, t


def test_parser_does_not_recurse_on_deep_terms():
    deep = "s(" * 10_000 + "{}" + ")" * 10_000
    head = parse_program(f"p({deep.format('z')}).").clauses[0].head
    assert _depth(head.args[0]) == (10_000, Const("z"))
    atoms, qvars = parse_query(f"p({deep.format('X')}, Y)")
    assert _depth(atoms[0].args[0])[0] == 10_000
    assert [v.name for v in qvars] == ["X", "Y"]


def test_parser_takes_wide_terms():
    wide = ",".join(f"a{i}" for i in range(10_000))
    head = parse_program(f"p(f({wide})).").clauses[0].head
    assert head.args[0].args == tuple(Const(f"a{i}") for i in range(10_000))
    atoms, _ = parse_query(f"p(f({wide}))")
    assert len(atoms[0].args[0].args) == 10_000


def _shape(pr):
    """Everything a parse decides, variable names included (``Var``
    equality compares ids only)."""
    return (repr(pr.clauses), [(k, [c.label for c in cs]) for k, cs in pr.by_predicate.items()],
            pr.tabled)


_LAYOUT = (" ", "  ", "\t", "\n", "\r\n", "% note, with (punct). X :-\n", "%\r\n")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), layout=st.randoms(use_true_random=False))
def test_layout_never_changes_the_parse(seed, layout):
    text, _ = generate_program(random.Random(seed))
    tokens = re.findall(r"[A-Za-z0-9_]+|:-|[(),.!/]", text)
    out = [tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        gap = "".join(layout.choice(_LAYOUT) for _ in range(layout.randint(0, 3)))
        if not gap and prev[-1].isalnum() and tok[0].isalnum():
            gap = " "
        out += [gap, tok]
    assert _shape(parse_program("".join(out))) == _shape(parse_program(text))
