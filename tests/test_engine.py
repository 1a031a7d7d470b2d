import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import lintab.engine
from lintab.engine import StepBudgetExceeded, TPEngine, tp_solve
from lintab.oracle import generate_program, sld_solve
from lintab.program import Program, parse_program, parse_query
from lintab.terms import (
    Const,
    CyclicTermError,
    FreshVars,
    canonicalize,
    format_tuple,
    rename_apart,
    unify,
)
from lintab.trace import check_clause_skip, check_stack_discipline, format_event


def answers_of(result):
    return [format_tuple(a) for a in result.answers]


def clause_labels(result):
    return [
        e.get("clause")
        for e in result.engine.events
        if e.kind == "expand" and e.get("clause") is not None
    ]


def assert_clean_trace(result):
    assert check_stack_discipline(result.engine.events) == []
    assert check_clause_skip(result.engine.events) == []


# -- reachability with a variant loop (three-clause reach) --------------


def test_reach_answers_in_order(load):
    r = tp_solve(load("p1.pl"), "reach(a,X)")
    assert r.status == "complete"
    assert answers_of(r) == ["(a)", "(b)", "(d)", "(e)"]
    assert r.engine.tables.dump() == [
        "TB(reach(a,_0)): answers=[(a),(b),(d),(e)] status=[1,0,0] comp=1"
    ]
    assert_clean_trace(r)


def test_reach_loop_is_detected_once(load):
    r = tp_solve(load("p1.pl"), "reach(a,X)")
    loops = [e for e in r.engine.events if e.kind == "loop-detected"]
    assert len(loops) >= 1


# -- answers reached only through the table (rotating triple) -----------


def test_rotation_yields_all_three(load):
    r = tp_solve(load("p2.pl"), "p(X,Y,Z)")
    assert answers_of(r) == ["(a,b,c)", "(b,c,a)", "(c,a,b)"]
    assert r.engine.tables.dump() == [
        "TB(p(_0,_1,_2)): answers=[(a,b,c),(b,c,a),(c,a,b)] status=[0,1] comp=1"
    ]
    assert_clean_trace(r)


# -- mutual recursion needing an extra evaluation pass -------------------


def test_mutual_recursion_answers(load):
    r = tp_solve(load("p3.pl"), "p(X,Y)")
    assert answers_of(r) == ["(a,b)", "(a,c)"]
    assert r.engine.tables.dump() == [
        "TB(p(_0,_1)): answers=[(a,b),(a,c)] status=[1] comp=1",
        "TB(q(_0,_1)): answers=[(a,b),(a,c)] status=[1,0] comp=0",
    ]
    assert_clean_trace(r)


def test_second_answer_arrives_during_iteration(load):
    r = tp_solve(load("p3.pl"), "p(X,Y)")
    ev = r.engine.events
    starts = [i for i, e in enumerate(ev) if e.kind == "iteration-start"]
    assert starts == [17, 44]
    late = [
        i
        for i, e in enumerate(ev)
        if e.kind == "memo"
        and e.get("new") == 1
        and canonicalize(e.get("tuple")) == (Const("a"), Const("c"))
    ]
    assert late and starts[0] < late[0]
    (end_idx, end), = [(i, e) for i, e in enumerate(ev) if e.kind == "iteration-end"]
    assert end_idx == 67
    assert end.get("iteration") == 2
    assert end.get("new") == 0 and end.get("comp") == 1


# -- cut inside a loop ----------------------------------------------------


def test_cut_prunes_clauses_and_later_facts(load):
    r = tp_solve(load("p4.pl"), "p(X,Y)")
    assert answers_of(r) == ["(a,b)", "(a,c)"]
    assert r.engine.tables.dump() == [
        "TB(p(_0,_1)): answers=[(a,b),(a,c)] status=[1,0,0,0] comp=1"
    ]
    memos = [
        (format_tuple(e.get("tuple")), e.get("new"))
        for e in r.engine.events
        if e.kind == "memo"
    ]
    assert memos == [("(a,b)", 1), ("(a,b)", 0), ("(a,c)", 1), ("(a,c)", 0)]
    assert ("(f,g)", 1) not in memos
    assert_clean_trace(r)


# -- negation as failure through cut and a loop ---------------------------


def test_negation_triple(load):
    yes1 = tp_solve(load("p5_1.pl"), "not_p(a)")
    no2 = tp_solve(load("p5_2.pl"), "not_p(a)")
    yes3 = tp_solve(load("p5_3.pl"), "not_p(a)")
    assert [bool(r.answers) for r in (yes1, no2, yes3)] == [True, False, True]
    assert all(r.status == "complete" for r in (yes1, no2, yes3))
    for r in (yes1, no2, yes3):
        assert_clean_trace(r)


def test_loop_breaking_completes_empty_table(load):
    r = tp_solve(load("p5_3.pl"), "not_p(a)")
    dumped = r.engine.tables.dump()
    assert any(line.startswith("TB(p(a)): answers=[]") and "comp=1" in line
               for line in dumped)


# -- cut does not isolate the two branches --------------------------------


def test_both_branches_execute(load):
    r = tp_solve(load("p6.pl"), "p(X)")
    assert answers_of(r) == ["(a)"]
    assert clause_labels(r) == ["p1", "q1", "p1", "p2", "c1", "b1"]
    assert r.engine.tables.dump() == [
        "TB(p(_0)): answers=[(a)] status=[0,0] comp=1",
        "TB(p(b)): answers=[()] status=[0,1] comp=1",
    ]
    assert_clean_trace(r)


# -- regression: independent inner loop must not hide outer answers -------

NESTED = """
p(X,Y) :- q(X,Y).
q(X,Y) :- p(X,Z), t(Z,Y).
q(a,b).
q(X,Y) :- iq(W).
iq(W) :- iq(W).
t(b,c).
"""


def test_inner_iteration_does_not_lose_outer_answers():
    r = tp_solve(NESTED, "p(X,Y)")
    assert r.status == "complete"
    assert r.answer_set == {
        (Const("a"), Const("b")),
        (Const("a"), Const("c")),
    }
    assert_clean_trace(r)


# -- engine options --------------------------------------------------------


@pytest.mark.parametrize("name, query", [("p1.pl", "reach(a,X)"), ("p3.pl", "p(X,Y)")])
def test_strict_mode_changes_no_answers(load, name, query):
    plain = tp_solve(load(name), query)
    strict = tp_solve(load(name), query, strict_alg2=True)
    assert plain.answer_set == strict.answer_set
    assert strict.status == "complete"


def test_step_budget_reported(load):
    r = tp_solve(load("p1.pl"), "reach(a,X)", step_budget=5)
    assert r.status == "resource-limit"

    engine = TPEngine(parse_program(load("p1.pl")), step_budget=5)
    atoms, _ = parse_query("reach(a,X)")
    with pytest.raises(StepBudgetExceeded):
        list(engine.solve(atoms))


def test_accepts_parsed_and_text_inputs(load):
    pr = parse_program(load("p1.pl"))
    atoms, _ = parse_query("reach(a,X)")
    assert tp_solve(pr, atoms).answer_set == tp_solve(load("p1.pl"), "reach(a,X)").answer_set


CYCLIC = "p(X) :- q(X,f(X)).\nq(Y,Y).\n"


def test_occurs_check_option():
    with pytest.raises(CyclicTermError):
        tp_solve(CYCLIC, "p(X)")
    r = tp_solve(CYCLIC, "p(X)", occurs_check=True)
    assert r.answers == [] and r.status == "complete"


def test_memo_event_carries_the_canonical_tuple():
    r = tp_solve(":- table p/2.\np(X,Y) :- q(X,Y).\nq(a,Z).\nq(W,b).\n", "p(X,Y)")
    memos = [e.get("tuple") for e in r.engine.events if e.kind == "memo"]
    assert [format_tuple(t) for t in memos] == ["(a,_0)", "(_0,b)"]
    assert all(t == canonicalize(t) for t in memos)


def test_each_answer_has_an_event(load):
    r = tp_solve(load("p1.pl"), "reach(a,X)")
    assert sum(1 for e in r.engine.events if e.kind == "answer") == len(r.answers)


# -- first-argument indexing ----------------------------------------------
# Indexing may skip only clauses whose head cannot match the call, so the
# clauses a call expands are exactly those whose renamed head unifies.

FIRST_ARGS = ["a", "b", "c", "X", "f(a)", "f(b)", "f(X)"]
clause_shapes = st.lists(
    st.tuples(st.sampled_from(FIRST_ARGS), st.sampled_from(["a", "b", "X", "Y"]), st.booleans()),
    min_size=1,
    max_size=8,
)


@settings(deadline=None)
@given(clause_shapes, st.sampled_from(["a", "d", "X", "f(a)", "f(X)"]),
       st.sampled_from(["Y", "a"]))
def test_indexing_expands_exactly_the_unifiable_clauses(shapes, first, second):
    lines = ["q(a).", "q(b)."]
    lines += [f"p({f},{s})" + (f" :- q({s})." if rule else ".") for f, s, rule in shapes]
    program = parse_program("\n".join(lines))
    (call,), _ = parse_query(f"p({first},{second})")
    r = tp_solve(program, (call,))
    expanded = [e.get("ord") for e in r.engine.events
                if e.kind == "expand" and e.get("source") == "clause" and e.get("parent") == 0]
    fresh = FreshVars(1000)
    assert expanded == [c.ordinal for c in program.by_predicate[("p", 2)]
                        if unify(call, rename_apart(c.head, fresh)) is not None]


MIXED_FIRST_ARGS = """
go(X,Y) :- first(X), pick(X,Y), check(Y).
first(a).
first(b).
pick(a,one).
pick(X,any).
pick(b,two).
pick(a,three) :- !.
pick(X,late).
pick(f(a),fun).
check(one).
check(any).
check(three).
check(late).
"""


def test_indexing_keeps_order_cut_and_resume_point():
    r = tp_solve(MIXED_FIRST_ARGS, "go(X,Y)")
    assert answers_of(r) == ["(a,one)", "(a,any)", "(a,three)", "(b,any)", "(b,late)"]
    # pick(a,Y) resumes after pick1 and pick2, skips pick3, and its cut in
    # pick4 prunes pick5; pick(b,Y) never reaches pick4 or pick6
    assert [(e.get("clause"), e.get("ord")) for e in r.engine.events
            if e.kind == "expand" and e.get("source") == "clause"] == [
        ("go1", 1), ("first1", 1), ("pick1", 1), ("check1", 1), ("pick2", 2),
        ("check2", 2), ("pick4", 4), ("check3", 3), ("first2", 2), ("pick2", 2),
        ("check2", 2), ("pick3", 3), ("pick5", 5), ("check4", 4),
    ]
    assert_clean_trace(r)


def graph_program(n, rule, cycle):
    edges = [f"edge(n{i},n{(i + 1) % n if cycle else i + 1})." for i in range(n)]
    return "\n".join([":- table reach/2.", rule, "reach(X,X).", *edges]) + "\n"


@pytest.mark.parametrize("rule, cycle, steps, events, answers", [
    ("reach(X,Y) :- reach(X,Z), edge(Z,Y).", False, 462, 823, 51),
    ("reach(X,Y) :- edge(X,Z), reach(Z,Y).", True, 10_850, 26_058, 50),
])
def test_graph_counts_are_pinned(rule, cycle, steps, events, answers):
    r = tp_solve(graph_program(50, rule, cycle), "reach(n0,Y)")
    assert r.status == "complete"
    assert (r.engine._steps, len(r.engine.events), len(r.answers)) == (steps, events, answers)


# -- the event sink ------------------------------------------------------
# Without a sink the engine builds no event; with one it streams exactly
# the events tp_solve records.

GOLDEN_QUERIES = (
    ("p1.pl", "reach(a,X)"),
    ("p2.pl", "p(X,Y,Z)"),
    ("p3.pl", "p(X,Y)"),
    ("p4.pl", "p(X,Y)"),
    ("p5_1.pl", "not_p(a)"),
    ("p5_2.pl", "not_p(a)"),
    ("p5_3.pl", "not_p(a)"),
    ("p6.pl", "p(X)"),
)
CUT_GOLDENS = GOLDEN_QUERIES[3:]  # p4 to p6 use cut
GRAPHS = {
    "left-chain-50": graph_program(50, "reach(X,Y) :- reach(X,Z), edge(Z,Y).", False),
    "right-cycle-50": graph_program(50, "reach(X,Y) :- edge(X,Z), reach(Z,Y).", True),
}


@pytest.mark.parametrize("name, query", [
    ("left-chain-50", "reach(n0,Y)"),
    ("right-cycle-50", "reach(n0,Y)"),
    *CUT_GOLDENS,
])
def test_no_sink_builds_no_event(monkeypatch, load, name, query):
    source = GRAPHS[name] if name in GRAPHS else load(name)
    recorded = tp_solve(source, query)

    def refuse(*args, **kwargs):
        raise AssertionError("an event was built without a sink")

    monkeypatch.setattr(lintab.engine, "event", refuse)
    engine = TPEngine(parse_program(source))
    atoms, _ = parse_query(query)
    assert list(engine.solve(atoms)) == recorded.answers
    assert engine._steps == recorded.engine._steps


@pytest.mark.parametrize("name, query", GOLDEN_QUERIES)
def test_user_sink_sees_the_recorded_events(load, name, query):
    source = load(name)
    seen = []
    engine = TPEngine(parse_program(source), sink=lambda ev: seen.append(format_event(ev)))
    atoms, _ = parse_query(query)
    list(engine.solve(atoms))
    assert seen == [format_event(e) for e in tp_solve(source, query).engine.events]


# -- the full golden traces ------------------------------------------------
# The event count and the sha256 of the formatted trace of each golden, so
# that any change to an event, its fields or their order shows.

GOLDEN_TRACES = {
    "p1.pl": (68, "ba8e37afc51679f860c92229788445acae409e2443725456e4d2ffff2bf14de9"),
    "p2.pl": (49, "258a9d2c6931d10406239706974fac723db0b5bbdb47aa741df135f36cab2bc6"),
    "p3.pl": (69, "0f494f488139051ad464a8c93c53897d79d46afb2ce30511d4431b754eabad39"),
    "p4.pl": (48, "c8e180b41cbd6dfbf59ee0ef53bdeb6d2fa6f8074feaec5ad8346a70c53422d3"),
    "p5_1.pl": (7, "fbf83c97c56313b0f42e860b95e3f5795c6dca573b7fa97725399b24abe67524"),
    "p5_2.pl": (8, "fd133635d07ffe1203e64202f96a3e318ffca9c355f5c16bb3562e4856cb5fa5"),
    "p5_3.pl": (11, "87dc032c11eeb627c568aebfa73e786f708b387570e38e4d2b1071f7313f630e"),
    "p6.pl": (25, "871e1bed33eae7b38918b8132b0350b927c881ce8b4d15b7f5479ed2edd6feb3"),
}


@pytest.mark.parametrize("name, query", GOLDEN_QUERIES)
def test_golden_trace_is_pinned(load, name, query):
    lines = [format_event(e) for e in tp_solve(load(name), query).engine.events]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == GOLDEN_TRACES[name]


# -- cut programs against depth-first resolution ----------------------------
# Where sld_solve completes, the engine gives its answers in its order, each
# variant once.


def with_cuts(src, rng):
    """Put ``!`` at a random place in about 60% of the rule bodies of a
    generated program, and turn about 15% of its facts into ``head :- !``."""
    lines = []
    for line in src.splitlines():
        if " :- " in line:
            head, body = line[:-1].split(" :- ")
            goals = re.findall(r"\w+(?:\([^)]*\))?", body)
            if rng.random() < 0.6:
                goals.insert(rng.randint(0, len(goals)), "!")
            line = f"{head} :- {', '.join(goals)}."
        elif not line.startswith(":-") and rng.random() < 0.15:
            line = f"{line[:-1]} :- !."
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_cut_programs_agree_with_sld_in_order():
    completed = 0
    for seed in range(500):
        rng = random.Random(seed)
        src, query = generate_program(rng)
        program = parse_program(with_cuts(src, rng))
        atoms, _ = parse_query(query)
        ref = sld_solve(program, atoms, depth_bound=6)
        if ref.status != "complete":
            continue
        completed += 1
        want = list(dict.fromkeys(canonicalize(a) for a in ref.answers))
        assert [canonicalize(a) for a in tp_solve(program, atoms).answers] == want, seed
    assert completed >= 200


def with_functions(src, rng):
    """Wrap about a third of the argument positions of a generated program
    in ``f(T)`` or ``g(T,T)``; directives are left as they are."""
    def wrap(m):
        arg = m.group()
        roll = rng.random()
        return f"f({arg})" if roll < 0.15 else f"g({arg},{arg})" if roll < 0.3 else arg

    return "".join(
        line if line.startswith(":-") else re.sub(r"(?<=[(,])\w+(?=[,)])", wrap, line)
        for line in src.splitlines(keepends=True)
    )


def test_function_symbol_programs_agree_with_sld():
    compared = 0
    for seed in range(500):
        rng = random.Random(seed)
        src, query = generate_program(rng)
        if rng.random() < 0.5:
            src = with_cuts(src, rng)
        src = with_functions(src, rng)
        program = parse_program(src)
        atoms, _ = parse_query(query)
        ref = sld_solve(program, atoms, depth_bound=6, occurs_check=True)
        if ref.status != "complete":
            continue
        compared += 1
        r = tp_solve(program, atoms, step_budget=20_000, occurs_check=True)
        assert r.status == "complete", seed
        want = list(dict.fromkeys(canonicalize(a) for a in ref.answers))
        got = [canonicalize(a) for a in r.answers]
        if "!" in src:
            assert got == want, seed
        else:
            assert set(got) == set(want), seed
    assert compared >= 200


# -- ancestors are read off the goal list -----------------------------------


def test_variant_is_found_across_an_untabled_call():
    # parse_program would table q, which is on the p-q cycle; left untabled
    # here, the variant p(X) below q(X) is still found
    parsed = parse_program("p(X) :- q(X).\nq(X) :- p(X).\nq(a).\n")
    program = Program(parsed.clauses, parsed.by_predicate, parsed.declared_tabled,
                      frozenset({("p", 1)}))
    r = tp_solve(program, "p(X)", step_budget=3000)
    assert (r.status, answers_of(r), r.engine._steps) == ("complete", ["(a)"], 16)


# -- answers that are not ground or not function-free -----------------------
# Every golden answer is a ground constant tuple, and no golden clause has a
# variable after its cut; these pin the paths a non-ground or compound
# answer takes through memo, fetch and renaming, and the renaming of bodies
# with variables after a cut: canonical answers, table dump, _steps, event
# count and trace sha256.

FALL_THROUGH = {
    "non-ground": (
        ":- table p/2.\np(X,Y) :- p(X,Y).\np(a,Y).\np(X,b).\n",
        "p(X,Y)",
        ["(a,_0)", "(_0,b)"],
        ["TB(p(_0,_1)): answers=[(a,_0),(_0,b)] status=[1,0,0] comp=1"],
        17, 40, "bd63ec80b91c8829e6bbf1dfb875665282938eac7c5820417aaf2d0ca0447838",
    ),
    "compound": (
        ":- table r/2.\nr(X,Y) :- r(X,Z), e(Z,Y).\nr(X,Y) :- e(X,Y).\n"
        "e(f(a),g(b)).\ne(g(b),f(a)).\ne(g(b),h(f(a),c)).\n",
        "r(f(a),Y)",
        ["(g(b))", "(f(a))", "(h(f(a),c))"],
        ["TB(r(f(a),_0)): answers=[(g(b)),(f(a)),(h(f(a),c))] status=[1,0] comp=1"],
        35, 63, "bb0b39f8367bffff721c74a724220a9f05345b54cc713f03bb2380b946db3a71",
    ),
    "mixed-with-cut": (
        ":- table p/2.\np(X,Y) :- p(X,Z), s(Z,Y).\np(a,f(W)).\np(b,g(b)).\n"
        "p(X,h(X)) :- q(X), !.\ns(f(V),g(V)) :- !.\ns(g(b),f(c)).\ns(h(a),k(a,_)).\n"
        "q(c).\nq(a).\n",
        "p(X,Y)",
        ["(a,f(_0))", "(a,g(_0))", "(a,f(c))", "(a,g(c))", "(b,g(b))", "(b,f(c))",
         "(b,g(c))", "(c,h(c))"],
        ["TB(p(_0,_1)): answers=[(a,f(_0)),(a,g(_0)),(a,f(c)),(a,g(c)),(b,g(b)),"
         "(b,f(c)),(b,g(c)),(c,h(c))] status=[1,0,0,0] comp=1"],
        73, 145, "c9a688c284dc62bf3e7cc8ba7b8f0bcf2d21509ea862cdf5140d9ab359228768",
    ),
    # each fetch renames the stored f(_0) apart, so A and B do not alias
    "fetched-twice": (
        ":- table p/1.\np(f(_)).\neq(X,X).\n",
        "p(A), p(B), eq(A,f(a)), eq(B,f(b))",
        ["(f(a),f(b))"],
        ["TB(p(_0)): answers=[(f(_0))] status=[0] comp=1"],
        12, 19, "f9e48ecf1f3f8062cc3151ac4026fb09b0d3d1009509f41da32e144bce1641a7",
    ),
    # clause variables whose first occurrence is after a cut (Y, then W and
    # Y) are renamed with the rest of the body, the cut kept in its place
    "var-after-cut": (
        "p(X) :- q(X), !, r(X,Y), s(Y).\np(c).\nq(a).\nq(b).\nr(a,d).\nr(a,e).\ns(e).\n",
        "p(X)",
        ["(a)"],
        [],
        10, 15, "628ca7572ba831f1cd2ccdecc09106e8fc0555ed4d6ebc521cd3e583612efd18",
    ),
    "var-after-cut-tabled": (
        ":- table p/2.\np(X,Y) :- p(X,Z), !, e(Z,W), f(W,Y).\np(X,Y) :- e(X,Y).\n"
        "e(a,b).\ne(b,c).\ne(c,d).\nf(c,g(c)).\nf(d,g(d)).\n",
        "p(a,Y)",
        ["(b)", "(g(c))"],
        ["TB(p(a,_0)): answers=[(b),(g(c))] status=[0,0] comp=1"],
        14, 30, "8a490a32331a411e9b488c50fa3dbed1518de9bf3cb6416cf33e9ac48271d16b",
    ),
}


@pytest.mark.parametrize("name", FALL_THROUGH)
def test_non_ground_and_compound_answers_are_pinned(name):
    source, query, answers, dump, steps, n_events, digest = FALL_THROUGH[name]
    r = tp_solve(source, query)
    assert r.status == "complete"
    assert [format_tuple(canonicalize(a)) for a in r.answers] == answers
    assert r.engine.tables.dump() == dump
    lines = [format_event(e) for e in r.engine.events]
    assert r.engine._steps == steps
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == (n_events, digest)
