import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from goldens import CUT_GOLDENS, GOLDEN_QUERIES
import lintab.engine
from lintab.cli import EXIT_OK, main
from lintab.engine import DEFAULT_STEP_BUDGET, StepBudgetExceeded, TPEngine, _compile, tp_solve
from lintab.oracle import bottomup_solve, constants_of, generate_program, ground_expand, sld_solve
from lintab.program import Program, parse_program, parse_query
from lintab.tables import TableStore
from lintab.terms import (
    Const,
    CyclicTermError,
    FreshVars,
    Struct,
    Var,
    _ground,
    apply,
    canonicalize,
    format_term,
    format_tuple,
    rename_apart,
    unify,
    vars_of,
)
from lintab.trace import format_event
from rewrites import with_cuts, with_functions, with_var_heads
from runs import MODES, Capped, capped, digest, graphs, reach_program, solved, sweep
from tracecheck import check_clause_skip, check_stack_discipline


def answers_of(result):
    return [format_tuple(a) for a in result.answers]


def answer_set(result):
    return frozenset(canonicalize(a) for a in result.answers)


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
    assert answer_set(r) == {
        (Const("a"), Const("b")),
        (Const("a"), Const("c")),
    }
    assert_clean_trace(r)


# -- engine options --------------------------------------------------------


@pytest.mark.parametrize("name, query", [("p1.pl", "reach(a,X)"), ("p3.pl", "p(X,Y)")])
def test_strict_mode_changes_no_answers(load, name, query):
    plain = tp_solve(load(name), query)
    strict = tp_solve(load(name), query, strict_alg2=True)
    assert answer_set(plain) == answer_set(strict)
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
    assert answer_set(tp_solve(pr, atoms)) == answer_set(tp_solve(load("p1.pl"), "reach(a,X)"))


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
    return reach_program([(i, (i + 1) % n if cycle else i + 1) for i in range(n)], rule)


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


# -- independent runs --------------------------------------------------------
# Each solve starts from fresh tables, bindings and trail, whatever the run
# before it left behind.


@pytest.mark.parametrize("name, query", GOLDEN_QUERIES)
def test_a_rerun_after_an_early_exit_matches_a_fresh_run(load, name, query):
    program = parse_program(load(name))
    atoms, _ = parse_query(query)
    fresh = TPEngine(program)
    want = list(fresh.solve(atoms))
    assert fresh._trail == []
    engine = TPEngine(program)
    run = engine.solve(atoms)
    next(run, None)
    run.close()
    assert (list(engine.solve(atoms)), engine._steps) == (want, fresh._steps)
    engine.step_budget = fresh._steps // 2
    with pytest.raises(StepBudgetExceeded):
        list(engine.solve(atoms))
    engine.step_budget = DEFAULT_STEP_BUDGET
    assert (list(engine.solve(atoms)), engine._steps) == (want, fresh._steps)
    assert engine._trail == []


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
    events = tp_solve(load(name), query).engine.events
    assert digest(map(format_event, events)) == GOLDEN_TRACES[name]


# -- cut programs against depth-first resolution ----------------------------
# Where sld_solve completes, the engine gives its answers in its order, each
# variant once.


def test_cut_programs_agree_with_sld_in_order():
    completed = 0
    for seed, _, src, query in sweep(range(500), ("with_cuts",)):
        program = parse_program(src)
        atoms, _ = parse_query(query)
        ref = sld_solve(program, atoms, depth_bound=6)
        if ref.status != "complete":
            continue
        completed += 1
        want = list(dict.fromkeys(canonicalize(a) for a in ref.answers))
        assert [canonicalize(a) for a in tp_solve(program, atoms).answers] == want, seed
    assert completed >= 200


# -- the sweep, pinned ------------------------------------------------------
# One sha256 over how each sweep run ends, its canonical answers in order and
# its tables, plain and with cuts, by default and under strict_alg2: a change
# to any answer, its order or a table shows here.  Steps and events are left
# out, so a change that only saves steps re-pins nothing.

SWEEP_DIGEST = "c04fc4ff4984b7d8cc9ee811813d1ecd51a2657da963bc370492272c765ea80c"


def test_sweep_answers_and_tables_are_pinned():
    # untraced, as the answers and tables do not depend on a sink
    lines = []
    for options in (MODES["default"], MODES["strict_alg2"]):
        for rewrite in ("plain", "with_cuts"):
            for _, _, src, query in sweep(range(500), (rewrite,)):
                status, answers, *_, dump = solved(TPEngine(parse_program(src), **options), query)
                answers = " ".join(format_tuple(canonicalize(a)) for a in answers)
                lines.append(f"{status} {answers} {dump}")
    assert digest(lines)[1] == SWEEP_DIGEST


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


def test_variable_heavy_heads_agree_with_sld_in_order():
    # heads with a repeated variable or a nested compound reach the paths
    # of head matching that the sweep's flat heads almost never do
    compared = repeated = nested = 0
    for seed in range(300):
        rng = random.Random(seed)
        src, query = generate_program(rng)
        src = with_var_heads(src, rng)
        if seed % 2:
            src = with_functions(src, rng)
        program = parse_program(src)
        atoms, _ = parse_query(query)
        ref = sld_solve(program, atoms, depth_bound=6, occurs_check=True)
        if ref.status != "complete":
            continue
        compared += 1
        heads = [c.head.args for c in program.clauses]
        repeated += any(len(vars_of(h)) < sum(type(a) is Var for a in h) for h in heads)
        nested += any(type(a) is Struct and vars_of(a) for h in heads for a in h)
        r = tp_solve(program, atoms, step_budget=20_000, occurs_check=True)
        assert r.status == "complete", seed
        want = list(dict.fromkeys(canonicalize(a) for a in ref.answers))
        assert [canonicalize(a) for a in r.answers] == want, seed
    assert compared >= 120 and repeated >= 40 and nested >= 50


# -- ancestors are read off the goal list -----------------------------------


def test_variant_is_found_across_an_untabled_call():
    # parse_program would table q, which is on the p-q cycle; left untabled
    # here, the variant p(X) below q(X) is still found
    parsed = parse_program("p(X) :- q(X).\nq(X) :- p(X).\nq(a).\n")
    program = Program(parsed.clauses, parsed.by_predicate, frozenset({("p", 1)}))
    r = tp_solve(program, "p(X)", step_budget=3000)
    assert (r.status, answers_of(r), r.engine._steps) == ("complete", ["(a)"], 16)


# -- ground terms are their own copies --------------------------------------
# A ground answer is bound as stored and a ground table key is its own clause
# copy; anything else is renamed apart on every use.

SHARED = ":- table p/2.\np(f(X), X).\np(a, b).\np(g(Y, Z), h(Z)).\n"


def test_non_ground_answers_get_fresh_variables_on_each_fetch():
    r = tp_solve(SHARED, "p(A, B), p(C, D)")
    assert answers_of(r) == [
        "(f(_G7),_G7,f(_G8),_G8)", "(f(_G7),_G7,a,b)", "(f(_G7),_G7,g(_G14,_G15),h(_G15))",
        "(a,b,f(_G16),_G16)", "(a,b,a,b)", "(a,b,g(_G17,_G18),h(_G18))",
        "(g(_G19,_G20),h(_G20),f(_G21),_G21)", "(g(_G19,_G20),h(_G20),a,b)",
        "(g(_G19,_G20),h(_G20),g(_G22,_G23),h(_G23))",
    ]
    # the answer (f(_0),_0), fetched once for each call
    a, b, c, d = r.answers[0]
    assert a.args[0] is b and c.args[0] is d and b is not d


def test_ground_answers_and_keys_are_used_as_stored(monkeypatch):
    copies = {}
    clause_child = TPEngine._clause_child

    def record(self, node):
        if node.table is not None:
            copies[format_term(node.table.key)] = node.atom
        return clause_child(self, node)

    monkeypatch.setattr(TPEngine, "_clause_child", record)
    r = tp_solve(SHARED, "p(X, b), p(a, b)")
    assert answers_of(r) == ["(f(b))", "(a)"]
    keyed = {format_term(t.key): t for t in r.engine.tables.tables.values()}
    assert list(keyed) == ["p(_0,b)", "p(a,b)"]
    # the ground answers are bound as stored, p(a,b) is its own copy, and
    # p(_0,b) is renamed apart
    assert [id(x[0]) for x in r.answers] == [id(y[0]) for y in keyed["p(_0,b)"].answers]
    assert copies["p(a,b)"] is keyed["p(a,b)"].key
    assert format_term(copies["p(_0,b)"]) == "p(_G1,b)"


def test_a_tabled_call_on_a_cyclic_binding_raises():
    # without the occurs check p(Y,Y) binds Z to f(Z); the tabled call s(a,Z)
    # then meets it when it looks up its table
    src = ":- table s/2.\np(X,f(X)).\nq(Y) :- p(Y,Y), s(a,Y).\ns(_,_).\n"
    with pytest.raises(CyclicTermError, match="^cyclic binding through Z$"):
        tp_solve(src, "q(Z)")


# -- pinned runs ----------------------------------------------------------------
# Runs down paths the goldens miss, each pinned end to end: canonical answers
# (or the exception the run raises), table dump, _steps, event count and
# trace sha256; a complete run's trace also passes both trace checks.
#
# Every golden answer is a ground constant tuple, and no golden clause has a
# variable after its cut: the first entries pin the paths a non-ground or
# compound answer takes through memo, fetch and renaming, and the renaming of
# bodies with variables after a cut.  Then clauses the matcher rejects or
# admits: every clause, ground or not, is tried by matching the call against
# its template, here a constant inside a head compound met by a different
# one, ground heads met by a repeated variable, and a ground compound head met
# by a partly bound call, pinned the same with and without the occurs check.
# Last, followers that run out of clauses after a deeper loop over their path
# was flagged, or under ancestors whose clauses cut before calling them: the
# flags their first search set still hold then, so they search no more; and a
# loop whose only pass adds nothing, after an answer was memoized before the
# pass began: its iteration-end says new=1.

EQ_HEADS = ":- table e/2.\ne(X,Y) :- eq(X,Y).\ne(X,Y) :- eq(f(X),Y).\neq(X,X).\n"
NESTED_HEAD = ":- table p/1.\np(f(X,g(Y,X))) :- q(Y).\nq(b).\nq(c).\n"
CYCLIC_HEAD = "p(X,f(X)).\nq(Y) :- p(Y,Y), r, s(Y).\nq(a).\nr.\ns(_).\n"
NO_CLAUSE = ([], [], 1, 2, "5ee33db64cc9d1d47e07453c9ca92502e830c893934e5bee5f9446f257f04611")

# name: source, query, answers, dump, steps, event count, sha256
PINNED = {
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
    # a repeated head variable met by two unbound variables, by a variable
    # and a compound, and by two different constants
    "repeated-var-two-vars": (
        EQ_HEADS, "e(A,B)",
        ["(_0,_0)", "(_0,f(_0))"],
        ["TB(e(_0,_1)): answers=[(_0,_0),(_0,f(_0))] status=[0,0] comp=1"],
        11, 20, "823d7ce6236cfa6a2c5d2a8cb5301c26d2b0c8820037fe06b7a8ad372c946115",
    ),
    "repeated-var-and-compound": (
        EQ_HEADS, "e(A,f(B))",
        ["(f(_0),_0)", "(_0,_0)"],
        ["TB(e(_0,f(_1))): answers=[(f(_0),_0),(_0,_0)] status=[0,0] comp=1"],
        11, 20, "fc949f65f28b301c15127f238fcae171bd341925bb5c0cb2c42ff13d343d45c5",
    ),
    "repeated-var-two-constants": (
        EQ_HEADS, "e(a,b)",
        [],
        ["TB(e(a,b)): answers=[] status=[0,0] comp=1"],
        5, 6, "d7a5390a2077ba4f8cbfbf66442cde969a0c3af31d97c6ec263559f2a70dd4da",
    ),
    # a nested head compound met by an unbound variable, which binds to the
    # head built with fresh variables, by a partly bound compound, and by a
    # mismatching one
    "nested-head-unbound": (
        NESTED_HEAD, "p(V)",
        ["(f(_0,g(b,_0)))", "(f(_0,g(c,_0)))"],
        ["TB(p(_0)): answers=[(f(_0,g(b,_0))),(f(_0,g(c,_0)))] status=[0] comp=1"],
        9, 18, "064c3e2a34710250542b34c5e0f47f9353ece45381768b2b42a4276f7d45daf0",
    ),
    "nested-head-partly-bound": (
        NESTED_HEAD, "p(f(a,Z))",
        ["(g(b,a))", "(g(c,a))"],
        ["TB(p(f(a,_0))): answers=[(g(b,a)),(g(c,a))] status=[0] comp=1"],
        9, 18, "70d5c10abadc5334176ec7527262568c9455ce2310f3b180119067b76876e592",
    ),
    "nested-head-mismatch": (
        NESTED_HEAD, "p(h(a))",
        [],
        ["TB(p(h(a))): answers=[] status=[1] comp=1"],
        1, 2, "5ee33db64cc9d1d47e07453c9ca92502e830c893934e5bee5f9446f257f04611",
    ),
    # Z, W and V occur only in the recursive clause's body
    "body-only-vars-tabled": (
        ":- table path/2.\npath(X,Y) :- path(X,Z), edge(Z,W), link(W,V,Y).\n"
        "path(X,Y) :- edge(X,Y).\nedge(a,b).\nedge(b,c).\nedge(c,a).\nlink(W,W,W).\n",
        "path(a,Y)",
        ["(b)", "(c)", "(a)"],
        ["TB(path(a,_0)): answers=[(b),(c),(a)] status=[1,0] comp=1"],
        47, 75, "d0fc096665aa99344ff054610acac6bd0bf87fbc42d64ceda305436b2753e269",
    ),
    # p(X,f(X)) called as p(Y,Y): the occurs check fails the match; without
    # it Y is bound to f(Y), and the call s(Y) that reads it raises
    "cyclic-occurs-check": (
        CYCLIC_HEAD, "q(Z)",
        ["(a)"],
        [],
        5, 7, "1debc6624ece779a4085c60ee638c3757dd38fe3483e20a130baeeb8b55237db",
    ),
    "cyclic-no-occurs-check": (
        CYCLIC_HEAD, "q(Z)",
        CyclicTermError,
        [],
        4, 4, "64cc9f698875b69e4deffbf06b32eddc350192cfac94357224ab12413ff7b9bf",
    ),
    "head-constant-differs": ("q(f(a,X)).\n", "q(f(b,Y))", *NO_CLAUSE),
    "head-constant-same": (
        "q(f(a,X)).\n", "q(f(a,Y))",
        ["(_0)"], [], 3, 5, "4771cfe2c2cc60257eedfb5725221c5faf683d91d7e9864c257c134ab018d9e5",
    ),
    "ground-repeated-var-same": (
        "p(f(a),f(a)).\n", "p(X,X)",
        ["(f(a))"], [], 3, 5, "e4acf8ae86a7fc9a95910fdff72b8e70ab412926eb652f4832bdb174efcd5738",
    ),
    "ground-repeated-var-differs": ("p(f(a),f(b)).\n", "p(X,X)", *NO_CLAUSE),
    "ground-compound-partly-bound": (
        "p(f(a),g(b)).\n", "p(f(X),Y)",
        ["(a,g(b))"], [], 3, 5, "21185a9c5c3fa37ebb8687bfd34d72b8e15f1b3ad71101cbabbf9e0852ae6156",
    ),
    "ground-compound-differs": ("p(f(a),g(b)).\n", "p(f(b),Y)", *NO_CLAUSE),
    # p(X) -> q(X) -> p(X) and q(X) -> q(Y): two loops over one path
    "follower-deeper-loop": (
        ":- table p/1.\n:- table q/1.\np(X) :- q(X).\nq(X) :- p(X).\nq(X) :- q(Y), e(Y,X).\n"
        "q(a).\ne(a,b).\n", "p(X)",
        ["(a)", "(b)"],
        ["TB(p(_0)): answers=[(a),(b)] status=[1] comp=1",
         "TB(q(_0)): answers=[(a),(b)] status=[1,1,0] comp=0"],
        39, 73, "fbf424f7d573c5c46b8b10183a7d2b80622617119eddf68979af31488fe58597",
    ),
    "follower-cut": (
        ":- table p/1.\np(X) :- e(X,_), !, p(X).\np(b).\ne(a,b).\ne(b,a).\n", "p(X)",
        [],
        ["TB(p(_0)): answers=[] status=[0,0] comp=1", "TB(p(a)): answers=[] status=[1,1] comp=1"],
        9, 16, "9584693919c3b9cb19759efdeef0b22a6a3a0df994d59c73492e6f6b046a3c6b",
    ),
    "follower-cut-cycle": (
        ":- table p/2.\np(X,Y) :- e(X,Z), !, p(Z,Y).\np(X,X).\ne(a,b).\ne(b,a).\n", "p(a,Y)",
        ["(a)"],
        ["TB(p(a,_0)): answers=[(a)] status=[1,0] comp=1",
         "TB(p(b,_0)): answers=[(a)] status=[1,1] comp=0"],
        26, 53, "6e69e6b196e0ffc4022c4ae592736030af3a8b0d0733d0d503a0465c36e5176e",
    ),
    # p(X,Y) has the own variable Y: (a,b), (_0,d) and (f(_0),a) repeat
    # the projections (a), (_0) and (f(_0)) of answers fetched since the
    # last new memo, and (f(_0),a) is skipped
    "projected-non-ground": (
        ":- table p/2.\n:- table q/1.\np(a,Y).\np(X,c).\np(f(Z),Z).\np(a,b).\np(X,d).\n"
        "p(f(W),a).\nq(X) :- r(X).\nq(X) :- p(X,Y), r(X).\nr(a).\nr(f(e)).\nr(g).\n"
        "t :- p(A,B), none.\nt.\n", "t, q(X)",
        ["(a)", "(f(e))", "(g)"],
        ["TB(p(_0,_1)): answers=[(a,_0),(_0,c),(f(_0),_0),(a,b),(_0,d),(f(_0),a)]"
         " status=[0,0,0,0,0,0] comp=1", "TB(q(_0)): answers=[(a),(f(e)),(g)] status=[0,0] comp=1"],
        52, 91, "42d4eb31c29a142a52ce776d44f9b2f67f18455faab5f59fc92ec673288f10b4",
    ),
    # (a,2) repeats the projection (a) of (a,1), whose r(a) failed, and is
    # skipped; (b,1) reaches the cut
    "projected-then-cut": (
        ":- table p/2.\n:- table q/1.\np(a,1).\np(a,2).\np(b,1).\np(b,2).\np(c,1).\n"
        "q(X) :- p(X,Y), r(X), !.\nq(c).\nr(b).\nr(c).\nt :- p(A,B), none.\nt.\n", "t, q(X)",
        ["(b)"],
        ["TB(p(_0,_1)): answers=[(a,1),(a,2),(b,1),(b,2),(c,1)] status=[0,0,0,0,0] comp=1",
         "TB(q(_0)): answers=[(b)] status=[0,0] comp=1"],
        28, 53, "1d846c97982bb499ffab5d909854035352ab158a138a3b6de18b0604ba7de726",
    ),
    "follower-new-before-the-pass": (
        ":- table q/1.\n:- table p/0.\nq(a).\np :- p.\n", "q(X), p",
        [],
        ["TB(q(_0)): answers=[(a)] status=[0] comp=1", "TB(p): answers=[] status=[1] comp=1"],
        6, 12, "bf63621cd20083d1953c3c2bb46785e0fa775ec2e21fadfd2982eb1b2aaed78b",
    ),
    # r's new (a) is passed up to q and p in place; p's cursor is at the
    # older (f(_0)), which the follower p(_) memoized, and is fetched
    "chain-stopped-non-ground": (
        ":- table p/1.\n:- table q/1.\n:- table r/1.\np(X) :- q(X).\np(f(_)).\n"
        "q(X) :- p(_), none.\nq(X) :- r(X).\nr(a).\n", "p(X)",
        ["(f(_0))", "(a)"],
        ["TB(p(_0)): answers=[(f(_0)),(a)] status=[1,0] comp=1",
         "TB(q(_0)): answers=[(a)] status=[1,0] comp=0", "TB(r(_0)): answers=[(a)] status=[0] comp=1"],
        25, 48, "8e2425fdd7da5ae3ba49908e9d72266599415e0f7d74f5ec2c0e63238e7cf2fe",
    ),
    # s's answer is passed up to r in place; q's copy reads as f(X), so r
    # fetches, and q's memo is passed up to p in place
    "chain-reads-compound": (
        ":- table p/1.\n:- table q/1.\n:- table r/1.\n:- table s/1.\np(X) :- q(X).\n"
        "q(f(X)) :- r(X).\nr(X) :- s(X).\ns(a).\ns(b).\n", "p(X)",
        ["(f(a))", "(f(b))"],
        ["TB(p(_0)): answers=[(f(a)),(f(b))] status=[0] comp=1",
         "TB(q(_0)): answers=[(f(a)),(f(b))] status=[0] comp=1",
         "TB(r(_0)): answers=[(a),(b)] status=[0] comp=1",
         "TB(s(_0)): answers=[(a),(b)] status=[0,0] comp=1"],
        19, 46, "d538573bae09e0e198d943bc98137544c236e5bd14f23d5cad711f21d6de1a6b",
    ),
    # r's new (a) is passed up to q and p in place; p's cursor is at the
    # older (b), which is passed on to t in place
    "chain-takes-older-answer": (
        ":- table t/1.\n:- table p/1.\n:- table q/1.\n:- table r/1.\nt(X) :- p(X).\n"
        "p(X) :- q(X).\np(b).\nq(X) :- p(_), none.\nq(X) :- r(X).\nr(a).\n", "t(X)",
        ["(b)", "(a)"],
        ["TB(t(_0)): answers=[(b),(a)] status=[0] comp=1",
         "TB(p(_0)): answers=[(b),(a)] status=[1,0] comp=1",
         "TB(q(_0)): answers=[(a)] status=[1,0] comp=0", "TB(r(_0)): answers=[(a)] status=[0] comp=1"],
        29, 58, "0a73770adcfcbe1e958b8f3d8956f6426daaf05b144c23f78d15cb9a6c66673e",
    ),
    # r's (a) is passed up to q and p in place, and the cut after p(X)
    # prunes back past both links to t
    "chain-then-cut": (
        ":- table p/1.\n:- table q/1.\n:- table r/1.\nt(X) :- p(X), !.\nt(c).\np(X) :- q(X).\n"
        "q(X) :- r(X).\nr(a).\nr(b).\n", "t(X)",
        ["(a)"],
        ["TB(p(_0)): answers=[(a)] status=[1] comp=0", "TB(q(_0)): answers=[(a)] status=[1] comp=0",
         "TB(r(_0)): answers=[(a)] status=[1,1] comp=0"],
        9, 25, "28f2cbdf47fd6c7536da5e96d7d71f0d213f78e6a19cea7b080c4c9da212d22b",
    ),
}
OCCURS_CHECK = {"occurs_check": True}
# name: the options a run is pinned under, if not just the defaults
PINNED_OPTIONS = {"cyclic-occurs-check": [OCCURS_CHECK]} | dict.fromkeys(
    ["head-constant-differs", "head-constant-same", "ground-repeated-var-same",
     "ground-repeated-var-differs", "ground-compound-partly-bound", "ground-compound-differs"],
    [{}, OCCURS_CHECK])


@pytest.mark.parametrize("name, options", [
    pytest.param(name, options, id=name if len(runs) == 1 else f"{name}-{bool(options)}")
    for name in PINNED for runs in [PINNED_OPTIONS.get(name, [{}])] for options in runs])
def test_pinned_runs(name, options):
    # ``answers`` is the list of canonical answers of a complete run, or the
    # exception the run raises after the pinned steps and events; the run
    # without a sink must show the same run
    source, query, answers, dump, steps, n_events, sha = PINNED[name]
    events = []
    engine = TPEngine(parse_program(source), sink=events.append, **options)
    run = solved(engine, query)
    status, got, *_ = run
    if isinstance(answers, list):
        assert (status, [format_tuple(canonicalize(a)) for a in got]) == ("complete", answers)
        assert check_stack_discipline(events) == [] and check_clause_skip(events) == []
    else:
        assert status.startswith(f"{answers.__name__}: ")
    assert (engine.tables.dump(), engine._steps) == (dump, steps)
    assert digest(map(format_event, events)) == (n_events, sha)
    assert solved(TPEngine(parse_program(source), **options), query) == run


def test_a_deeply_nested_head_matches_without_recursion(tmp_path, capsys):
    depth = 3000
    source = "p(" + "f(" * depth + "X" + ")" * depth + ").\n"
    query = "p(" + "f(" * depth + "a" + ")" * depth + ")"
    r = tp_solve(source, query)
    assert (r.status, r.answers) == ("complete", [()])
    prog = tmp_path / "deep.pl"
    prog.write_text(source)
    assert main(["run", str(prog), "-q", query]) == EXIT_OK
    assert capsys.readouterr() == ("yes\n", "")


# -- terms nested deeper than Python's stack ----------------------------------


def nested(inner, depth):
    """``s(s(...s(inner)...))`` as source text, ``depth`` levels deep."""
    return "s(" * depth + inner + ")" * depth


DEEP_SOURCE = ":- table p/1.\np({}).\nq(X) :- p(s(X)).\nnat(z).\nnat(s(X)) :- nat(X).\n"


def test_a_10000_deep_term_is_solved_by_both_engines():
    deep = nested("z", 10_000)
    program = parse_program(DEEP_SOURCE.format(deep))
    term = program.by_predicate[("p", 1)][0].head.args[0]
    inner = term.args[0]
    for query, want in [("p(X)", term), ("q(X)", inner), (f"p({nested('Y', 10_000)})", Const("z"))]:
        atoms, _ = parse_query(query)
        r = tp_solve(program, atoms)
        assert (r.status, r.answers) == ("complete", [(want,)]), query
        ref = sld_solve(program, atoms, depth_bound=10)
        assert (ref.status, ref.answers) == ("complete", ((want,),)), query
    r = tp_solve(program, "q(X)")
    assert r.engine.tables.dump() == [f"TB(p(s(_0))): answers=[({nested('z', 9_999)})]"
                                      " status=[0] comp=1"]


def test_deep_terms_need_no_deeper_stack(shallow_recursion):
    # under a recursion limit 100 frames above the test's own depth, a term
    # walker that recursed once per nesting level would fail on these terms
    # nested 300 deep
    program = parse_program(DEEP_SOURCE.format(nested("z", 300)))
    nat, _ = parse_query("nat(X)")
    q, _ = parse_query("q(X)")
    with shallow_recursion():
        tp_nat = tp_solve(program, nat, step_budget=906)
        dump = tp_nat.engine.tables.dump()
        sld_nat = sld_solve(program, nat, depth_bound=302)
        answers = [[format_tuple(canonicalize(a)) for a in r.answers]
                   for r in (tp_nat, sld_nat, tp_solve(program, q), sld_solve(program, q, 10))]
    naturals = [f"({nested('z', i)})" for i in range(301)]
    assert tp_nat.status == "resource-limit" and sld_nat.status == "depth-exceeded"
    assert answers == [naturals, naturals, [naturals[299]], [naturals[299]]]
    assert dump[0].startswith(f"TB(nat(_0)): answers=[{','.join(naturals[:10])},")


def test_function_symbol_programs_never_raise_recursion_error(shallow_recursion):
    """Seeds 0-299 of ``generate_program``, each with cuts put in and with
    ``f``/``g`` arguments wrapped, run by ``tp_solve`` at a 200-step budget
    under a recursion limit 100 frames above the test's depth: none may
    raise ``RecursionError``.

    No seed is skipped.  A few of these programs nest ``g(T,T)`` with a
    variable in ``T`` in their own calls, which then double in size with
    each call, a separate defect of renaming a shared term with a variable
    in it as a tree, and at this budget they run for seconds or minutes.
    So each run stops after 0.2 s and counts as stopped; the slice is not
    chosen around that growth.
    """
    failed, stopped = [], 0
    for seed in range(300):
        rng = random.Random(seed)
        src, query = generate_program(rng)
        program = parse_program(with_functions(with_cuts(src, rng), rng))
        atoms, _ = parse_query(query)
        try:
            with shallow_recursion():
                stopped += capped(0.2, tp_solve, program, atoms, step_budget=200) is Capped
        except RecursionError:
            failed.append(seed)
    assert failed == []
    assert stopped < 30


# -- shared ground subterms -------------------------------------------------
# A ground compound knows it is ground, so no walk enters it: answers that
# share ground subterms grow in size as trees, not in the time they take.


# its answers nest g(T,T), each twice the tree size of the one before
DOUBLING = (":- table p/2.\np(b,f(a)).\np(f(b),b).\np(g(a,a),f(a)) :- p(a,a), p(a,g(b,b)).\n"
            "p(b,b).\np(a,a) :- p(a,b), !.\np(a,f(a)).\np(b,a).\n"
            "p(V,g(U,U)) :- !, p(b,V), p(a,U).\np(W,U) :- p(W,U).\np(g(a,a),b) :- !.\n"
            "p(X,X) :- p(W,X).\np(f(b),a).\n")


def test_answers_sharing_ground_subterms_reach_the_step_budget():
    r = capped(2.0, tp_solve, DOUBLING, "p(X,Y)", step_budget=20_000)
    assert r is not Capped
    assert (r.status, r.engine._steps) == ("resource-limit", 20_001)


def test_a_shared_ground_term_is_passed_through_whole():
    # g(T,T) 200 levels deep: 2**200 leaves as a tree
    t = Const("a")
    for _ in range(200):
        t = Struct("g", (t, t))
    X = Var(0, "X")
    call = Struct("p", (X, t))

    def passed_through():
        return [
            _ground(t),
            apply(t, {X: t}) is t,
            apply(call, {X: t}).args == (t, t),
            canonicalize(t) is t,
            canonicalize(call).args[1] is t,
            rename_apart(t, FreshVars()) is t,
            rename_apart(call, FreshVars()).args[1] is t,
        ]

    assert capped(2.0, passed_through) == [True] * 7


# -- existential goals ---------------------------------------------------
# A tabled body goal whose variables occur nowhere else in its clause feeds
# its continuation the same bindings whatever answer it takes; a repeat that
# can add nothing is skipped, with answers, their order and the tables as
# they were.


def test_existential_tabled_goals_are_marked_on_the_template():
    clause = parse_program(
        "h(X) :- p(X), q(Y,Y), p(Z), !, p(U), s(U), p(a), p(W), s(V), s(T), p(T), p(f(R)),"
        " q(X,S), q(T,f(X)).\n"
    ).clauses[0]
    tabled = frozenset({("p", 1), ("q", 2)})
    # p(X) has a head variable, p(U) shares U with a later goal and p(T)
    # with an earlier one, p(a) has no variable, s(V) is not tabled;
    # q(Y,Y) repeats Y only in itself, and p(f(R)) has R inside a compound.
    # q(X,S) has an own variable beside a head one, q(T,f(X)) none; each
    # mark is a position and its own variables' slots, numbered X, Y, Z, U,
    # W, V, T, R, S
    assert _compile(clause.head, clause.body, tabled)[3] == {
        1: (1,), 2: (2,), 7: (4,), 11: (7,), 12: (8,)}
    assert _compile(clause.head, clause.body, frozenset())[3] == {}


def test_the_marks_of_a_long_clause_take_linear_time():
    # every q(Xk) is existential; checking each against the variables of all
    # the other goals took seconds
    src = ":- table q/1.\nq(a).\np :- " + ", ".join(f"q(X{k})" for k in range(2000)) + ".\n"
    r = capped(1.0, tp_solve, src, "p")
    assert r is not Capped
    assert (r.status, r.answers, r.engine._steps) == ("complete", [()], 4006)


def fetched(result):
    """Per node that fetched answers: its table's key and the positions it
    fetched, in order."""
    seen = {}
    for e in result.engine.events:
        if e.kind == "fetch":
            seen.setdefault(e.get("node"), (e.get("table"), []))[1].append(e.get("pos"))
    return seen


def every_answer_fetched(result):
    tables = {t.key: t for t in result.engine.tables.tables.values()}
    return all(positions == list(range(len(tables[key].answers)))
               for key, positions in fetched(result).values())


def never_skip(monkeypatch):
    monkeypatch.setattr(TPEngine, "_skips_repeats", lambda self, owner: False)


SKIPPED = (":- table p/1.\n:- table s/1.\np(a).\np(b).\np(c).\n"
           "s(X) :- p(Y), p(W), r(X).\nr(d).\n")


def test_a_repeat_that_can_add_nothing_is_skipped(monkeypatch):
    r = tp_solve(SKIPPED, "s(X)")
    assert (answers_of(r), r.engine._steps, every_answer_fetched(r)) == (["(d)"], 29, False)
    assert_clean_trace(r)
    never_skip(monkeypatch)
    full = tp_solve(SKIPPED, "s(X)")
    assert (answers_of(full), full.engine._steps, every_answer_fetched(full)) == (["(d)"], 51, True)
    assert full.engine.tables.dump() == r.engine.tables.dump()


def test_a_repeat_that_reaches_a_visible_answer_is_kept():
    # without a memo-look behind p(Y), each repeat ends in an answer that
    # Prolog shows again
    r = tp_solve(":- table p/1.\np(a).\np(b).\nq(X) :- p(Y), r(X).\nr(c).\n", "p(Z), q(X)")
    assert answers_of(r) == ["(a,c)", "(a,c)", "(b,c)", "(b,c)"]
    assert (r.engine._steps, every_answer_fetched(r)) == (29, True)


@pytest.mark.parametrize("src, query, steps", [
    # each answer of p(Y) is memoized between two of its fetches
    (":- table p/1.\n:- table s/1.\np(a).\np(b).\np(c).\ns(X) :- p(Y), r(X).\nr(d).\n",
     "s(X)", 19),
    # the continuation of p(Y) reaches the end of the goal list
    (":- table p/1.\np(a).\np(b).\np(c).\nq(X) :- p(Y), r(X).\nr(d).\n", "p(Z), q(X)", 54),
    # the memo-look behind p(Z) belongs to the query's p(X), which has not
    # consumed p(X)'s third answer when p(Z) would repeat
    (":- table p/1.\np(a) :- p(Z), p(a).\np(b).\np(X).\n", "p(X)", 36),
], ids=["memoized-between-fetches", "no-memo-look", "unconsumed-answer"])
def test_a_repeat_is_kept_unless_all_three_conditions_hold(monkeypatch, src, query, steps):
    r = tp_solve(src, query)
    assert (r.engine._steps, every_answer_fetched(r)) == (steps, True)
    never_skip(monkeypatch)
    full = tp_solve(src, query)
    assert (answers_of(full), full.engine._steps) == (answers_of(r), steps)


def test_existential_goals_cut_the_steps_of_a_cross_product():
    # p(Z,b) :- p(V,U), p(a,W), p(Z,b): two existential goals whose answers
    # the parent engine crossed in 100,751 steps
    src, query = generate_program(random.Random(259))
    program = parse_program(src)
    atoms, _ = parse_query(query)
    r = tp_solve(program, atoms)
    assert (r.status, r.engine._steps) == ("complete", 1_759)
    universe = constants_of(program, atoms)
    assert ground_expand(r.answers, universe) == ground_expand(
        bottomup_solve(program, atoms).answers, universe)


def test_projected_goals_cut_the_steps_of_a_rerun():
    # p(U,X) :- p(X,Y), p(e,U): p(X,Y) has the own variable Y, and its
    # answers that repeat a value of X since the last new memo are skipped;
    # the parent engine took 21,094 steps
    src, query = generate_program(random.Random(246))
    program = parse_program(src)
    atoms, _ = parse_query(query)
    r = tp_solve(program, atoms)
    assert (r.status, r.engine._steps) == ("complete", 9_016)
    universe = constants_of(program, atoms)
    assert ground_expand(r.answers, universe) == ground_expand(
        bottomup_solve(program, atoms).answers, universe)


def test_a_new_table_needs_no_ancestor_search(monkeypatch):
    # every call makes a new table, so no call has an ancestor variant
    calls = []
    search = TPEngine._ancestor_variant

    def count(self, node):
        calls.append(node.id)
        return search(self, node)

    monkeypatch.setattr(TPEngine, "_ancestor_variant", count)
    r = tp_solve(":- table p/1.\np(W) :- p(g(W,W)).\n", "p(a)", step_budget=300)
    assert (r.status, len(r.engine.tables.tables), calls) == ("resource-limit", 300, [])
    # a call of a table that exists is still searched, once
    tp_solve(":- table p/1.\np(X) :- p(X).\np(a).\n", "p(X)")
    assert len(calls) == 2


# -- duplicates taken in place ----------------------------------------------
# A tabled call that ends its clause body takes a ground answer in place,
# in a run without a sink, when its caller's table already holds what the
# memo-look would memoize and the caller has nothing left to consume: the
# same steps, answers, tables and node count as the traced run, which
# fetches it, without a node.


def shown(src, query, options):
    """``solved`` of a traced run, which builds every node it numbers: a
    run the budget stops leaves its stack unfinished, so its trace is not
    checked in full, but its expansions still count its node numbers."""
    events = []
    engine = TPEngine(parse_program(src), sink=events.append, **options)
    run = solved(engine, query)
    assert engine._next_id == sum(e.kind == "expand" for e in events)
    return run


def untraced(src, query, options):
    """``solved`` of a run without a sink, and per run of answers it took in
    place the steps before and after and how many answers its call skipped
    right after it, with no step between, as ``_skips_repeats`` does
    between the takes of a goal with own variables."""
    engine = TPEngine(parse_program(src), **options)
    take, skip, spans = engine._take_in_place, engine._skips_repeats, []

    def record_take(node):
        before = engine._steps
        took = take(node)
        if took:
            spans.append([node, before, engine._steps, 0])
        return took

    def record_skip(owner):
        first = owner.answer_ptr
        left = skip(owner)
        if spans and spans[-1][0] is owner and spans[-1][2] == engine._steps:
            spans[-1][3] += owner.answer_ptr - first
        return left

    engine._take_in_place, engine._skips_repeats = record_take, record_skip
    return solved(engine, query), [tuple(span[1:]) for span in spans]


def taken_in_place(spans):
    """How many answers the runs in ``spans`` took, two steps each."""
    return sum(after - before for before, after, _ in spans) // 2


def traced_and_untraced(runs, seconds=0):
    """``solved`` of each ``(program, query, options)`` run traced, then
    untraced, as ``Capped`` if it ran past ``seconds``; and how many
    answers the untraced runs took in place."""
    traced, plain, taken = [], [], 0
    for run in runs:
        traced.append(capped(seconds, shown, *run))
        u = capped(seconds, untraced, *run)
        plain.append(u if u is Capped else u[0])
        taken += 0 if u is Capped else taken_in_place(u[1])
    return traced, plain, taken


@pytest.mark.parametrize("name, query", GOLDEN_QUERIES)
def test_goldens_show_the_same_run_with_the_path_off(load, name, query):
    traced, plain, _ = traced_and_untraced([(load(name), query, {})])
    assert plain == traced


def test_graphs_show_the_same_run_with_the_path_off():
    runs = [(graph_program(n, rule, cycle), "reach(n0,Y)", {})
            for n in range(3, 41)
            for rule, cycle in (("reach(X,Y) :- reach(X,Z), edge(Z,Y).", False),
                                ("reach(X,Y) :- edge(X,Z), reach(Z,Y).", True))]
    traced, plain, taken = traced_and_untraced(runs)
    assert plain == traced and taken > 0


@pytest.mark.parametrize("options", MODES.values(), ids=list(MODES))
def test_sweep_variants_show_the_same_run_with_the_path_off(options):
    # every 10th sweep program, as it is and rewritten; a run whose terms
    # grow too fast to reach the budget in time is left out on both sides
    runs = [(src, query, {"step_budget": 500, **options})
            for _, _, src, query in sweep(range(0, 500, 10))]
    traced, plain, taken = traced_and_untraced(runs, seconds=0.3)
    both = [(a, b) for a, b in zip(traced, plain) if a is not Capped and b is not Capped]
    assert [b for _, b in both] == [a for a, _ in both]
    assert len(both) >= 190 and taken > 0


def test_every_plain_sweep_program_and_graph_shows_the_same_run_with_the_path_off():
    # at the default budget: a take or chain link that reads a cursor before
    # ``_skips_repeats`` has moved it can pass every smaller check
    programs = list(chain(sweep(range(500), ["plain"]), graphs()))
    traced, plain, taken = traced_and_untraced([(src, query, {}) for _, _, src, query in programs])
    differ = [f"{key} {name}" for (key, name, _, _), a, b in zip(programs, traced, plain) if a != b]
    assert differ == [] and taken > 0


def stopped_at(engine, atoms):
    """The steps and tables of a run that hits its budget, and the method
    the budget stops it in."""
    try:
        list(engine.solve(atoms))
    except StepBudgetExceeded as e:
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return e.steps, engine.tables.dump(), tb.tb_frame.f_code.co_name
    raise AssertionError("the run did not hit its budget")


def test_answers_taken_in_place_are_pinned(load):
    right = graph_program(20, "reach(X,Y) :- edge(X,Z), reach(Z,Y).", True)
    left = graph_program(20, "reach(X,Y) :- reach(X,Z), edge(Z,Y).", False)
    # so the comparisons above cover goldens that take answers in place
    runs = [(right, "reach(n0,Y)", {}), (left, "reach(n0,Y)", {}),
            (load("p2.pl"), "p(X,Y,Z)", {}), (load("p3.pl"), "p(X,Y)", {})]
    assert [taken_in_place(untraced(*run)[1]) for run in runs] == [611, 0, 4, 3]


def fetch_built(src, query, sink):
    """How many nodes a run builds through ``_fetch_for``."""
    engine = TPEngine(parse_program(src), sink=sink)
    fetch, built = engine._fetch_for, []

    def count(*args):
        built.append(args)
        return fetch(*args)

    engine._fetch_for = count
    solved(engine, query)
    return len(built)


def test_new_answers_are_passed_up_a_chain_in_place(monkeypatch):
    # a right cycle's new answers climb its calls' pending memo-looks: the
    # traced run builds a node per link, the run without a sink almost none
    right = graph_program(20, "reach(X,Y) :- edge(X,Z), reach(Z,Y).", True)
    assert [fetch_built(right, "reach(n0,Y)", sink) for sink in ([].append, None)] == [1030, 38]
    # a link memoizes its ground tuple itself, so only a memo-look's own
    # memo goes through the store (419 when the links did too)
    engine, calls = TPEngine(parse_program(right)), {"memo": 0, "look": 0}
    memo, look = TableStore.memo, engine._memo_look

    def count_memo(store, table, answer):
        calls["memo"] += 1
        return memo(store, table, answer)

    def count_look(node, origin):
        calls["look"] += 1
        return look(node, origin)

    monkeypatch.setattr(TableStore, "memo", count_memo)
    engine._memo_look = count_look
    assert solved(engine, "reach(n0,Y)")[2:4] == (1940, 1171)
    assert calls == {"memo": 38, "look": 38}
    assert all(t.ground for t in engine.tables.tables.values())


def chained(src, query):
    """The steps before and after each memo-look of a run without a sink
    that passed an answer up a chain in place."""
    engine = TPEngine(parse_program(src))
    look, spans = engine._memo_look, []

    def record(node, origin):
        before = engine._steps
        child = look(node, origin)
        if engine._steps > before:
            spans.append((before, engine._steps))
        return child

    engine._memo_look = record
    solved(engine, query)
    return spans


MARKED_IN_PLACE = (":- table p/1.\n:- table q/1.\np(a).\np(b).\np(c).\n"
                   "q(d) :- p(Y).\nq(d) :- p(Y).\n")


def test_a_marked_call_takes_one_answer_in_place():
    # the second clause's p(Y) is marked: it takes (a) in place, as its
    # memo-look would drop q's duplicate (d), and skips (b) and (c)
    plain, spans = untraced(MARKED_IN_PLACE, "q(X)", {})
    assert taken_in_place(spans) == 1
    assert (shown(MARKED_IN_PLACE, "q(X)", {}), plain[2]) == (plain, 17)


class _DumpAtEveryCheck(int):
    """A step budget never reached, which keeps the tables' dump at each
    check: a run with a budget of ``s - 1`` would stop at the check of step
    ``s``, with its tables as they are then."""

    def __lt__(self, steps):
        self.dumps[steps - 1] = self.engine.tables.dump()
        return False


# q(X) :- p(X,Y) takes (a,1) and (b,1) in place and skips (a,2), (a,3)
# and (b,2), whose projections onto X it has fetched, before it fetches
# (c,1); after (c)'s new memo it takes (b,3) and (c,2) in place
PROJECTED_IN_PLACE = (":- table p/2.\n:- table q/1.\np(a,1).\np(a,2).\np(b,1).\np(a,3).\n"
                      "p(b,2).\np(c,1).\np(b,3).\np(c,2).\nq(a).\nq(b).\nq(X) :- p(X,Y).\n"
                      "t :- p(A,B), none.\nt.\n")


def test_the_skip_rule_has_one_home(monkeypatch):
    # with the rule off, the in-place run skips nothing either: it takes or
    # fetches every answer the traced run fetches
    never_skip(monkeypatch)
    for src, query, steps in ((PROJECTED_IN_PLACE, "t, q(X)", 54), (MARKED_IN_PLACE, "q(X)", 21)):
        plain, _ = untraced(src, query, {})
        assert (shown(src, query, {}), plain[2]) == (plain, steps)


# each answer of s is passed up r, q and p to t in place, four links
CHAINED = (":- table t/1.\n:- table p/1.\n:- table q/1.\n:- table r/1.\n:- table s/1.\n"
           "t(X) :- p(X).\np(X) :- q(X).\nq(X) :- r(X).\nr(X) :- s(X).\ns(a).\ns(b).\ns(c).\n")


def test_untraced_runs_stop_as_traced_runs_at_every_budget():
    # without a sink the run of answers taken in place does its own step
    # arithmetic, so at every budget it must stop where the traced run,
    # which fetches every answer, does
    inside, skipped, links = [], [], []
    runs = [(graph_program(n, "reach(X,Y) :- edge(X,Z), reach(Z,Y).", True), "reach(n0,Y)")
            for n in (6, 20)] + [(PROJECTED_IN_PLACE, "t, q(X)"), (CHAINED, "t(X)")]
    for src, query in runs:
        program = parse_program(src)
        atoms, _ = parse_query(query)
        traced = TPEngine(program, sink=[].append)
        traced.step_budget = watch = _DumpAtEveryCheck(DEFAULT_STEP_BUDGET)
        watch.engine, watch.dumps = traced, {}
        list(traced.solve(atoms))
        assert sorted(watch.dumps) == list(range(traced._steps))
        _, spans = untraced(src, query, {})
        chains = chained(src, query)
        for budget in range(1, traced._steps):
            steps, dump, where = stopped_at(TPEngine(program, step_budget=budget), atoms)
            assert (steps, dump) == (budget + 1, watch.dumps[budget])
            assert where == "solve"
            inside += [budget - before for before, after, _ in spans if before < budget < after]
            links += [budget - before for before, after in chains if before < budget < after]
        skipped.append(sum(s for *_, s in spans))
    # budgets that run out inside a run of answers taken in place, at the
    # memo-look's step and at the call's next; the third program's calls
    # skip answers between those they take
    assert len(inside) >= 10 and {d % 2 for d in inside} == {0, 1}
    assert skipped == [0, 0, 3, 0]
    # and budgets that run out after each of the first three links of a
    # chain that passes an answer up in place
    assert {1, 2, 3} <= set(links)
