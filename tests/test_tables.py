import pytest
from hypothesis import example, given, settings, strategies as st

import lintab.tables
from lintab.engine import TPEngine
from lintab.program import parse_program, parse_query
from lintab.tables import TableStore
from lintab.terms import (
    Const,
    CyclicTermError,
    Struct,
    Var,
    _ground,
    apply,
    canonicalize,
    format_term,
)

X, Y = Var(0, "X"), Var(1, "Y")
a, b = Const("a"), Const("b")


def call(*args):
    return Struct("p", args)


def test_tables_share_across_variants():
    store = TableStore()
    t = store.get_or_create(call(X, Y), {}, {})[0]
    assert store.get_or_create(call(Var(9, "U"), Var(8, "V")), {}, {}) == (t, False)
    other, created = store.get_or_create(call(X, X), {}, {})
    assert created and other is not t
    assert [format_term(u.key) for u in store.tables.values()] == ["p(_0,_1)", "p(_0,_0)"]


def test_variant_call_keeps_the_existing_table():
    store = TableStore()
    t = store.get_or_create(call(X), {}, {})[0]
    store.memo(t, (a,))
    again, created = store.get_or_create(call(Y), {}, {})
    assert again is t and not created
    assert again.answers == [(a,)]


def test_get_or_create():
    store = TableStore()
    t1, created = store.get_or_create(call(X), {}, {})
    t2, again = store.get_or_create(call(Y), {}, {})
    assert created and not again
    assert t1 is t2


def test_memo_appends_and_dedups_variants():
    store = TableStore()
    t = store.get_or_create(call(X, Y), {}, {})[0]
    assert store.memo(t, (a, Var(5, "W")))[1]
    assert not store.memo(t, (a, Var(7, "Q")))[1]
    assert store.memo(t, (a, b))[1]
    assert len(t.answers) == 2
    assert store.memo_count == 2


def test_memo_hands_back_the_canonical_tuple():
    store = TableStore()
    t = store.get_or_create(call(X, Y), {}, {})[0]
    first = store.memo(t, (a, Var(5, "W")))
    again = store.memo(t, (a, Var(7, "Q")))
    assert first == (t.answers[0], True)
    assert again == (t.answers[0], False)


def test_memo_flags():
    # memo says whether the answer was new, and counts only new ones
    store = TableStore()
    t = store.get_or_create(call(X), {}, {})[0]
    assert store.memo_count == 0
    assert store.memo(t, (a,))[1]
    assert store.memo_count == 1
    assert not store.memo(t, (a,))[1]  # duplicate
    assert store.memo_count == 1


def test_unit_answer_completes_table():
    store = TableStore()
    t = store.get_or_create(call(X, Y), {}, {})[0]
    store.memo(t, (a, b))
    assert not t.comp
    store.memo(t, (Var(3, "U"), Var(4, "V")))
    assert t.comp


def test_completion_needs_no_second_walk_of_the_key(monkeypatch):
    # memo renames a non-ground answer once, to its canonical form, and
    # reads completion off that; a ground answer is not renamed at all
    renamed = []
    rename = lintab.tables._rename

    def counted(*args):
        renamed.append(args[0])
        return rename(*args)

    monkeypatch.setattr(lintab.tables, "_rename", counted)
    store = TableStore()
    t = store.get_or_create(call(X, Y, X), {}, {})[0]
    store.memo(t, (Var(4, "V"), Var(4, "V")))
    assert not t.comp and len(renamed) == 1
    store.memo(t, (a, b))
    assert not t.comp and len(renamed) == 1
    store.memo(t, (Var(3, "U"), Var(4, "V")))
    assert t.comp and len(renamed) == 2
    g = store.get_or_create(call(a), {}, {})[0]
    store.memo(g, ())
    assert g.comp and len(renamed) == 2


def test_ground_subgoal_completes_on_empty_tuple():
    store = TableStore()
    t = store.get_or_create(call(a), {}, {})[0]
    store.memo(t, ())
    assert t.comp
    assert t.answers == [()]


def test_clause_status_starts_open():
    # the engine gives a table it makes one set bit per clause
    engine = TPEngine(parse_program(":- table p/1.\np(a).\np(b).\np(c).\np(d).\n"))
    solving = engine.solve(parse_query("p(X)")[0])
    next(solving)
    (t,) = engine.tables.tables.values()
    assert t.clause_status == [1, 1, 1, 1]
    solving.close()


def test_dump_format():
    store = TableStore()
    t = store.get_or_create(call(X, a), {}, {})[0]
    store.memo(t, (b,))
    t.clause_status = [1, 0, 1]
    t.comp = True
    assert store.dump() == ["TB(p(_0,a)): answers=[(b)] status=[1,0,1] comp=1"]


def test_answers_are_append_only_in_order():
    store = TableStore()
    t = store.get_or_create(call(X), {}, {})[0]
    for c in ("c", "a", "b"):
        store.memo(t, (Const(c),))
    assert [x[0].name for x in t.answers] == ["c", "a", "b"]


# -- the flat lookup against the canonical key --------------------------------
# A call without a compound argument is looked up by a flat key built in one
# pass through the bindings; it must find the table the canonical form of the
# resolved call names, and fill ``mapping`` in canonicalize's order.

NAMES = ["a", "0", "_0", "X", "1"]


@st.composite
def calls_under_bindings(draw):
    pool = [Var(i, f"V{i}") for i in range(5)]
    bindings = {}
    for i, v in enumerate(pool):
        # a variable binds to a constant, or to an older variable, bare or
        # in a compound, so chains end and no binding is cyclic
        kind = draw(st.sampled_from(["free", "free", "var", "const", "compound"]))
        if kind == "const" or (kind != "free" and i == 0):
            bindings[v] = Const(draw(st.sampled_from(NAMES)))
        elif kind == "var":
            bindings[v] = pool[draw(st.integers(0, i - 1))]
        elif kind == "compound":
            bindings[v] = Struct("f", (pool[draw(st.integers(0, i - 1))],))
    arg = st.one_of(st.sampled_from(pool),
                    st.sampled_from(NAMES).map(Const),
                    st.sampled_from(pool).map(lambda v: Struct("g", (v,))))
    calls = draw(st.lists(
        st.tuples(st.sampled_from(["p", "q"]), st.lists(arg, max_size=4)), min_size=1, max_size=8))
    return [Struct(f, tuple(args)) for f, args in calls], bindings


Z = Var(2, "Z")


@settings(max_examples=150, deadline=None)
@given(calls_under_bindings())
# repeated variables, constants that print as variables, a variable bound
# to a constant, and a compound argument
@example(([call(X, X), call(X, Y), call(Y, Y), call(Y, X), call(X), call(Const("0")),
           call(Const("_0")), call(Const("X")), call(Z), call(a), call(Y, Struct("g", (X, Y)))],
          {Z: a}))
def test_flat_lookup_finds_the_canonical_table(case):
    calls, bindings = case
    store = TableStore()
    for atom in calls:
        want_mapping = {}
        key = canonicalize(apply(atom, bindings), want_mapping)
        before = [t for t in store.tables.values() if t.key == key]
        mapping = {}
        t, created = store.get_or_create(atom, mapping, bindings)
        assert t.key == key
        assert created == (before == [])
        assert before in ([], [t])
        assert list(mapping.items()) == list(want_mapping.items())
        assert _ground(t.key) == (not want_mapping)


def test_a_cyclic_binding_raises_naming_the_variable():
    # the occurs check was off when X was bound to f(X)
    bindings = {X: Struct("f", (X,))}
    with pytest.raises(CyclicTermError, match="^cyclic binding through X$"):
        TableStore().get_or_create(call(a, X), {}, bindings)
