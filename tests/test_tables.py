import lintab.tables
from lintab.tables import TableStore
from lintab.terms import Const, Struct, Var, canonicalize

X, Y = Var(0, "X"), Var(1, "Y")
a, b = Const("a"), Const("b")


def call(*args):
    return Struct("p", args)


def test_tables_share_across_variants():
    store = TableStore()
    t = store.get_or_create(call(X, Y), 3)[0]
    assert store.tables.get(canonicalize(call(Var(9, "U"), Var(8, "V")))) is t
    assert store.tables.get(canonicalize(call(X, X))) is None


def test_variant_call_keeps_the_existing_table():
    store = TableStore()
    t = store.get_or_create(call(X), 1)[0]
    store.memo(t, (a,))
    again, created = store.get_or_create(call(Y), 1)
    assert again is t and not created
    assert again.answers == [(a,)]


def test_get_or_create():
    store = TableStore()
    t1, created = store.get_or_create(call(X), 2)
    t2, again = store.get_or_create(call(Y), 2)
    assert created and not again
    assert t1 is t2


def test_memo_appends_and_dedups_variants():
    store = TableStore()
    t = store.get_or_create(call(X, Y), 1)[0]
    assert store.memo(t, (a, Var(5, "W")))[1]
    assert not store.memo(t, (a, Var(7, "Q")))[1]
    assert store.memo(t, (a, b))[1]
    assert len(t.answers) == 2
    assert store.memo_count == 2


def test_memo_hands_back_the_canonical_tuple():
    store = TableStore()
    t = store.get_or_create(call(X, Y), 1)[0]
    first = store.memo(t, (a, Var(5, "W")))
    again = store.memo(t, (a, Var(7, "Q")))
    assert first == (t.answers[0], True)
    assert again == (t.answers[0], False)


def test_memo_flags():
    store = TableStore()
    t = store.get_or_create(call(X), 1)[0]
    assert not store.new_flag
    store.memo(t, (a,))
    assert store.new_flag
    store.new_flag = False
    store.memo(t, (a,))  # duplicate
    assert not store.new_flag
    assert store.memo_count == 1


def test_unit_answer_completes_table():
    store = TableStore()
    t = store.get_or_create(call(X, Y), 1)[0]
    store.memo(t, (a, b))
    assert not t.comp
    store.memo(t, (Var(3, "U"), Var(4, "V")))
    assert t.comp


def test_completion_needs_no_second_walk_of_the_key(monkeypatch):
    def walk(_):
        raise AssertionError("the key was walked again")

    monkeypatch.setattr(lintab.tables, "vars_of", walk)
    store = TableStore()
    t = store.get_or_create(call(X, Y, X), 1)[0]
    store.memo(t, (Var(4, "V"), Var(4, "V")))
    assert not t.comp
    store.memo(t, (Var(3, "U"), Var(4, "V")))
    assert t.comp
    g = store.get_or_create(call(a), 1)[0]
    store.memo(g, ())
    assert g.comp


def test_ground_subgoal_completes_on_empty_tuple():
    store = TableStore()
    t = store.get_or_create(call(a), 2)[0]
    store.memo(t, ())
    assert t.comp
    assert t.answers == [()]


def test_clause_status_starts_open():
    t = TableStore().get_or_create(call(X), 4)[0]
    assert t.clause_status == [1, 1, 1, 1]


def test_dump_format():
    store = TableStore()
    t = store.get_or_create(call(X, a), 3)[0]
    store.memo(t, (b,))
    t.clause_status[1] = 0
    t.comp = True
    assert store.dump() == ["TB(p(_0,a)): answers=[(b)] status=[1,0,1] comp=1"]


def test_answers_are_append_only_in_order():
    store = TableStore()
    t = store.get_or_create(call(X), 1)[0]
    for c in ("c", "a", "b"):
        store.memo(t, (Const(c),))
    assert [x[0].name for x in t.answers] == ["c", "a", "b"]
