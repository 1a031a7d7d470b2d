import pytest
from hypothesis import given, strategies as st

from lintab.program import CUT
from lintab.terms import (
    Const,
    CyclicTermError,
    FreshVars,
    Struct,
    Var,
    _ground,
    apply,
    apply_tuple,
    canonicalize,
    format_term,
    format_tuple,
    max_var_id,
    rename_apart,
    unify,
    vars_of,
)

X, Y, Z = Var(0, "X"), Var(1, "Y"), Var(2, "Z")
a, b = Const("a"), Const("b")


def p(*args):
    return Struct("p", args)


# -- identity and formatting ------------------------------------------


def test_var_identity_is_id_only():
    assert Var(3, "X") == Var(3, "Y")
    assert hash(Var(3, "X")) == hash(Var(3, "Y"))
    assert Var(3, "X") != Var(4, "X")


def test_format_term():
    assert format_term(p(a, X)) == "p(a,X)"
    assert format_term(Struct("f", (Struct("g", (X,)), b))) == "f(g(X),b)"
    assert format_term(Struct("q", ())) == "q"


def test_format_tuple():
    assert format_tuple((a, b)) == "(a,b)"
    assert format_tuple((b,)) == "(b)"
    assert format_tuple(()) == "()"


def test_vars_of_first_occurrence():
    assert vars_of(p(Y, X, Y)) == [Y, X]
    assert vars_of((p(X), [p(Z), p(X, Y)])) == [X, Z, Y]
    assert vars_of(a) == []


def test_max_var_id():
    assert max_var_id(p(X, Z)) == 2
    assert max_var_id((a, b)) == -1


# -- substitution ------------------------------------------------------


def test_apply_follows_chains():
    s = {X: Y, Y: a}
    assert apply(X, s) == a
    assert apply(p(X, Z), s) == p(a, Z)
    assert apply_tuple((X, b), s) == (a, b)


def test_apply_cyclic_chain_raises():
    with pytest.raises(CyclicTermError):
        apply(X, {X: Y, Y: X})
    with pytest.raises(CyclicTermError):
        apply(X, {X: Struct("f", (X,))})


def test_unify_mgu():
    s = unify(p(X, b), p(a, Y))
    assert s == {X: a, Y: b}
    assert unify(p(a), p(b)) is None
    assert unify(p(X), Struct("q", (X,))) is None


def test_unify_binds_younger_to_older():
    assert unify(Var(5, "V"), X) == {Var(5, "V"): X}
    assert unify(X, Var(5, "V")) == {Var(5, "V"): X}


def test_unify_occurs_check():
    assert unify(X, Struct("f", (X,)), occurs_check=True) is None
    s = unify(X, Struct("f", (X,)))
    assert s is not None
    with pytest.raises(CyclicTermError):
        apply(X, s)


# -- canonical form and renaming ---------------------------------------


def test_canonicalize_shapes():
    t = canonicalize(p(Var(7, "A"), a, Var(7, "A")))
    assert format_term(t) == "p(_0,a,_0)"
    tup = canonicalize((X, p(Y, X)))
    assert format_tuple(tup) == "(_0,p(_1,_0))"


def test_canonical_vars_cannot_collide():
    t = canonicalize(p(X))
    assert all(v.id < 0 for v in vars_of(t))


def test_is_variant():
    assert canonicalize(p(X, Y)) == canonicalize(p(Z, X))
    assert canonicalize(p(X, X)) != canonicalize(p(X, Y))
    assert canonicalize(p(X)) != canonicalize(p(a))


def test_rename_apart_is_structural():
    fresh = FreshVars(1)
    t = rename_apart(p(Var(1, "A"), Var(2, "B")), fresh)
    assert canonicalize(t) == canonicalize(p(X, Y))
    assert len(set(vars_of(t))) == 2
    assert all(v.id >= 1 for v in vars_of(t))


def test_rename_apart_shared_mapping():
    fresh = FreshVars(10)
    mapping = {}
    h = rename_apart(p(X, Y), fresh, mapping)
    body = rename_apart((p(Y, Z),), fresh, mapping)
    assert h.args[1] == body[0].args[0]


def test_rename_apart_keeps_a_cut_in_place():
    fresh = FreshVars(10)
    mapping = {}
    head = p(X, Y)
    clause = (head, CUT, Struct("q", (Y, Z)))
    got = rename_apart(clause, fresh, mapping)
    assert got[1] is CUT
    assert got[0].args[1] == got[2].args[0] == mapping[Y]
    assert format_tuple((got[0], got[2])) == "(p(_G10,_G11),q(_G11,_G12))"
    assert vars_of(clause) == [X, Y, Z]


def test_fresh_vars_monotone():
    fresh = FreshVars(5)
    u, v = fresh.new(), fresh.new()
    assert u.id == 5 and v.id == 6


def shown(x):
    if isinstance(x, tuple):
        return "(" + ",".join("!" if t is CUT else format_term(t) for t in x) + ")"
    return format_term(x)


GROUND = [
    p(a, b),
    (a, b),
    (p(a), Struct("f", (Struct("g", (a,)),))),
    Struct("f", (Struct("g", (a,)),)),
    a,
    (),
    (p(a), CUT, Struct("q", (b,))),
]


@pytest.mark.parametrize("t", GROUND, ids=shown)
def test_ground_terms_pass_through(t):
    assert canonicalize(t) is t
    mapping = {}
    assert canonicalize(t, mapping) is t and mapping == {}
    fresh = FreshVars(7)
    assert rename_apart(t, fresh) is t
    assert rename_apart(t, fresh, mapping) is t and mapping == {}
    assert fresh.new().id == 7


def test_canonicalize_fills_the_mapping_in_first_occurrence_order():
    mapping = {}
    assert format_term(canonicalize(p(Z, a, X, Z), mapping)) == "p(_0,a,_1,_0)"
    assert list(mapping) == [Z, X] == vars_of(p(Z, a, X, Z))


# -- properties ---------------------------------------------------------

consts = st.sampled_from([a, b])
variables = st.builds(Var, st.integers(min_value=0, max_value=3), st.just("V"))
terms = st.recursive(
    consts | variables,
    lambda children: st.builds(
        Struct,
        st.sampled_from(["f", "g"]),
        st.tuples(children) | st.tuples(children, children),
    ),
    max_leaves=6,
)


@given(terms)
def test_canonicalize_idempotent(t):
    c = canonicalize(t)
    assert canonicalize(c) == c


@given(terms)
def test_renaming_preserves_variant_class(t):
    assert canonicalize(t) == canonicalize(rename_apart(t, FreshVars(100)))


@given(terms, terms)
def test_unify_produces_a_unifier(t1, t2):
    # occurs check keeps the result acyclic so apply cannot raise
    s = unify(t1, t2, occurs_check=True)
    if s is not None:
        assert apply(t1, s) == apply(t2, s)


# canonicalize and rename_apart pass a ground term through unchanged; on
# every term they must agree with a plain structural walk that copies it


def structural_walk(x, new_var):
    mapping = {}

    def walk(t):
        if isinstance(t, Var):
            if t not in mapping:
                mapping[t] = new_var(len(mapping))
            return mapping[t]
        if isinstance(t, Const):
            return Const(t.name)
        if t is CUT:
            return t
        return Struct(t.functor, tuple(walk(u) for u in t.args))

    return tuple(walk(t) for t in x) if isinstance(x, tuple) else walk(x)


# clause-like tuples: a cut may sit anywhere among the terms
items = st.one_of(terms, st.just(CUT))
tuples = st.tuples(terms, terms) | st.lists(items, max_size=4).map(tuple)


@given(terms | tuples)
def test_canonicalize_equals_a_structural_walk(x):
    want = structural_walk(x, lambda k: Var(-(k + 1), f"_{k}"))
    got = canonicalize(x)
    assert got == want and shown(got) == shown(want)


@given(terms | tuples)
def test_rename_apart_equals_a_structural_walk(x):
    fresh = FreshVars(100)
    got = rename_apart(x, fresh)
    want = structural_walk(x, lambda k: Var(100 + k, f"_G{100 + k}"))
    assert got == want and shown(got) == shown(want)
    assert fresh.new().id == 100 + len(vars_of(x))


# -- equality and hashing -----------------------------------------------


def same(t, u):
    """Reference structural comparison on functor, arity, ``Var.id`` and
    ``Const.name``."""
    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return t.id == u.id
    if isinstance(t, Const):
        return t.name == u.name
    return (t.functor == u.functor and len(t.args) == len(u.args)
            and all(same(x, y) for x, y in zip(t.args, u.args)))


def rebuilt(t):
    """A copy of ``t`` made of new objects, variable names changed."""
    if isinstance(t, Var):
        return Var(t.id, t.name + "'")
    if isinstance(t, Const):
        return Const(t.name)
    return Struct(t.functor, tuple(rebuilt(a) for a in t.args))


named_variables = st.builds(Var, st.integers(min_value=0, max_value=3), st.sampled_from("VW"))
mixed_terms = st.recursive(
    consts | named_variables,
    lambda children: st.builds(
        Struct,
        st.sampled_from(["f", "g"]),
        st.tuples(children) | st.tuples(children, children),
    ),
    max_leaves=6,
)
term_pairs = st.tuples(mixed_terms, mixed_terms) | mixed_terms.map(lambda t: (t, rebuilt(t)))


def hash_parts(t, which):
    """Hash ``t`` itself (``which`` 1), its arguments (2), both (3) or
    nothing (0), so comparisons meet every mix of cached hashes."""
    if which & 2 and isinstance(t, Struct):
        for a in t.args:
            hash(a)
    if which & 1:
        hash(t)


@given(term_pairs, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_equality_is_structural_and_agrees_with_hashing(pair, hashed_t, hashed_u):
    t, u = pair
    hash_parts(t, hashed_t)
    hash_parts(u, hashed_u)
    assert (t == u) == (u == t) == same(t, u)
    assert (t != u) == (not same(t, u))
    if t == u:
        assert hash(t) == hash(u)


def test_canonical_and_fresh_variables_hash_apart():
    # CPython hashes -1 as -2, so hashed by their ids the canonical _0 and
    # _1 would share a hash, and every lookup that met both would compare
    canonical = canonicalize(tuple(Var(k, "V") for k in range(64)))
    fresh = FreshVars()
    variables = list(canonical) + [fresh.new() for _ in range(64)]
    assert len({v.id for v in variables}) == len({hash(v) for v in variables}) == 128


def subterms(t):
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, Struct):
            stack.extend(u.args)


@given(mixed_terms, st.integers(min_value=0, max_value=3))
def test_groundness_is_kept_and_agrees_with_vars_of(t, which):
    # ask an argument first (``which`` 2), ``t`` itself (1), both or neither,
    # so the walk meets every mix of known and unknown groundness below it
    if which & 2 and isinstance(t, Struct):
        for u in t.args:
            _ground(u)
    if which & 1:
        _ground(t)
    assert _ground(t) == (not vars_of(t))
    for u in subterms(t):
        if isinstance(u, Struct) and u._ground is not None:
            assert u._ground == (not vars_of(u))


def test_nested_compounds_that_differ_are_unequal():
    def f(*args):
        return Struct("f", args)

    def g(*args):
        return Struct("g", args)

    # a nested functor, then a nested arity, that differs
    assert f(g(a)) != f(Struct("h", (a,)))
    assert f(g(a)) != f(g(a, b))
    # nested compounds whose hashes are cached and differ, in unhashed outers
    left, right = f(g(a)), f(g(b))
    hash(left.args[0])
    hash(right.args[0])
    assert left._hash is None and right._hash is None
    assert left != right


DEPTH = 10_000


def nest(inner, depth=DEPTH):
    """``s(s(...s(inner)...))``, ``depth`` levels deep."""
    for _ in range(depth):
        inner = Struct("s", (inner,))
    return inner


def test_a_deep_term_hashes_and_compares():
    t, u = nest(a), nest(a)
    assert t == u and hash(t) == hash(u)
    other = nest(b)
    assert t != other and other != u
    # the same comparisons once every hash is cached
    hash(other)
    assert t == u and t != other
    # and between a hashed term and an unhashed one
    assert nest(a) == t and nest(b) != t
    assert t != nest(a, DEPTH - 1) and nest(X) != t


def test_a_deep_term_is_applied_renamed_and_printed():
    shown = "s(" * DEPTH + "a" + ")" * DEPTH
    t = nest(a)
    assert format_term(t) == shown
    assert apply(Struct("p", (X, X)), {X: t}) == Struct("p", (t, t))
    # a binding chain as deep as the term: X0 -> s(X1) -> ... -> s(a)
    vs = [Var(i, f"X{i}") for i in range(DEPTH)]
    s = {v: Struct("s", (w,)) for v, w in zip(vs, vs[1:])}
    s[vs[-1]] = Struct("s", (a,))
    assert apply(vs[0], s) == t
    assert format_term(apply(vs[0], s)) == shown
    open_ = nest(Y)
    assert canonicalize(open_) == nest(Var(-1, "_0"))
    fresh = FreshVars(DEPTH)
    assert rename_apart((open_, Z), fresh) == (nest(Var(DEPTH)), Var(DEPTH + 1))
    assert vars_of(open_) == [Y] and max_var_id(open_) == 1
    assert unify(open_, t) == {Y: a}


def test_a_deep_term_has_its_repr():
    shallow = Struct("f", (Struct("g", (a, X)), Struct("h", ()), Struct("k", (b,))))
    assert repr(shallow) == ("Struct('f', (Struct('g', (Const('a'), Var(0, 'X'))),"
                             " Struct('h', ()), Struct('k', (Const('b'),))))")
    assert repr(nest(a, 3)) == "Struct('s', (Struct('s', (Struct('s', (Const('a'),)),)),))"
    # a RecursionError is kept as a value: pytest's report of one raised
    # through frames that hold a deep term compares their locals pairwise
    try:
        deep = repr(nest(a))
    except RecursionError as e:
        deep = e
    assert deep == "Struct('s', (" * DEPTH + "Const('a')" + ",))" * DEPTH


def test_a_cyclic_binding_is_reported_through_the_variable_met_again():
    with pytest.raises(CyclicTermError, match="through X$"):
        apply(p(a, X), {X: Y, Y: X})
    with pytest.raises(CyclicTermError, match="through Y$"):
        apply(p(X), {X: Struct("f", (b, Y)), Y: Struct("g", (Y,))})
    # a variable met twice on different paths is not a cycle
    t = apply(p(X, X), {X: Struct("f", (Y, Y)), Y: Struct("g", (a,))})
    assert format_term(t) == "p(f(g(a),g(a)),f(g(a),g(a)))"


def test_canonical_forms_share_their_variables():
    first = canonicalize(p(X, Y))
    second = canonicalize((Z, Var(9, "Q"), a))
    assert first.args[0] is second[0] and first.args[1] is second[1]
