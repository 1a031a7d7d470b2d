import pytest
from hypothesis import given, strategies as st

from lintab.terms import (
    Const,
    CyclicTermError,
    FreshVars,
    Struct,
    Var,
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


def test_fresh_vars_monotone():
    fresh = FreshVars(5)
    u, v = fresh.new(), fresh.new()
    assert u.id == 5 and v.id == 6


def shown(x):
    return format_tuple(x) if isinstance(x, tuple) else format_term(x)


GROUND = [
    p(a, b),
    (a, b),
    (p(a), Struct("f", (Struct("g", (a,)),))),
    Struct("f", (Struct("g", (a,)),)),
    a,
    (),
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
        return Struct(t.functor, tuple(walk(u) for u in t.args))

    return tuple(walk(t) for t in x) if isinstance(x, tuple) else walk(x)


@given(terms | st.tuples(terms, terms))
def test_canonicalize_equals_a_structural_walk(x):
    want = structural_walk(x, lambda k: Var(-(k + 1), f"_{k}"))
    got = canonicalize(x)
    assert got == want and shown(got) == shown(want)


@given(terms | st.tuples(terms, terms))
def test_rename_apart_equals_a_structural_walk(x):
    fresh = FreshVars(100)
    got = rename_apart(x, fresh)
    want = structural_walk(x, lambda k: Var(100 + k, f"_G{100 + k}"))
    assert got == want and shown(got) == shown(want)
    assert fresh.new().id == 100 + len(vars_of(x))
