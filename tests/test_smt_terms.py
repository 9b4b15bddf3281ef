"""Tests for hash-consed terms, smart constructors, and substitution."""

import pytest
from hypothesis import given, strategies as st

from repro.smt import terms as T
from repro.smt.printer import query_size_bytes, query_to_smtlib, term_to_str
from repro.smt.sorts import BOOL, INT, bv, uninterpreted

x, y, z = (T.Var(n, INT) for n in "xyz")
I = T.IntVal


def test_hash_consing_identity():
    assert T.Add(x, y) is T.Add(x, y)
    assert T.Var("x", INT) is x
    assert T.IntVal(5) is T.IntVal(5)


def test_and_simplification():
    assert T.And() is T.TRUE
    assert T.And(T.TRUE, T.Lt(x, y)) is T.Lt(x, y)
    assert T.And(T.FALSE, T.Lt(x, y)) is T.FALSE
    # flattening and dedup
    inner = T.And(T.Lt(x, y), T.Lt(y, z))
    assert T.And(inner, T.Lt(x, y)) is inner


def test_or_simplification():
    assert T.Or() is T.FALSE
    assert T.Or(T.TRUE, T.Lt(x, y)) is T.TRUE


def test_not_involution():
    atom = T.Lt(x, y)
    assert T.Not(T.Not(atom)) is atom


def test_eq_folding():
    assert T.Eq(x, x) is T.TRUE
    assert T.Eq(I(3), I(3)) is T.TRUE
    assert T.Eq(I(3), I(4)) is T.FALSE


def test_eq_canonical_order():
    assert T.Eq(x, y) is T.Eq(y, x)


def test_arith_folding():
    assert T.Add(I(2), I(3)) is I(5)
    assert T.Add(x, I(0)) is x
    assert T.Mul(I(0), x) is I(0)
    assert T.Mul(I(1), x) is x
    assert T.Sub(x, x) is I(0)
    assert T.Neg(I(4)) is I(-4)


def test_div_mod_euclidean_folding():
    assert T.Div(I(7), I(2)).payload == 3
    assert T.Mod(I(7), I(2)).payload == 1
    assert T.Mod(I(-7), I(2)).payload == 1  # Euclidean: result in [0, |b|)
    assert T.Mod(I(7), I(-2)).payload == 1


def test_comparison_folding():
    assert T.Le(I(2), I(3)) is T.TRUE
    assert T.Lt(x, x) is T.FALSE
    assert T.Le(x, x) is T.TRUE


def test_ite_simplification():
    assert T.Ite(T.TRUE, x, y) is x
    assert T.Ite(T.FALSE, x, y) is y
    assert T.Ite(T.Lt(x, y), z, z) is z


def test_bool_ite_becomes_implications():
    cond = T.Lt(x, y)
    out = T.Ite(cond, T.Lt(y, z), T.Lt(z, y))
    assert out.kind == T.AND


def test_sort_checking():
    with pytest.raises(ValueError):
        T.Add(x, T.TRUE)
    with pytest.raises(ValueError):
        T.Eq(x, T.TRUE)
    f = T.FuncDecl("ff", [INT], INT)
    with pytest.raises(ValueError):
        f(T.TRUE)
    with pytest.raises(ValueError):
        T.App(f)


def test_bv_value_masking():
    assert T.BVVal(256, 8).payload == 0
    assert T.BVVal(-1, 8).payload == 255


def test_free_vars():
    t = T.Add(x, T.Mul(y, I(2)))
    assert t.free_vars() == frozenset({x, y})
    q = T.ForAll([x], T.Lt(x, y))
    assert q.free_vars() == frozenset({y})


def test_substitute_basic():
    t = T.Add(x, y)
    out = T.substitute(t, {x: I(3), y: I(4)})
    assert out is I(7)


def test_substitute_respects_binding():
    q = T.ForAll([x], T.Lt(x, y))
    out = T.substitute(q, {x: I(3)})
    assert out is q  # bound occurrence untouched


def test_substitute_capture_avoidance():
    # Substituting y := x into (forall x. x < y) must rename the binder.
    q = T.ForAll([x], T.Lt(x, y))
    out = T.substitute(q, {y: x})
    assert out.is_quant()
    new_binder = out.bound_vars[0]
    assert new_binder is not x
    assert out.body is T.Lt(new_binder, x)


def test_quantifier_accessors():
    q = T.ForAll([x, y], T.Lt(x, y), triggers=[[T.Add(x, y)]])
    assert q.bound_vars == (x, y)
    assert q.triggers == ((T.Add(x, y),),)
    assert q.body is T.Lt(x, y)


def test_subterm_iteration_dag_size():
    t = T.Add(T.Mul(x, y), T.Mul(x, y))
    # DAG: Add node + one shared Mul + x + y + the folded const? Add folds
    # the constant away, so: add, mul, x, y.
    assert t.size() == 4


def test_size_of_shared_dag_is_linear_and_cached():
    # h(t, t) nested 20 deep: about 2**20 tree nodes, 27 DAG nodes.
    h = T.FuncDecl("h", [INT, INT], INT)
    t = T.Add(T.Ite(T.Lt(x, y), x, y), T.Div(x, z))
    bottom = t.size()
    assert bottom == 7   # +, ite, <, div, x, y, z
    for _ in range(20):
        t = h(t, t)
    assert t.size() == bottom + 20 == len(list(t.subterms()))
    assert t.size() == t.size() == bottom + 20


def test_printer_roundtrip_syntax():
    t = T.ForAll([x], T.Implies(T.Le(I(0), x), T.Lt(x, T.Add(x, I(1)))))
    s = term_to_str(t)
    assert s.startswith("(forall ((x Int))")
    assert "(=>" in s


def test_query_size_counts_declarations():
    f = T.FuncDecl("qf", [INT], INT)
    q = [T.Eq(f(x), I(1))]
    script = query_to_smtlib(q)
    assert "(declare-fun qf (Int) Int)" in script
    assert "(declare-const x Int)" in script
    assert query_size_bytes(q) == len(script.encode())


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_constant_folding_matches_python(a, b):
    assert T.Add(I(a), I(b)).payload == a + b
    assert T.Sub(I(a), I(b)).payload == a - b
    assert T.Mul(I(a), I(b)).payload == a * b
    assert T.Le(I(a), I(b)) is T.BoolVal(a <= b)


@given(st.integers(-100, 100), st.integers(1, 20))
def test_euclidean_divmod_invariant(a, b):
    q = T.Div(I(a), I(b)).payload
    r = T.Mod(I(a), I(b)).payload
    assert a == b * q + r
    assert 0 <= r < b
