"""Integration tests for the DPLL(T) core (EUF + LIA + quantifiers)."""

import collections

import pytest

from repro.smt import terms as T
from repro.smt.solver import (SAT, UNKNOWN, UNSAT, SmtSolver, SolverConfig)
from repro.smt.sorts import BOOL, INT, uninterpreted

S = uninterpreted("S")
x, y, z = (T.Var(n, INT) for n in "xyz")
a, b, c = (T.Var(n, S) for n in "abc")
f = T.FuncDecl("f", [S], S)
g = T.FuncDecl("g", [INT], INT)
p = T.FuncDecl("p", [S, S], BOOL)
I = T.IntVal


def check(*assertions, **kw):
    solver = SmtSolver(SolverConfig(**kw)) if kw else SmtSolver()
    for assertion in assertions:
        solver.add(assertion)
    return solver.check()


class TestGroundArithmetic:
    def test_lt_cycle_unsat(self):
        assert check(T.Lt(x, y), T.Lt(y, z), T.Lt(z, x)) == UNSAT

    def test_lt_chain_sat(self):
        assert check(T.Lt(x, y), T.Lt(y, z)) == SAT

    def test_parity_unsat(self):
        assert check(T.Eq(T.Add(x, y), I(10)),
                     T.Eq(T.Sub(x, y), I(3))) == UNSAT

    def test_parity_sat(self):
        assert check(T.Eq(T.Add(x, y), I(10)),
                     T.Eq(T.Sub(x, y), I(4))) == SAT

    def test_model_values(self):
        s = SmtSolver()
        s.add(T.Eq(T.Add(x, y), I(10)))
        s.add(T.Eq(T.Sub(x, y), I(4)))
        assert s.check() == SAT
        assert s.model_int(x) == 7
        assert s.model_int(y) == 3

    def test_boolean_structure(self):
        assert check(T.Or(T.Lt(x, I(0)), T.Gt(x, I(10))),
                     T.Ge(x, I(0)), T.Le(x, I(10))) == UNSAT

    def test_ite_lifting(self):
        t = T.Ite(T.Lt(x, I(0)), T.Neg(x), x)
        assert check(T.Lt(t, I(0))) == UNSAT  # |x| >= 0

    def test_iff(self):
        atom1 = T.Lt(x, y)
        atom2 = T.Lt(y, x)
        assert check(T.Eq(atom1, atom2), atom1) == UNSAT


class TestDivMod:
    def test_div_mod_relation(self):
        assert check(T.Ne(T.Add(T.Mul(T.Div(x, I(4)), I(4)),
                                T.Mod(x, I(4))), x)) == UNSAT

    def test_mod_range(self):
        assert check(T.Ge(T.Mod(x, I(4)), I(4))) == UNSAT
        assert check(T.Lt(T.Mod(x, I(4)), I(0))) == UNSAT

    def test_mod_concrete(self):
        assert check(T.Ne(T.Mod(I(10), I(4)), I(2))) == UNSAT

    def test_variable_divisor_guarded(self):
        assert check(T.Ge(y, I(1)), T.Ge(T.Mod(x, y), y)) == UNSAT


class TestEuf:
    def test_congruence(self):
        assert check(T.Eq(a, b), T.Ne(f(a), f(b))) == UNSAT

    def test_no_congruence_needed(self):
        assert check(T.Ne(f(a), f(b))) == SAT

    def test_euf_lia_combination(self):
        assert check(T.Le(x, y), T.Le(y, x), T.Ne(g(x), g(y))) == UNSAT

    def test_interface_equality_propagation(self):
        assert check(T.Eq(x, T.Add(z, I(1))), T.Eq(y, T.Add(z, I(1))),
                     T.Ne(g(x), g(y))) == UNSAT

    def test_boolean_function_congruence(self):
        q = T.FuncDecl("q", [S], BOOL)
        assert check(T.Eq(a, b), q(a), T.Not(q(b))) == UNSAT


class TestQuantifiers:
    def test_ematch_simple(self):
        qx = T.Var("qx", INT)
        ax = T.ForAll([qx], T.Gt(g(qx), qx))
        assert check(ax, T.Le(g(I(5)), I(5))) == UNSAT

    def test_ematch_nested_apps(self):
        qa = T.Var("qa", S)
        ax = T.ForAll([qa], T.Eq(f(f(qa)), qa))
        assert check(ax, T.Ne(f(f(f(c))), f(c))) == UNSAT

    def test_multivar_with_arith_guard(self):
        h = T.FuncDecl("h", [INT], INT)
        qi, qj = T.Var("qi", INT), T.Var("qj", INT)
        mono = T.ForAll([qi, qj],
                        T.Implies(T.Lt(qi, qj), T.Le(h(qi), h(qj))))
        assert check(mono, T.Gt(h(I(3)), h(I(7)))) == UNSAT

    def test_skolemization(self):
        qx = T.Var("qx", INT)
        ex = T.Exists([qx], T.Eq(g(qx), I(0)))
        alln = T.ForAll([qx], T.Ne(g(qx), I(0)))
        assert check(ex, alln) == UNSAT

    def test_unresolved_quantifier_is_unknown_or_sat(self):
        qx = T.Var("qx", INT)
        ax = T.ForAll([qx], T.Gt(g(qx), qx))
        assert check(ax, T.Ge(g(I(5)), I(0))) in (SAT, UNKNOWN)

    def test_explicit_triggers_respected(self):
        qx = T.Var("qx", INT)
        ax = T.ForAll([qx], T.Gt(g(qx), qx), triggers=[[g(qx)]])
        assert check(ax, T.Le(g(I(5)), I(5))) == UNSAT

    def test_instantiation_counter(self):
        s = SmtSolver()
        qx = T.Var("qx", INT)
        s.add(T.ForAll([qx], T.Gt(g(qx), qx)))
        s.add(T.Le(g(I(5)), I(5)))
        assert s.check() == UNSAT
        assert s.stats.instantiations >= 1


class TestMbqi:
    def test_epr_symmetry_unsat(self):
        u, v = T.Var("u", S), T.Var("v", S)
        sym = T.ForAll([u, v], T.Implies(p(u, v), p(v, u)))
        assert check(sym, p(a, b), T.Not(p(b, a))) == UNSAT

    def test_epr_sat_with_complete_instantiation(self):
        u, v = T.Var("u", S), T.Var("v", S)
        sym = T.ForAll([u, v], T.Implies(p(u, v), p(v, u)))
        assert check(sym, p(a, b), mbqi=True) == SAT

    def test_epr_transitivity_unsat(self):
        u, v, w = T.Var("u", S), T.Var("v", S), T.Var("w", S)
        trans = T.ForAll([u, v, w], T.Implies(T.And(p(u, v), p(v, w)),
                                              p(u, w)))
        assert check(trans, p(a, b), p(b, c), T.Not(p(a, c)),
                     mbqi=True) == UNSAT

    def test_epr_no_ground_terms_gets_witness(self):
        u = T.Var("u", S)
        q = T.FuncDecl("q1", [S], BOOL)
        both = T.And(T.ForAll([u], q(u)),
                     T.ForAll([u], T.Not(q(u))))
        assert check(both, mbqi=True) == UNSAT


class TestStats:
    def test_query_bytes_accumulate(self):
        s = SmtSolver()
        s.add(T.Lt(x, y))
        before = s.stats.query_bytes
        s.add(T.Lt(y, z))
        assert s.stats.query_bytes > before

    def test_solve_time_recorded(self):
        s = SmtSolver()
        s.add(T.Lt(x, y))
        s.check()
        assert s.stats.solve_seconds > 0


class TestItecacheLifetime:
    """Regression: the ITE-lift cache must not leak across `add` batches.

    `_preprocess` clears `_ite_cache`, so a reused solver re-lifts the
    same ITE term with a fresh variable (and fresh defining clauses) in
    each assertion batch instead of resurrecting a stale rewrite.
    """

    def test_cache_cleared_between_adds(self):
        s = SmtSolver()
        ite = T.Ite(T.Lt(x, y), I(1), I(2))
        s.add(T.Eq(z, ite))
        first = s._ite_cache.get(ite)
        assert first is not None
        s.add(T.Eq(z, ite))
        second = s._ite_cache.get(ite)
        assert second is not None and second is not first

    def test_relift_keeps_semantics(self):
        # Both batches lift the same ITE independently; the defining
        # clauses must still force them equal under the same condition.
        s = SmtSolver()
        ite = T.Ite(T.Lt(x, I(0)), I(1), I(2))
        s.add(T.Eq(y, ite))
        s.add(T.Eq(z, ite))
        s.add(T.Ne(y, z))
        assert s.check() == UNSAT

    def test_relift_sat_side(self):
        s = SmtSolver()
        ite = T.Ite(T.Lt(x, I(0)), I(1), I(2))
        s.add(T.Eq(y, ite))
        s.add(T.Eq(z, ite))
        assert s.check() == SAT


class TestSharedDag:
    """Preprocessing walks a shared term DAG once, not as a tree."""

    def test_preprocessing_lifts_each_subterm_once(self):
        # h(t, t) nested 20 deep over one non-bool ITE and one div: about
        # 2**20 tree nodes, a DAG of 27 distinct subterms.
        h = T.FuncDecl("h", [INT, INT], INT)
        t = T.Add(T.Ite(T.Lt(x, y), x, y), T.Div(x, z))
        for _ in range(20):
            t = h(t, t)
        formula = T.Lt(t, I(0))
        s = SmtSolver()
        first_visits = collections.Counter()
        lift = s._lift_ground

        def counting(t, memo):
            first_visits[t] += t not in memo
            return lift(t, memo)

        s._lift_ground = counting
        # Preprocess only: `add` also prints the query as SMT-LIB text to
        # count its bytes, and that text is a tree.
        s._preprocess(formula)
        assert set(first_visits) == set(formula.subterms())
        assert max(first_visits.values()) == 1
        fresh_ites = [t for t in s._ground_terms
                      if t.kind == T.VAR and t.payload.startswith("ite!")]
        assert len(fresh_ites) == 1 and len(s._ite_cache) == 1
        assert s._divmod_done == {(x, z)}
