"""Tests for the bit-blasting BV decision procedure (by(bit_vector))."""

import itertools
import random

import pytest

import repro.vc.wp as wp
from repro.api import Session, VerifyConfig
from repro.smt import terms as T
from repro.smt.bitvec import BitBlaster, bv_check_sat, bv_model
from repro.smt.sat import neg
from repro.smt.sorts import bv
from repro.systems.mimalloc.verified import build_bit_tricks_module

W = 8
B = bv(W)
x = T.Var("x", B)
y = T.Var("y", B)


def _valid(claim):
    return bv_check_sat(T.Not(claim)) is False


def test_paper_mask_mod_identity():
    # The §3.3 example, scaled to 8 bits: x & 7 == x % 8.
    assert _valid(T.Eq(T.BvAnd(x, T.BVVal(7, W)), T.BvURem(x, T.BVVal(8, W))))


def test_mask_mod_wrong_width_refuted():
    m = bv_model(T.Not(T.Eq(T.BvAnd(x, T.BVVal(3, W)),
                            T.BvURem(x, T.BVVal(8, W)))))
    assert m is not None
    assert (m[x] & 3) != (m[x] % 8)


def test_add_commutes():
    assert _valid(T.Eq(T.BvAdd(x, y), T.BvAdd(y, x)))


def test_sub_self_is_zero():
    assert _valid(T.Eq(T.BvSub(x, x), T.BVVal(0, W)))


def test_shift_is_mul_by_two():
    assert _valid(T.Eq(T.BvShl(x, T.BVVal(1, W)), T.BvMul(x, T.BVVal(2, W))))


def test_de_morgan_bitwise():
    assert _valid(T.Eq(T.BvNot(T.BvAnd(x, y)),
                       T.BvOr(T.BvNot(x), T.BvNot(y))))


def test_xor_self_zero():
    assert _valid(T.Eq(T.BvXor(x, x), T.BVVal(0, W)))


def test_shift_beyond_width_is_zero():
    assert _valid(T.Eq(T.BvShl(x, T.BVVal(9, W)), T.BVVal(0, W)))


def test_lshr_then_shl_clears_low_bits():
    k = T.BVVal(3, W)
    assert _valid(T.Eq(T.BvShl(T.BvLshr(x, k), k),
                       T.BvAnd(x, T.BVVal(0b11111000, W))))


def test_udiv_relation():
    d = T.BVVal(5, W)
    q = T.BvUDiv(x, d)
    r = T.BvURem(x, d)
    assert _valid(T.Eq(T.BvAdd(T.BvMul(q, d), r), x))
    assert _valid(T.BvULt(r, d))


def test_division_by_zero_smtlib_semantics():
    z = T.BVVal(0, W)
    assert _valid(T.Eq(T.BvUDiv(x, z), T.BVVal(255, W)))
    assert _valid(T.Eq(T.BvURem(x, z), x))


@pytest.mark.parametrize("seed", range(2))
def test_ground_ops_against_python(seed):
    rng = random.Random(seed)
    ops = [
        (T.BvAnd, lambda a, b: a & b),
        (T.BvOr, lambda a, b: a | b),
        (T.BvXor, lambda a, b: a ^ b),
        (T.BvAdd, lambda a, b: (a + b) % 256),
        (T.BvSub, lambda a, b: (a - b) % 256),
        (T.BvMul, lambda a, b: (a * b) % 256),
        (T.BvUDiv, lambda a, b: (a // b) if b else 255),
        (T.BvURem, lambda a, b: (a % b) if b else a),
        (T.BvShl, lambda a, b: (a << b) % 256 if b < 8 else 0),
        (T.BvLshr, lambda a, b: (a >> b) if b < 8 else 0),
    ]
    for _ in range(40):
        op, pyop = rng.choice(ops)
        a, b = rng.randrange(256), rng.randrange(256)
        expect = pyop(a, b)
        assert _valid(T.Eq(op(T.BVVal(a, W), T.BVVal(b, W)),
                           T.BVVal(expect, W)))
        wrong = (expect + 1) % 256
        assert bv_check_sat(T.Eq(op(T.BVVal(a, W), T.BVVal(b, W)),
                                 T.BVVal(wrong, W))) is False


def test_comparisons_ground():
    rng = random.Random(7)
    for _ in range(20):
        a, b = rng.randrange(256), rng.randrange(256)
        assert bv_check_sat(T.BvULe(T.BVVal(a, W), T.BVVal(b, W))) is (a <= b)
        assert bv_check_sat(T.BvULt(T.BVVal(a, W), T.BVVal(b, W))) is (a < b)


def test_wide_word_mask_property():
    # 64-bit instance of the page-table-style lemma:
    # (a & mask(13,29)) == 0 && i < 13  ==>  ((a | bit(i)) & mask(13,29)) == 0
    # checked for a fixed i to keep blasting small.
    W64 = 16  # scaled-down width keeps the test fast; structure is identical
    a = T.Var("a", bv(W64))
    mask = ((1 << 13) - 1) & ~((1 << 5) - 1)  # bits 5..12
    i = 3
    pre = T.Eq(T.BvAnd(a, T.BVVal(mask, W64)), T.BVVal(0, W64))
    post = T.Eq(T.BvAnd(T.BvOr(a, T.BVVal(1 << i, W64)), T.BVVal(mask, W64)),
                T.BVVal(0, W64))
    assert bv_check_sat(T.Not(T.Implies(pre, post))) is False


# -- symbolic differential: circuits over free variables vs Python -----------

_BV_BINOPS = {
    T.BVAND: (T.BvAnd, lambda a, b, w: a & b),
    T.BVOR: (T.BvOr, lambda a, b, w: a | b),
    T.BVXOR: (T.BvXor, lambda a, b, w: a ^ b),
    T.BVADD: (T.BvAdd, lambda a, b, w: (a + b) % (1 << w)),
    T.BVSUB: (T.BvSub, lambda a, b, w: (a - b) % (1 << w)),
    T.BVMUL: (T.BvMul, lambda a, b, w: (a * b) % (1 << w)),
    # SMT-LIB: x/0 is all ones, x%0 is x.
    T.BVUDIV: (T.BvUDiv, lambda a, b, w: a // b if b else (1 << w) - 1),
    T.BVUREM: (T.BvURem, lambda a, b, w: a % b if b else a),
    # Shift amounts >= width give zero.
    T.BVSHL: (T.BvShl, lambda a, b, w: (a << b) % (1 << w) if b < w else 0),
    T.BVLSHR: (T.BvLshr, lambda a, b, w: a >> b if b < w else 0),
}
_CMPS = (T.Eq, T.BvULe, T.BvULt)


def _py_eval(t, env):
    """Reference semantics of a BV/bool term under ``env`` (var -> int)."""
    k = t.kind
    if k == T.VAR:
        return env[t]
    if k in (T.BV_CONST, T.BOOL_CONST):
        return t.payload
    args = [_py_eval(a, env) for a in t.args]
    if k == T.BVNOT:
        return args[0] ^ ((1 << t.sort.width) - 1)
    if k in _BV_BINOPS:
        return _BV_BINOPS[k][1](args[0], args[1], t.sort.width)
    if k == T.ITE:
        return args[1] if args[0] else args[2]
    if k == T.NOT:
        return not args[0]
    if k == T.AND:
        return all(args)
    if k == T.OR:
        return any(args)
    if k == T.IMPLIES:
        return not args[0] or args[1]
    if k == T.EQ:
        return args[0] == args[1]
    if k == T.BVULE:
        return args[0] <= args[1]
    if k == T.BVULT:
        return args[0] < args[1]
    raise ValueError(k)


def _assert_matches_python(formula, variables, width):
    """Blast once, then pin every assignment of the free variables through
    SAT assumptions: the formula's literal must be satisfiable exactly
    where Python says true, and its negation exactly where it says false."""
    blaster = BitBlaster()
    root = blaster.blit(formula)
    var_bits = [blaster.bits(v) for v in variables]
    for values in itertools.product(range(1 << width), repeat=len(variables)):
        pins = [b if (val >> i) & 1 else neg(b)
                for bits, val in zip(var_bits, values)
                for i, b in enumerate(bits)]
        expect = bool(_py_eval(formula, dict(zip(variables, values))))
        assert blaster.sat.solve(pins + [root]) is expect, (formula, values)
        assert blaster.sat.solve(pins + [neg(root)]) is (not expect), \
            (formula, values)


def _vars(n, width):
    return [T.Var(f"v{i}", bv(width)) for i in range(n)]


def _consts(width):
    return [T.BVVal(0, width), T.BVVal(1, width),
            T.BVVal((1 << width) - 1, width)]


def _random_bv(rng, variables, width, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.7:
            return rng.choice(variables)
        return rng.choice(_consts(width) + [T.BVVal(rng.randrange(1 << width),
                                                    width)])
    r = rng.random()
    if r < 0.1:
        return T.BvNot(_random_bv(rng, variables, width, depth - 1))
    if r < 0.2:
        return T.Ite(_random_bool(rng, variables, width, depth - 1),
                     _random_bv(rng, variables, width, depth - 1),
                     _random_bv(rng, variables, width, depth - 1))
    ctor = _BV_BINOPS[rng.choice(sorted(_BV_BINOPS))][0]
    return ctor(_random_bv(rng, variables, width, depth - 1),
                _random_bv(rng, variables, width, depth - 1))


def _random_bool(rng, variables, width, depth):
    if depth == 0 or rng.random() < 0.5:
        atom = rng.choice(_CMPS)(_random_bv(rng, variables, width, depth),
                                 _random_bv(rng, variables, width, depth))
        return T.Not(atom) if rng.random() < 0.5 else atom
    conn = rng.choice((T.Not, T.And, T.Or, T.Implies, T.Iff))
    if conn is T.Not:
        return T.Not(_random_bool(rng, variables, width, depth - 1))
    return conn(_random_bool(rng, variables, width, depth - 1),
                _random_bool(rng, variables, width, depth - 1))


def test_symbolic_every_operator_against_python():
    w = 2
    x, y, z = _vars(3, w)
    terms = [ctor(x, y) for ctor, _ in _BV_BINOPS.values()]
    terms += [T.BvNot(x), T.Ite(T.BvULt(x, y), x, z)]
    for t in terms:
        for cmp in _CMPS:
            atom = cmp(t, z)
            for f in (atom, T.Not(atom)):
                _assert_matches_python(f, [x, y, z], w)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_symbolic_edge_cases_against_python(width):
    x, y = _vars(2, width)
    zero = T.BVVal(0, width)
    ones = T.BVVal((1 << width) - 1, width)
    formulas = [T.Eq(T.BvUDiv(x, zero), ones), T.Eq(T.BvURem(x, zero), x),
                T.BvULt(T.BvUDiv(x, y), y), T.Eq(T.BvURem(x, y), x)]
    for f in formulas:
        for g in (f, T.Not(f)):
            _assert_matches_python(g, [x, y], width)
    for amount in range(width, 1 << width):   # shift amounts >= width
        k = T.BVVal(amount, width)
        for f in (T.Eq(T.BvShl(x, k), zero), T.BvULt(zero, T.BvLshr(x, k))):
            for g in (f, T.Not(f)):
                _assert_matches_python(g, [x], width)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_symbolic_folded_subterms_against_python(width):
    # Each subterm reaches a constant or duplicate gate input, so every
    # folding rule of the gates runs inside a checked formula.
    x, y = _vars(2, width)
    zero, one, ones = _consts(width)
    folded = [
        T.BvAnd(x, zero), T.BvAnd(x, ones), T.BvAnd(x, x),
        T.BvAnd(x, T.BvNot(x)), T.BvOr(x, zero), T.BvOr(x, ones),
        T.BvXor(x, x), T.BvXor(x, ones), T.BvXor(T.BvNot(x), y),
        T.BvMul(x, one), T.BvMul(x, zero), T.BvAdd(x, zero),
        T.BvSub(x, x), T.BvUDiv(x, one), T.BvURem(x, one),
        T.BvShl(x, zero), T.BvLshr(zero, y),
        # ite(c, a, a) once both arms blast to x's bits; ite(T, a, b)
        # once 0 <= x blasts to the true literal.
        T.Ite(T.BvULt(x, y), T.BvOr(x, zero), T.BvAnd(x, ones)),
        T.Ite(T.BvULe(zero, x), x, y),
    ]
    for i, t in enumerate(folded):
        atom = _CMPS[i % len(_CMPS)](t, y)
        for f in (atom, T.Not(atom)):
            _assert_matches_python(f, [x, y], width)


@pytest.mark.parametrize("seed", range(2))
def test_symbolic_random_formulas_against_python(seed):
    rng = random.Random(seed)
    for _ in range(15):
        width = rng.randint(1, 4)
        # Keep at most 8 free bits (256 assignments) per formula.
        n = rng.randint(1, min(3, 8 // width))
        variables = _vars(n, width)
        _assert_matches_python(_random_bool(rng, variables, width, 3),
                               variables, width)


# -- circuit size: folding and structural hashing -----------------------------

def test_and_gate_is_hashed_on_the_unordered_pair():
    blaster = BitBlaster()
    a, b = blaster.bits(x)[:2]
    g = blaster.gate_and(a, b)
    n = blaster.sat.num_vars
    assert blaster.gate_and(b, a) == g
    assert blaster.sat.num_vars == n


def test_xor_gate_shares_the_negated_input_form():
    blaster = BitBlaster()
    a, b = blaster.bits(x)[:2]
    g = blaster.gate_xor(a, b)
    n = blaster.sat.num_vars
    assert blaster.gate_xor(neg(a), b) == neg(g)
    assert blaster.gate_xor(a, neg(b)) == neg(g)
    assert blaster.gate_xor(neg(b), neg(a)) == g
    assert blaster.sat.num_vars == n


def test_gates_fold_constant_and_duplicate_inputs():
    blaster = BitBlaster()
    a, b = blaster.bits(x)[:2]
    t, f = blaster.true_lit(), blaster.false_lit()
    assert t & 1 == 0   # the true literal is positive
    n = blaster.sat.num_vars
    assert blaster.gate_and(a, f) == f and blaster.gate_and(t, a) == a
    assert blaster.gate_and(a, a) == a and blaster.gate_and(a, neg(a)) == f
    assert blaster.gate_xor(a, a) == f and blaster.gate_xor(a, neg(a)) == t
    assert blaster.gate_xor(a, t) == neg(a) and blaster.gate_xor(f, a) == a
    assert blaster.gate_ite(t, a, b) == a and blaster.gate_ite(f, a, b) == b
    assert blaster.gate_ite(b, a, a) == a
    assert blaster.sat.num_vars == n


def test_bit_tricks_circuit_size(monkeypatch):
    # The by(bit_vector) queries of mimalloc's bit-tricks module build
    # about 7.2k clauses over 2.7k variables with folding and hashing;
    # without them, 758k clauses over 220k variables.
    queries = []

    def recording(formula, *args, **kwargs):
        queries.append(formula)
        return bv_check_sat(formula, *args, **kwargs)

    monkeypatch.setattr(wp, "bv_check_sat", recording)
    with Session(VerifyConfig(jobs=1)) as session:
        assert session.verify_module(build_bit_tricks_module()).ok
    assert len(queries) == 5
    clauses = variables = 0
    for formula in queries:
        blaster = BitBlaster()
        before = blaster.sat.add_clause
        calls = [0]

        def counting(lits, *args, **kwargs):
            calls[0] += 1
            return before(lits, *args, **kwargs)

        blaster.sat.add_clause = counting
        blaster.sat.add_clause([blaster.blit(formula)])
        clauses += calls[0]
        variables += blaster.sat.num_vars
    assert clauses <= 8000
    assert variables <= 3000
