"""Exact bivariate polynomial arithmetic.

The ring operations are cross-checked two ways: fixed examples with known
results, and hypothesis-generated random polynomials exercising the ring
axioms, the Kronecker-substitution multiplier against the schoolbook one,
and evaluation as a ring homomorphism.
"""

import decimal
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_tutte import bipoly
from fractal_tutte.bipoly import (
    BiPoly,
    _mul_kronecker,
    _mul_schoolbook,
    _pack,
    _unpack,
)
from fractal_tutte.errors import ZeroPolynomial
from fractal_tutte.recursion import tutte_psw
from fractal_tutte.scalars import LOG_CONTEXT
from helpers import NonDivisible, div_exact_xminus1, reference_unpack


def _p(terms):
    return BiPoly(terms)


def _via(mul, a, b):
    """Apply a dict-level multiplier the way the dispatcher does."""
    ta, tb = dict(a.terms()), dict(b.terms())
    if not ta or not tb:
        return BiPoly.zero()
    return BiPoly(mul(ta, tb))


X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.one()


# -- strategies ------------------------------------------------------------

coeffs = st.integers(min_value=-(10**6), max_value=10**6)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    coeffs,
    max_size=8,
).map(BiPoly)
big_coeffs = st.integers(min_value=-(10**40), max_value=10**40)
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    big_coeffs,
    max_size=20,
).map(BiPoly)
#: wide_polys without negative coefficients: the operands that
#: ``_mul_kronecker`` takes.
unsigned_wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.integers(min_value=1, max_value=10**40),
    max_size=20,
).map(BiPoly)
rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


# -- construction and canonical form ---------------------------------------


def test_zero_coefficients_are_dropped_on_construction():
    assert _p({(1, 0): 0, (0, 0): 3}) == _p({(0, 0): 3})
    assert _p({(2, 2): 0}).is_zero()


def test_constant_and_generators():
    assert BiPoly.constant(5).coefficient(0, 0) == 5
    assert X.coefficient(1, 0) == 1
    assert Y.coefficient(0, 1) == 1
    assert BiPoly.x_minus_1() == X - ONE
    assert BiPoly.y_minus_1() == Y - ONE


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_equality_ignores_term_order():
    a = _p({(0, 0): 1, (1, 0): 2})
    b = _p({(1, 0): 2, (0, 0): 1})
    assert a == b
    assert hash(a) == hash(b)


def test_hash_agrees_with_equality_to_int():
    assert hash(BiPoly.one()) == hash(1)
    assert hash(BiPoly.zero()) == hash(0)
    assert hash(BiPoly.constant(-7)) == hash(-7)
    assert len({BiPoly.one(), 1}) == 1
    assert len({BiPoly.zero(), 0}) == 1
    # a non-constant polynomial equals no int and stays its own key
    assert len({X + ONE, 1, 2}) == 3
    assert {X + ONE: "a"}[ONE + X] == "a"


# -- addition ---------------------------------------------------------------


def test_add_known_example():
    # (y + 2) + (x - 1) = x + y + 1
    lhs = Y + BiPoly.constant(2) + X - ONE
    assert lhs == _p({(1, 0): 1, (0, 1): 1, (0, 0): 1})


def test_add_cancellation_leaves_empty_term_map():
    s = (X - ONE) + (ONE - X)
    assert s.is_zero()
    assert s.num_terms() == 0


@given(small_polys, small_polys, small_polys)
def test_add_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + BiPoly.zero() == a


@given(small_polys)
def test_subtraction_is_additive_inverse(a):
    assert (a - a).is_zero()
    assert a + (-a) == BiPoly.zero()


@given(small_polys, coeffs)
def test_int_adds_and_subtracts_as_a_constant_in_both_orders(a, k):
    c = BiPoly.constant(k)
    assert a + k == k + a == a + c
    assert a - k == a - c
    assert k - a == c - a
    assert (k - a) + (a - k) == 0


def test_add_of_an_int_keeps_the_map_canonical():
    assert (X + 0) == X and (0 + X) == X
    assert ((ONE - 1) + 0).num_terms() == 0
    with pytest.raises(TypeError):
        X + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) - X


# -- multiplication ---------------------------------------------------------


def test_mul_known_examples():
    assert (X - ONE) * (X - ONE) == _p({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    yp2 = Y + BiPoly.constant(2)
    cube = yp2 * yp2 * yp2
    assert cube.coefficient(0, 3) == 1
    assert cube.coefficient(0, 2) == 6
    assert cube.coefficient(0, 1) == 12
    assert cube.coefficient(0, 0) == 8


def test_mul_by_int_scalar():
    assert (X + Y) * 3 == _p({(1, 0): 3, (0, 1): 3})
    assert 0 * (X + Y) == BiPoly.zero()


def test_pow_binomial():
    cube = (X + Y) ** 3
    assert cube == _p({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
    assert (X + Y) ** 0 == ONE


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_mul_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert (a * BiPoly.zero()).is_zero()


@given(unsigned_wide_polys, unsigned_wide_polys)
@settings(max_examples=60)
def test_kronecker_matches_schoolbook(a, b):
    assert _via(_mul_kronecker, a, b) == _via(_mul_schoolbook, a, b)


def test_kronecker_on_tiny_inputs():
    # The dispatcher routes small products to the schoolbook path, so force
    # the packed multiplier directly on minimal operands.
    assert _via(_mul_kronecker, X, Y) == _p({(1, 1): 1})
    assert _via(_mul_kronecker, X + ONE, X + ONE) == _p({(2, 0): 1, (1, 0): 2,
                                                         (0, 0): 1})
    assert _via(_mul_kronecker, BiPoly.zero(), X).is_zero()


def test_kronecker_with_large_coefficients():
    a = _p({(0, 0): 10**30, (5, 7): 10**25, (3, 2): 1})
    b = _p({(1, 1): 10**28, (0, 0): 7, (8, 0): 10**31})
    assert _via(_mul_kronecker, a, b) == _via(_mul_schoolbook, a, b)


def _block(nx, ny, seed):
    """An nx by ny block of terms with positive coefficients below 10^20."""
    rng = random.Random(seed)
    return {(i, j): rng.randrange(1, 10**20)
            for i in range(nx) for j in range(ny)}


def _kronecker_spy(mp):
    """Route ``_mul_kronecker`` through a spy that records its calls and
    raises on an operand with a negative coefficient."""
    calls = []
    kronecker = bipoly._mul_kronecker

    def spy(a, b):
        if min(a.values()) < 0 or min(b.values()) < 0:
            raise AssertionError("a signed operand reached _mul_kronecker")
        calls.append((len(a), len(b)))
        return kronecker(a, b)

    mp.setattr(bipoly, "_mul_kronecker", spy)
    return calls


@pytest.mark.parametrize("key", [(0, 0), (3, 4), (7, 7)])
@pytest.mark.parametrize("negated", ["a", "b"])
def test_signed_operands_never_reach_kronecker(monkeypatch, key, negated):
    # 72 x 64 pairs over a box of 240 slots pass every size rule, so the
    # unsigned product is packed; one negative coefficient anywhere in
    # either operand sends the same product to schoolbook.
    a, b = _block(9, 8, seed=1), _block(8, 8, seed=2)
    calls = _kronecker_spy(monkeypatch)
    assert BiPoly(a) * BiPoly(b) == BiPoly(_mul_schoolbook(a, b))
    assert calls == [(72, 64)]
    signed = a if negated == "a" else b
    signed[key] = -signed[key]
    assert BiPoly(a) * BiPoly(b) == BiPoly(_mul_schoolbook(a, b))
    assert BiPoly(b) * BiPoly(a) == BiPoly(_mul_schoolbook(b, a))
    assert calls == [(72, 64)]


#: Dense blocks of ones that lift a wide_polys operand past the pair
#: threshold: 169 x 169 pairs over a box of 625 slots.
_LIFT = BiPoly({(i, j): 1 for i in range(13) for j in range(13)})


@given(wide_polys, wide_polys)
@settings(max_examples=30, deadline=None)
def test_signed_random_products_never_reach_kronecker(a, b):
    with pytest.MonkeyPatch.context() as mp:
        _kronecker_spy(mp)
        for f, g in ((a, b), (a + _LIFT, b + _LIFT)):
            assert f * g == _via(_mul_schoolbook, f, g)


def _double_loop(a, b):
    """The product of two term maps by a plain double loop, with the
    cancelled terms dropped at the end."""
    out = {}
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b.items():
            key = (xa + xb, ya + yb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _term_maps(max_size, top):
    """Term maps of up to max_size terms of degree at most top in x and
    in y, with coefficients of +-1 (which cancel often), of any sign, or
    positive."""
    return st.one_of(*(st.dictionaries(
        st.tuples(st.integers(0, top), st.integers(0, top)), values,
        max_size=max_size) for values in (
            st.sampled_from((-1, 1)),
            st.integers(-(10**40), 10**40).filter(bool),
            st.integers(1, 10**40))))


monomial_minus_one = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    any).map(lambda shift: {shift: 1, (0, 0): -1})


@given(st.one_of(_term_maps(3, 3), monomial_minus_one), _term_maps(40, 9))
@settings(max_examples=200)
def test_schoolbook_matches_a_double_loop_in_either_order(short, long):
    expected = _double_loop(short, long)
    assert _mul_schoolbook(short, long) == expected
    assert _mul_schoolbook(long, short) == expected


@given(wide_polys, st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
@settings(max_examples=60)
def test_shift_subtract_matches_schoolbook(p, shift):
    minus_one = BiPoly({shift: 1, (0, 0): -1})
    expected = BiPoly(_double_loop(p.terms(), minus_one.terms()))
    assert p * minus_one == minus_one * p == expected
    # a geometric series telescopes, and its cancelled terms are dropped
    i, j = shift
    geometric = BiPoly({(k * i, k * j): 1 for k in range(4)})
    assert (geometric * minus_one).terms() == {(4 * i, 4 * j): 1, (0, 0): -1}


# -- the decimal Kronecker multiplier ---------------------------------------


def _packed_widths(monkeypatch):
    """Record the slot width of every operand ``_mul_kronecker`` packs."""
    widths = []
    pack = bipoly._pack

    def spy(p, stride, w, text):
        widths.append(w)
        return pack(p, stride, w, text)

    monkeypatch.setattr(bipoly, "_pack", spy)
    return widths


def test_kronecker_squares_the_same_object_with_one_pack(monkeypatch):
    widths = _packed_widths(monkeypatch)
    a = {(0, 0): 10**25, (1, 0): 3, (2, 1): 10**24 + 1, (0, 3): 7}
    assert _mul_kronecker(a, a) == _mul_schoolbook(a, a)
    assert len(widths) == 1
    assert _mul_kronecker(a, dict(a)) == _mul_schoolbook(a, a)
    assert len(widths) == 3


@pytest.mark.parametrize("m,width", [(10**12 // 2 - 1, 12),
                                     (10**12 // 2, 13)])
def test_kronecker_coefficient_bound_at_a_power_of_ten(monkeypatch, m,
                                                       width):
    # Two pairs of coefficient products meet in the x slot, so it reaches
    # the bound 2 m: 10^12 - 2 fits in 12 digits, and 10^12 needs 13.
    widths = _packed_widths(monkeypatch)
    a = {(k, 0): m for k in range(2)}
    b = {(k, 0): 1 for k in range(2)}
    got = _mul_kronecker(a, b)
    assert got == _mul_schoolbook(a, b)
    assert got[(1, 0)] == 2 * m
    assert widths == [width, width]


#: Operands with coefficients over 640 digits, whose product slots are
#: wider than the default 4300-digit int/str conversion limit.
_OVER_4300 = ({(0, 0): 10**3000 + 7, (1, 2): 3 * 10**2999, (2, 1): 5},
              {(0, 0): 10**2500, (3, 1): 10**2600 + 1, (1, 1): 2})


def test_kronecker_past_the_int_string_limit(monkeypatch):
    widths = _packed_widths(monkeypatch)
    a, b = _OVER_4300
    assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)
    assert _mul_kronecker(a, a) == _mul_schoolbook(a, a)
    assert min(widths) > 4300


# -- reading the product back in blocks ------------------------------------

#: Products at the edges of the packed reading: zero slots inside the
#: degree box, top slots of zeros that are missing from the text (one and
#: two of them), a coefficient that fills its slot with nines at the
#: power-of-ten width bound, and slots over 640 and over 4300 digits.
BLOCK_CASES = {
    "zero-slots": ({(4, 0): 1, (0, 0): 2}, {(3, 0): 1, (0, 0): 3}),
    "top-slot-missing": ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1}),
    "two-top-slots-missing": ({(1, 0): 1, (0, 2): 1}, {(1, 0): 1}),
    "width-bound": ({(k, 0): (10**12 - 1) // 3 for k in range(3)},
                    {(k, 0): 1 for k in range(3)}),
    "over-640-digits": ({(0, 0): 10**700, (1, 1): 3}, {(0, 0): 7, (2, 0): 1}),
    "over-4300-digits": _OVER_4300,
}


def _in_blocks(mp, a, b, slots):
    """``_mul_kronecker(a, b)`` with its product read ``slots`` slots per
    block; the slot width is learnt from a first run."""
    widths = _packed_widths(mp)
    _mul_kronecker(a, b)
    mp.setattr(bipoly, "_BLOCK_DIGITS", slots * widths[0])
    return _mul_kronecker(a, b)


@pytest.mark.parametrize("slots", [1, 2, 3])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_kronecker_in_small_blocks_matches_schoolbook(monkeypatch, case,
                                                      slots):
    a, b = BLOCK_CASES[case]
    assert _in_blocks(monkeypatch, a, b, slots) == _mul_schoolbook(a, b)


def test_kronecker_under_the_lowest_int_string_limit(monkeypatch):
    # 640 digits is the lowest int/str limit the interpreter accepts, so
    # slots past it must be written and read without int/str conversions.
    widths = _packed_widths(monkeypatch)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for a, b in (BLOCK_CASES["over-640-digits"], _OVER_4300):
            assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)
    finally:
        sys.set_int_max_str_digits(limit)
    assert 640 < widths[0] < 4300 < widths[2]


@given(unsigned_wide_polys, unsigned_wide_polys, st.integers(1, 3))
@settings(max_examples=40)
def test_kronecker_in_small_blocks_random(a, b, slots):
    ta, tb = a.terms(), b.terms()
    if ta and tb:
        with pytest.MonkeyPatch.context() as mp:
            assert _in_blocks(mp, ta, tb, slots) == _mul_schoolbook(ta, tb)


@given(st.integers(1, 4), st.data())
@settings(max_examples=80)
def test_unpack_matches_the_slot_loop_on_any_digits(w, data):
    # Any digit string, not only a product's: zero, small, middle and
    # all-nines slots, and top slots missing from the text, whole or in
    # part, read as the slot-by-slot loop reads them, in blocks of any size.
    values = [0, 1, 10**w // 2, 10**w - 1]
    slots = data.draw(st.lists(st.sampled_from(values), min_size=1,
                               max_size=12))
    digits = "".join(str(v).zfill(w) for v in reversed(slots))
    digits = digits[data.draw(st.integers(0, len(digits) - 1)):]
    count = len(slots) + data.draw(st.integers(0, 3))
    stride = data.draw(st.integers(1, 5))
    expected = reference_unpack(digits, w, stride, count)
    for per in (1, 2, 3, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bipoly, "_BLOCK_DIGITS", per * w)
            assert _unpack(digits, w, stride, count) == expected


def test_unpack_reads_a_long_product_without_copying_it():
    # 2 * 10^7 digits, 40 nonzero slots of 1000 digits; the read-back
    # holds a block at a time, never a second copy of the digits.
    w, top = 1000, 19_999

    def text(c):
        return str(decimal.Decimal(c)).zfill(w)

    rng = random.Random(7)
    p = {(0, 0): 1, (0, top): 10**998}
    while len(p) < 40:
        p[(0, rng.randrange(top))] = rng.randrange(1, 10**990)
    digits = str(_pack(p, top + 1, w, text))
    assert len(digits) > 2 * 10**7 - w
    tracemalloc.start()
    try:
        got = _unpack(digits, w, top + 1, top + 1,
                      lambda s: int(decimal.Decimal(s.decode())))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == p
    assert peak < len(digits) / 4


def test_two_term_factor_is_a_linear_product(monkeypatch):
    big = BiPoly({(i, j): (i + 2 * j) * 10**9 + 1 for i in range(80)
                  for j in range(80)})
    assert big.num_terms() > 5000
    expected = {f: BiPoly(_mul_schoolbook(f.terms(), big.terms()))
                for f in (BiPoly.x_minus_1(), BiPoly.y_minus_1(), 3 * X)}

    def refuse(a, b):
        raise AssertionError("a two-term factor reached _mul_kronecker")

    monkeypatch.setattr(bipoly, "_mul_kronecker", refuse)
    for factor, product in expected.items():
        assert factor * big == product
        assert big * factor == product


def _sparse_wide(seed):
    """65 terms spread over a degree box of side 10^5."""
    rng = random.Random(seed)
    terms = {(10**5, 0): 1, (0, 10**5): 1}
    while len(terms) < 65:
        terms[(rng.randrange(10**5), rng.randrange(10**5))] = rng.choice(
            [1, 2, 3, 5])
    return BiPoly(terms)


def test_sparse_operands_over_a_wide_degree_box_are_not_packed(monkeypatch):
    # 65 x 65 pairs pass the pair threshold, but a packed product would
    # hold about 4 * 10^10 slots; it must run as a schoolbook product.
    a, b = _sparse_wide(1), _sparse_wide(2)
    assert a.num_terms() * b.num_terms() > bipoly._KRONECKER_PAIRS

    def refuse(a, b):
        raise AssertionError("a sparse product reached _mul_kronecker")

    monkeypatch.setattr(bipoly, "_mul_kronecker", refuse)
    product = a * b

    def value(p, swap):
        """p(2, -1), or p(-1, 2) if swap; powers of 2 as shifts."""
        total = 0
        for (dx, dy), c in p.terms().items():
            if swap:
                dx, dy = dy, dx
            total += (-c if dy & 1 else c) << dx
        return total

    for swap in (False, True):
        assert value(product, swap) == value(a, swap) * value(b, swap)


@pytest.mark.parametrize("context", [
    decimal.Context(prec=3, traps=[decimal.Inexact, decimal.Rounded]),
    LOG_CONTEXT,
], ids=["prec3-trapping", "log-context"])
def test_kronecker_ignores_the_thread_context(context):
    a = {(0, 0): 10**40, (3, 1): 10**35 + 1, (1, 4): 17, (2, 2): 5}
    b = {(1, 0): 10**38, (0, 0): 3, (4, 4): 10**39 + 9}
    expected = _mul_schoolbook(a, b), _mul_schoolbook(a, a), tutte_psw(3)
    with decimal.localcontext(context):
        got = _mul_kronecker(a, b), _mul_kronecker(a, a), tutte_psw(3)
    assert got == expected


@given(small_polys)
def test_operations_never_store_zero_coefficients(a):
    b = a * (X + ONE) - a
    for coeff in b.terms().values():
        assert coeff != 0
    assert b == a * X
    assert ((a - a)).num_terms() == 0


# -- exact division by (x - 1) ----------------------------------------------


def test_div_exact_known_examples():
    q = div_exact_xminus1((X - ONE) ** 2, 2)
    assert q == ONE
    assert div_exact_xminus1(X - ONE, 1) == ONE
    assert div_exact_xminus1(X * X - ONE, 1) == X + ONE


def test_div_exact_zero_input():
    assert div_exact_xminus1(BiPoly.zero(), 3).is_zero()


def test_div_exact_raises_on_remainder():
    with pytest.raises(NonDivisible):
        div_exact_xminus1(X + ONE, 1)
    with pytest.raises(NonDivisible):
        div_exact_xminus1(X - ONE, 2)
    with pytest.raises(NonDivisible):
        div_exact_xminus1(Y, 1)


@given(small_polys, st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_div_exact_inverts_multiplication(q, k):
    product = q * (X - ONE) ** k
    assert div_exact_xminus1(product, k) == q


# -- evaluation -------------------------------------------------------------


def test_eval_known_values():
    t = X * X + X + Y
    assert t.eval_exact(Fraction(1), Fraction(1)) == 3
    assert t.eval_exact(Fraction(2), Fraction(2)) == 8
    assert t.eval_exact(Fraction(2), Fraction(0)) == 6
    assert t.eval_exact(Fraction(1, 2), Fraction(1, 3)) == Fraction(13, 12)


def test_eval_zero_polynomial():
    assert BiPoly.zero().eval_exact(Fraction(3), Fraction(7)) == 0
    # in each ring, the zero of that ring
    value = BiPoly.zero().eval_exact(3, 7)
    assert type(value) is Fraction and value == 0
    assert BiPoly.zero().evaluate(3, 7) == 0
    substituted = BiPoly.zero().evaluate(X - ONE, Y + ONE)
    assert type(substituted) is BiPoly and substituted.is_zero()


@given(small_polys, st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60)
def test_evaluate_on_ints_and_fractions_agree(a, x0, y0):
    value = a.evaluate(x0, y0)
    assert type(value) is int
    assert a.eval_exact(x0, y0) == value
    assert a.evaluate(Fraction(x0), Fraction(y0)) == value


def test_evaluate_substitutes_polynomials():
    # (x^2 + x + y)(x-1, y-1) = x^2 - x + y - 1
    t = X * X + X + Y
    assert t.evaluate(X - ONE, Y - ONE) == X * X - X + Y - ONE
    assert t.evaluate(Y, X) == Y * Y + Y + X


@given(small_polys, small_polys, small_polys)
@settings(max_examples=40)
def test_evaluate_at_polynomials_composes(a, f, g):
    # a(f, g) at (x0, y0) is a at (f(x0, y0), g(x0, y0)).
    x0, y0 = Fraction(2, 3), Fraction(-3, 2)
    composed = a.evaluate(f, g)
    assert composed.eval_exact(x0, y0) == a.evaluate(
        f.eval_exact(x0, y0), g.eval_exact(x0, y0))


#: a, f and g of a composition that took 0.19 s when each term multiplied
#: a power of f by a power of g, over the 200 ms default deadline above.
SLOW_A = -X ** 6 * Y ** 6 + Y - ONE
SLOW_F = X ** 6 * Y ** 5 + X ** 6 + X ** 2 * Y - 95 * X + Y ** 3 - Y + ONE
SLOW_G = (-25 * X ** 6 + X ** 3 * Y ** 6 + 2046 * X ** 2 - X - Y ** 6
          - Y ** 4 + 2 * Y + 4)


def test_evaluate_multiplies_only_by_its_arguments(monkeypatch):
    # Horner's rule: every polynomial product has f or g as a factor, so
    # none is a product of two full powers.
    pairs = []
    mul = BiPoly.__mul__

    def spy(self, other):
        if isinstance(other, BiPoly):
            pairs.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(BiPoly, "__mul__", spy)
    composed = SLOW_A.evaluate(SLOW_F, SLOW_G)
    monkeypatch.undo()
    assert pairs
    assert all(SLOW_F in (a, b) or SLOW_G in (a, b) for a, b in pairs)
    x0, y0 = Fraction(2, 3), Fraction(-3, 2)
    assert composed.eval_exact(x0, y0) == SLOW_A.evaluate(
        SLOW_F.eval_exact(x0, y0), SLOW_G.eval_exact(x0, y0))


@given(small_polys, small_polys, rationals, rationals)
@settings(max_examples=60)
def test_eval_is_ring_homomorphism(a, b, x0, y0):
    ea, eb = a.eval_exact(x0, y0), b.eval_exact(x0, y0)
    assert (a + b).eval_exact(x0, y0) == ea + eb
    assert (a * b).eval_exact(x0, y0) == ea * eb


# -- degrees ----------------------------------------------------------------


def test_degrees():
    assert (X * X + X + Y).degrees() == (2, 1)
    assert (Y + BiPoly.constant(2)).degrees() == (0, 1)
    assert BiPoly.constant(4).degrees() == (0, 0)


def test_degrees_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        BiPoly.zero().degrees()


# -- serialization ----------------------------------------------------------


def test_json_round_trip_and_ordering():
    t = X * X + X + Y
    d = t.to_json_dict()
    keys = [(term["dx"], term["dy"]) for term in d["terms"]]
    assert keys == sorted(keys)
    assert all(isinstance(term["coeff"], str) for term in d["terms"])
    assert BiPoly.from_json_dict(d) == t
    # must survive an actual serialize/parse cycle
    assert BiPoly.from_json_dict(json.loads(json.dumps(d))) == t


def test_json_golden_form():
    d = (X * X + X + Y).to_json_dict()
    assert d == {
        "terms": [
            {"dx": 0, "dy": 1, "coeff": "1"},
            {"dx": 1, "dy": 0, "coeff": "1"},
            {"dx": 2, "dy": 0, "coeff": "1"},
        ]
    }


@pytest.mark.parametrize("poly,text", [
    (BiPoly.zero(), "0"),
    (BiPoly.constant(-3), "-3"),
    (BiPoly.constant(1), "1"),
    (ONE - X, "-x + 1"),
    (_p({(2, 1): -2, (0, 1): 3, (0, 0): -1}), "-2*x^2*y + 3*y - 1"),
    (_p({(1, 1): -1}), "-x*y"),
    (_p({(3, 0): 5, (0, 2): -1, (0, 0): 1}), "5*x^3 - y^2 + 1"),
    (_p({(12, 10): 1, (1, 0): -10**30}), "x^12*y^10 - " + "1" + "0" * 30 + "*x"),
    (X * X + X + Y, "x^2 + x + y"),
])
def test_str_forms(poly, text):
    assert str(poly) == text
    assert repr(poly) == f"BiPoly({text})"


@given(wide_polys)
@settings(max_examples=40)
def test_json_round_trip_random(a):
    assert BiPoly.from_json_dict(json.loads(json.dumps(a.to_json_dict()))) == a
