"""Exact bivariate polynomial arithmetic.

The ring operations are cross-checked two ways: fixed examples with known
results, and hypothesis-generated random polynomials exercising the ring
axioms, the Kronecker-substitution multiplier against the schoolbook one,
and evaluation as a ring homomorphism.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_tutte.bipoly import (
    BiPoly,
    _mul_kronecker,
    _mul_schoolbook,
)
from fractal_tutte.errors import NonDivisible, ZeroPolynomial


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


@given(wide_polys, wide_polys)
@settings(max_examples=60)
def test_kronecker_matches_schoolbook(a, b):
    assert _via(_mul_kronecker, a, b) == _via(_mul_schoolbook, a, b)


def test_kronecker_on_tiny_inputs():
    # The dispatcher routes small products to the schoolbook path, so force
    # the packed multiplier directly on minimal operands.
    assert _via(_mul_kronecker, X, Y) == _p({(1, 1): 1})
    assert _via(_mul_kronecker, X - ONE, X + ONE) == _p({(2, 0): 1, (0, 0): -1})
    assert _via(_mul_kronecker, BiPoly.zero(), X).is_zero()


def test_kronecker_with_large_signed_coefficients():
    a = _p({(0, 0): -(10**30), (5, 7): 10**25, (3, 2): -1})
    b = _p({(1, 1): 10**28, (0, 0): 7, (8, 0): -(10**31)})
    assert _via(_mul_kronecker, a, b) == _via(_mul_schoolbook, a, b)


@given(small_polys)
def test_operations_never_store_zero_coefficients(a):
    b = a * (X + ONE) - a
    for coeff in b.terms().values():
        assert coeff != 0
    assert b == a * X
    assert ((a - a)).num_terms() == 0


# -- exact division by (x - 1) ----------------------------------------------


def test_div_exact_known_examples():
    q = ((X - ONE) ** 2).div_exact_xminus1(2)
    assert q == ONE
    assert (X - ONE).div_exact_xminus1(1) == ONE
    assert (X * X - ONE).div_exact_xminus1(1) == X + ONE


def test_div_exact_zero_input():
    assert BiPoly.zero().div_exact_xminus1(3).is_zero()


def test_div_exact_raises_on_remainder():
    with pytest.raises(NonDivisible):
        (X + ONE).div_exact_xminus1(1)
    with pytest.raises(NonDivisible):
        (X - ONE).div_exact_xminus1(2)
    with pytest.raises(NonDivisible):
        Y.div_exact_xminus1(1)


@given(small_polys, st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_div_exact_inverts_multiplication(q, k):
    product = q * (X - ONE) ** k
    assert product.div_exact_xminus1(k) == q


# -- evaluation -------------------------------------------------------------


def test_eval_known_values():
    t = X * X + X + Y
    assert t.eval_exact(Fraction(1), Fraction(1)) == 3
    assert t.eval_exact(Fraction(2), Fraction(2)) == 8
    assert t.eval_exact(Fraction(2), Fraction(0)) == 6
    assert t.eval_exact(Fraction(1, 2), Fraction(1, 3)) == Fraction(13, 12)


def test_eval_zero_polynomial():
    assert BiPoly.zero().eval_exact(Fraction(3), Fraction(7)) == 0


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


@given(wide_polys)
@settings(max_examples=40)
def test_json_round_trip_random(a):
    assert BiPoly.from_json_dict(json.loads(json.dumps(a.to_json_dict()))) == a
