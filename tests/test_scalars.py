"""The number types behind the reliability recursions."""

import decimal
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.invariants import MAX_POINT_STATE_BITS
from fractal_tutte.scalars import (
    _LEAF_DIGITS,
    LOG_CONTEXT,
    LOG_PRECISION,
    MAX_EXACT_BITS,
    MAX_LOG_GENERATION,
    PRINTED_DIGITS,
    as_probability,
    decimal_int,
    decimal_str,
    embed,
    fraction_ln,
    ln,
    logsumexp,
    read_exact,
)


def test_embed_picks_the_number_type():
    assert embed(1, 4, "float") == 0.25
    assert isinstance(embed(1, 4, "float"), float)
    assert embed(1, 4, "log") == Decimal("0.25")
    assert isinstance(embed(1, 4, "log"), Decimal)
    for mode in ("exact", "interval"):
        with pytest.raises(DomainError):
            embed(1, 4, mode)


def test_embed_reads_an_unreduced_pair_as_its_value():
    # one correctly rounded division: the float and the Decimal, down to
    # its coefficient and exponent, do not depend on the pair's form
    assert embed(6, 8, "float") == embed(3, 4, "float") == 0.75
    assert embed(6, 8, "log").as_tuple() == embed(3, 4, "log").as_tuple()
    assert embed(10 ** 40, 3 * 10 ** 40, "float") == 1 / 3
    assert embed(10 ** 40, 3 * 10 ** 40, "log").as_tuple() \
        == LOG_CONTEXT.divide(Decimal(1), Decimal(3)).as_tuple()


def test_as_probability_reads_each_input_type():
    third = Fraction(1, 3)
    assert as_probability(third) is third
    assert as_probability(0.1) == Fraction(1, 10)
    assert as_probability(1) == 1 and as_probability(0) == 0
    assert as_probability("2/3") == Fraction(2, 3)
    for p in (Fraction(4, 3), Fraction(-1, 10 ** 12), 1.5, -0.0001, 2, "-1/2"):
        with pytest.raises(DomainError, match="outside"):
            as_probability(p)


def test_as_probability_refuses_a_denominator_wider_than_any_exact_state():
    # The widest exact state is d^3 at n = 0, so d may take a third of
    # the budget: 2353878 bits.
    widest = math.floor(MAX_EXACT_BITS / 3)
    assert as_probability(Fraction(1, 2 ** widest)).denominator == 2 ** widest
    with pytest.raises(SizeLimitExceeded, match="over the budget"):
        as_probability(Fraction(1, 2 ** (widest + 1)))
    assert as_probability("1e-708587").denominator == 10 ** 708587
    with pytest.raises(SizeLimitExceeded, match="over the budget"):
        as_probability("1e-708588")


@pytest.mark.parametrize("p", ["1e-99999999", Decimal("1e-99999999"),
                               "0.25e-3000000", Decimal("-3E-3000000")],
                         ids=str)
def test_as_probability_sizes_a_decimal_before_building_it(p):
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded,
                       match="denominator is at least .* bits wide"):
        as_probability(p)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p", ["abc", "1e-9999999999999999999999", "0.5/"])
def test_as_probability_refuses_text_it_cannot_read(p):
    start = time.perf_counter()
    with pytest.raises((DomainError, ValueError)):
        as_probability(p)
    assert time.perf_counter() - start < 0.1


def test_as_probability_reads_trailing_zeros_at_once():
    # 200000 trailing zeros took 1.17 s through Fraction(Decimal).
    start = time.perf_counter()
    assert as_probability("0.5" + "0" * 200000) == Fraction(1, 2)
    assert as_probability(Decimal("0.5" + "0" * 200000)) == Fraction(1, 2)
    assert time.perf_counter() - start < 0.1


def test_decimal_int_inverts_decimal_str():
    # A string longer than _LEAF_DIGITS splits at h = len // 2 digits;
    # lengths either side of a split, and a low part with leading zeros.
    rng = random.Random(3)
    values = [0, 7, 10 ** 5000 + 3]
    for digits in (_LEAF_DIGITS, _LEAF_DIGITS + 1, 2 * _LEAF_DIGITS + 1,
                   9 * _LEAF_DIGITS):
        values += [10 ** digits - 1, 10 ** digits, 10 ** digits + 1,
                   10 ** (digits - 1) * 7 + 10 ** (digits // 2) - 1]
    values += [rng.getrandbits(rng.randrange(1, 70000)) for _ in range(20)]
    for value in values:
        assert decimal_int(decimal_str(value)) == value
    assert decimal_int("000" + "9" * 2000) == 10 ** 2000 - 1


def test_long_decimals_read_to_their_exact_value():
    # int(Decimal(...)) of the significand took 1.39 s at 200,000 digits.
    k = 100_000
    assert as_probability("0." + "3" * k) == Fraction((10 ** k - 1) // 3,
                                                     10 ** k)
    # a coordinate of an exact point at n = 1, at the budget it is read at
    point = MAX_POINT_STATE_BITS / 3 + 1
    assert (read_exact("1." + "1" * k, point, "x")
            == 1 + Fraction((10 ** k - 1) // 9, 10 ** k))
    assert read_exact("1/" + "3" * k, point, "x") == Fraction(
        3, 10 ** k - 1)
    # only 5s, or only 2s, of 10^k divide out of a significand
    assert read_exact(decimal_str(5 ** k) + f"e-{k}", point, "x") == Fraction(
        1, 2 ** k)
    assert read_exact(f"-{decimal_str(2 ** k)}e-{k}", point, "x") == Fraction(
        -1, 5 ** k)
    assert read_exact(f"{decimal_str(3 ** k)}e-{k}", point, "x") == Fraction(
        3 ** k, 10 ** k)


def test_log_precision_covers_the_generation_limit():
    # relative error grows at most threefold per step
    lost = math.ceil(MAX_LOG_GENERATION * math.log10(3))
    assert LOG_PRECISION >= PRINTED_DIGITS + lost + 4
    assert LOG_CONTEXT.prec == LOG_PRECISION


def test_fraction_ln_basics():
    assert fraction_ln(Fraction(1)) == 0.0
    assert fraction_ln(Fraction(1, 2)) == pytest.approx(-math.log(2))
    with pytest.raises(DomainError):
        fraction_ln(Fraction(0))
    with pytest.raises(DomainError):
        fraction_ln(Fraction(-1, 3))


def test_fraction_ln_handles_huge_magnitudes():
    # numerator and denominator far beyond float range
    tiny = Fraction(3, 10 ** 400)
    assert fraction_ln(tiny) == pytest.approx(
        math.log(3) - 400 * math.log(10))
    huge = Fraction(10 ** 500, 7)
    assert fraction_ln(huge) == pytest.approx(
        500 * math.log(10) - math.log(7))


def test_logsumexp_matches_direct_sum():
    a, b, c = 0.3, 0.01, 0.69
    got = logsumexp(math.log(a), math.log(b), math.log(c))
    assert got == pytest.approx(math.log(a + b + c), rel=1e-14)


def test_logsumexp_with_extreme_offsets():
    # exp(-2000) underflows, but relative structure must survive
    got = logsumexp(-2000.0, -2000.0)
    assert got == pytest.approx(-2000.0 + math.log(2))
    assert logsumexp(-math.inf, -math.inf) == -math.inf
    assert logsumexp(-math.inf, -5.0) == -5.0


def test_float_ops_to_ln_edge_cases():
    # the float branch of ln, which float mode's ln columns use
    assert ln(0.0) == -math.inf  # legitimate underflow result
    with pytest.raises(DomainError):
        ln(-0.25)


def test_ln_by_value_type():
    assert ln(Fraction(1, 2)) == pytest.approx(-math.log(2))
    assert isinstance(ln(Fraction(1, 2)), float)
    assert ln(0.5) == pytest.approx(-math.log(2))
    with pytest.raises(DomainError):
        ln(Fraction(0))
    with pytest.raises(DomainError):
        ln(Decimal(-1))


@pytest.mark.parametrize("text", [
    "0.5", "0.999999999999", "3.7054406232648230117810727662990051724E-2372",
    "1.2345678901234567890123456789012345678E-74418022595043",
    "1e-999999999999999999"])
def test_ln_of_a_decimal_keeps_six_decimals_at_any_magnitude(text):
    # beyond about 10^-(10^10) a float cannot hold ln to 6 decimals
    value = ln(Decimal(text))
    assert isinstance(value, Decimal)
    reference = Decimal(text).ln(decimal.Context(
        prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX))
    assert abs(value - reference) < Decimal("1e-12")
