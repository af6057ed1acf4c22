"""The number types behind the reliability recursions."""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from fractal_tutte.errors import DomainError
from fractal_tutte.scalars import (
    LOG_CONTEXT,
    LOG_PRECISION,
    MAX_LOG_GENERATION,
    PRINTED_DIGITS,
    embed,
    fraction_ln,
    ln,
    logsumexp,
)


def test_embed_picks_the_number_type():
    quarter = Fraction(1, 4)
    assert embed(quarter, "exact") == quarter
    assert isinstance(embed(quarter, "exact"), Fraction)
    assert embed(quarter, "float") == 0.25
    assert embed(quarter, "log") == Decimal("0.25")
    with pytest.raises(DomainError):
        embed(quarter, "interval")


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
