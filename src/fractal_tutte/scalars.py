"""The number types behind the probability recursions.

The reliability recursions only ever add and multiply positive
quantities, so they are written once with plain ``+`` and ``*`` and a
mode only chooses the number type they run on:

* ``exact``: integer numerators over one known denominator, reduced
  once at the end to a ``Fraction`` (proves identities);
* ``float``: ``float`` (fast, fails below ~1e-308);
* ``log``: ``Decimal`` under ``LOG_CONTEXT``, whose exponent is
  unbounded in practice (down to 10^-999999999999999999), so values
  like R(30) ~ 10^-10^13 that underflow any float stay representable.

Every term is positive, so one step amplifies relative rounding error at
most threefold.  ``LOG_PRECISION`` covers that growth through
``MAX_LOG_GENERATION`` steps with guard digits to spare, which keeps all
12 printed digits correct.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, SizeLimitExceeded

#: Significant digits of a printed probability.
PRINTED_DIGITS = 12

#: Deepest generation ``log`` mode computes.  For p up to 0.5 the values
#: leave Decimal's exponent range before this anyway: at n = 36 for
#: p = 1e-12, at n = 40 for p = 0.5.
MAX_LOG_GENERATION = 40

#: 12 printed digits + log10(3) digits lost per step + 8 guard digits.
LOG_PRECISION = (PRINTED_DIGITS
                 + math.ceil(MAX_LOG_GENERATION * math.log10(3)) + 8)

#: Arithmetic of ``log`` mode.  Underflow is trapped, so a value that
#: leaves the exponent range raises instead of turning into 0.
LOG_CONTEXT = decimal.Context(
    prec=LOG_PRECISION, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero,
           decimal.Overflow, decimal.Underflow])


#: Largest denominator of a probability read from a float or typed on
#: the command line.
MAX_DENOMINATOR = 10**12

#: Budget of ``exact``-mode reliability's denominator d^(3^(n+1)) at
#: p = a/d, in bits: what n = 10 and d = ``MAX_DENOMINATOR`` need.  It is
#: the only limit of that mode, so the depth follows from d: n <= 13 at
#: p = 1/2, n <= 12 at 1/3, n <= 11 at 0.1234 and n <= 10 at 12 digits.
MAX_EXACT_BITS = 3 ** 11 * math.log2(MAX_DENOMINATOR)


def as_probability(p) -> Fraction:
    """p as an exact probability in [0, 1].

    A Fraction comes back as it is.  A float is read as the nearest
    fraction with denominator at most ``MAX_DENOMINATOR``, so 0.1 means
    1/10 rather than the binary double next to it.  A denominator wider
    than the widest exact state, d^3 at n = 0, is refused; a decimal
    string or Decimal, from its exponent alone before 10^k is built: with
    its first significant digit j places after the point it is over
    10^(j-1).
    """
    if isinstance(p, str) and "/" not in p:
        try:
            p = Decimal(p)
        except decimal.InvalidOperation:
            raise DomainError(
                f"edge probability {p!r} is neither a fraction a/b nor a "
                f"decimal whose exponent Decimal holds") from None
    if isinstance(p, Decimal) and p.is_finite():
        _check_width((-p.adjusted() - 1) * math.log2(10))
    if isinstance(p, Fraction):
        fr = p
    elif isinstance(p, float):
        fr = Fraction(p).limit_denominator(MAX_DENOMINATOR)
    else:
        fr = Fraction(p)
    _check_width(math.log2(fr.denominator))
    # The denominator is positive, so 0 <= p <= 1 is 0 <= num <= den.
    if not 0 <= fr.numerator <= fr.denominator:
        raise DomainError(f"edge probability {p} outside [0, 1]")
    return fr


def _check_width(bits: float) -> None:
    """Refuse a probability whose denominator is at least ``bits`` wide
    when its cube, the exact state at n = 0, passes ``MAX_EXACT_BITS``."""
    if 3 * bits > MAX_EXACT_BITS:
        raise SizeLimitExceeded(
            f"edge probability: its denominator is at least {bits:.4g} bits "
            f"wide, over the budget of {MAX_EXACT_BITS / 3:.4g} bits of the "
            f"widest exact state, d^3 at n = 0")


def embed(num: int, den: int, mode: str):
    """num/den, not necessarily in lowest terms, as the number type of
    the inexact ``mode``: one correctly rounded division."""
    if mode == "float":
        return num / den
    if mode == "log":
        return LOG_CONTEXT.divide(Decimal(num), Decimal(den))
    raise DomainError(
        f"unknown scalar mode {mode!r}; choose from exact, float, log")


def ln(value):
    """Natural logarithm, chosen by value type.

    A Decimal gets a Decimal that keeps 6 decimals right at any
    magnitude; a Fraction or float gets a float.
    """
    if value < 0:
        raise DomainError(f"ln of negative value {value}")
    if isinstance(value, Fraction):
        return fraction_ln(value)
    if value == 0:
        # Expected when the true value underflows double precision;
        # log mode exists to avoid this.
        return -math.inf
    if isinstance(value, Decimal):
        return _decimal_ln(value)
    return math.log(value)


_LN10 = Decimal(10).ln(LOG_CONTEXT)


def _decimal_ln(d: Decimal) -> Decimal:
    """ln d = e ln 10 + ln m for d = m 10^e with 1 <= m < 10.

    e ln 10 carries the magnitude and keeps ``LOG_PRECISION`` digits; ln m
    lies in [0, ln 10), where a float is right to about 1e-15.  This is
    ten times faster than ``Decimal.ln()`` and as good at 6 decimals.
    """
    e = d.adjusted()
    m = float(d.scaleb(-e, LOG_CONTEXT))
    return LOG_CONTEXT.fma(e, _LN10, Decimal(math.log(m)))


def fraction_ln(fr: Fraction) -> float:
    """ln of a positive rational, safe for huge numerators/denominators.

    math.log accepts arbitrarily large ints, so the value never passes
    through a float that could overflow or underflow.
    """
    if fr <= 0:
        raise DomainError(f"ln of non-positive value {fr}")
    return math.log(fr.numerator) - math.log(fr.denominator)


def logsumexp(*values: float) -> float:
    """ln(sum(exp(v))) without leaving the log domain."""
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))
