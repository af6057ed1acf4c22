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

``read_exact`` is the one reader of a number from outside, a probability
or a point, and sizes it before it builds any integer.  ``lowest_terms``
is the one reducer of an exact value, an integer over a known product of
powers (a ``Denominator``, such as 10^k for a decimal, D_n for a point or
d^(3^(n+1)) for reliability), and takes no full-size gcd.
``decimal_int`` and ``decimal_str`` convert between digits and integers
of any length in less than quadratic time.
"""

from __future__ import annotations

import decimal
import functools
import math
import numbers
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, SizeLimitExceeded, shown

#: Significant digits of a printed probability.
PRINTED_DIGITS = 12

#: Deepest generation ``log`` and ``float`` mode compute.  For p up to 0.5
#: the values leave Decimal's exponent range before this anyway: at n = 36
#: for p = 1e-12, at n = 40 for p = 0.5.  A float's relative error may
#: grow threefold per step, to 3^40 2^-53 > 10^3 here.
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


#: Exact context of big-integer digit conversions and packed products
#: (Inexact would raise).  Every Decimal operation on them names it, since
#: the thread's context may round.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])

#: Largest denominator of a probability read from a float or typed on
#: the command line.
MAX_DENOMINATOR = 10**12

#: Budget of ``exact``-mode reliability's denominator d^(3^(n+1)) at
#: p = a/d, in bits: what n = 10 and d = ``MAX_DENOMINATOR`` need.  It is
#: the only limit of that mode, so the depth follows from d: n <= 13 at
#: p = 1/2, n <= 12 at 1/3, n <= 11 at 0.1234 and n <= 10 at 12 digits.
MAX_EXACT_BITS = 3 ** 11 * math.log2(MAX_DENOMINATOR)


def bits(v: int) -> float:
    """log2 |v|, the bit length of v to within a bit; -inf for 0."""
    return math.log2(abs(v)) if v else -math.inf


#: Decimal notation as ``str(Decimal)`` writes it, and "a/b" as
#: ``Fraction`` reads it, with b > 0.
_DECIMAL_TEXT = re.compile(r"(-?)(\d*)\.?(\d*)(?:[eE]([+-]\d+))?")
RATIO_TEXT = re.compile(
    r"\s*([+-]?)(\d+(?:_\d+)*)/(?![0_]*\s*$)(\d+(?:_\d+)*)\s*")
_QUIET = decimal.Context(traps=[])  # malformed text reads as NaN


class _WideNumerator(SizeLimitExceeded):
    """A numerator past the budget when the denominator fits it, which
    only a value over 1 in magnitude has."""


def read_exact(value, max_bits: float, what: str) -> Fraction:
    """value, a number from outside, as a Fraction; ``SizeLimitExceeded``
    if its reduced denominator, then numerator, must pass ``max_bits``.

    A float is the nearest fraction with denominator at most
    ``MAX_DENOMINATOR``, so 0.1 means 1/10.  Text is "a/b" or a Decimal.
    Either, trailing zeros moved into the exponent, is N 10^q / M with N
    and M of i and j digits, within a factor of 10 of 10^(i - j + q),
    which bounds both reduced parts before any integer is built.
    """
    if isinstance(value, float):
        value = Fraction(value).limit_denominator(MAX_DENOMINATOR)
    if not isinstance(value, (int, Fraction, numbers.Rational)):  # fast first
        if isinstance(value, str) and (ratio := RATIO_TEXT.fullmatch(value)):
            sign, num, den = (s.replace("_", "").lstrip("0")
                              for s in ratio.groups())
            q = 0
        elif parts := _DECIMAL_TEXT.fullmatch(
                _QUIET.to_sci_string(Decimal(value, _QUIET))):
            sign, whole, frac, exp = parts.groups()
            digits = (whole + frac).lstrip("0")
            num, den = digits.rstrip("0"), "1"
            q = int(exp or 0) - len(frac) + len(digits) - len(num)
        else:
            raise DomainError(f"{what} is neither a fraction a/b with b > 0 "
                              f"nor a finite decimal")
        if not num:
            return Fraction(0)
        size = (len(num) - len(den) + q - 1) * math.log2(10)
        _check_bits(what, max_bits, size, -size - 2 * math.log2(10))
        top = decimal_int(num) * 10 ** max(q, 0)
        top = -top if sign == "-" else top
        value = (lowest_terms(top, Denominator(((10, max(-q, 0)),)))
                 if den == "1" else Fraction(top, decimal_int(den)))
    fr = value if isinstance(value, Fraction) else Fraction(value)
    _check_bits(what, max_bits, bits(fr.numerator), bits(fr.denominator))
    return fr


def _divide_out(N: int, p: int, cap: int) -> tuple[int, int]:
    """(v, N / p^v) with v = min(v_p(N), cap): divide by p, p^2, p^4, ...
    while they divide, then walk back down the same powers."""
    v, q, k, ladder = 0, p, 1, []
    while v + k <= cap:
        quo, r = divmod(N, q)
        if r:
            break
        N, v = quo, v + k
        ladder.append((q, k))
        q, k = q * q, 2 * k
    for q, k in reversed(ladder):
        if v + k <= cap:
            quo, r = divmod(N, q)
            if not r:
                N, v = quo, v + k
    return v, N


def _coprime_fraction(num: int, den: int) -> Fraction:
    """num/den for coprime num and den > 0, without the full-size gcd the
    public constructor would repeat (as CPython 3.12's
    ``Fraction._from_coprime_ints``)."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


#: Trial division of a denominator's bases stops at this divisor.
TRIAL_DIVISION_LIMIT = 1 << 12


class Denominator:
    """D = prod(b^k for b, k in powers), factored once for every
    numerator that ``lowest_terms`` reduces over it.

    Trial division takes 2 out of a base by one shift and each odd prime
    it finds by one ``_divide_out`` ladder; a part left unfactored
    (primes above ``TRIAL_DIVISION_LIMIT`` only) is kept whole.  D is
    2^twos times the odd bases of ``caps`` to their exponents.
    """

    def __init__(self, powers):
        self.twos, self.caps = 0, Counter()
        for b, k in powers:
            v = (b & -b).bit_length() - 1
            b >>= v
            self.twos += k * v
            f = 3
            while f * f <= b and f <= TRIAL_DIVISION_LIMIT:
                if b % f:
                    f += 2
                else:
                    v, b = _divide_out(b, f, math.inf)
                    self.caps[f] += k * v
            if b > 1:
                self.caps[b] += k

    @functools.cached_property
    def odd(self) -> int:
        """The odd part of D, built at its first use."""
        return _power_product(self.caps.items())


#: Widest part of D, in bits, that ``lowest_terms`` divides out of
#: ``Denominator.odd``.  A division costs the product of the two widths,
#: so past this it builds what is left instead.
MAX_CANCELLED_BITS = 1 << 12


def lowest_terms(N: int, D: Denominator) -> Fraction:
    """N / D in lowest terms, with no full-size gcd.

    2 leaves N and D by one shift.  Each p^cap of D is divided out of N
    in rounds: g = gcd(N mod p, p), one ladder takes g^v out of N, and
    p^v leaves D for (p / g)^v, prime to the rest of N.  A prime p takes
    one ladder, and no gcd is wider than p.  What is left of D's odd
    part is ``D.odd`` divided by the g^v cancelled, up to
    ``MAX_CANCELLED_BITS`` of them, so values over one D, such as the
    (R, B, T) of an exact reliability state, build it once.
    """
    if N == 0:
        return Fraction(0)
    v = min((N & -N).bit_length() - 1, D.twos)
    N, twos = N >> v, D.twos - v
    left, cancelled = Counter(), 1
    for p, cap in D.caps.items():
        while cap and (g := math.gcd(N % p, p)) > 1:
            v, N = _divide_out(N, g, cap)
            left[p // g] += v
            cancelled *= g ** v
            cap -= v
        left[p] += cap
    odd = (D.odd // cancelled if cancelled.bit_length() <= MAX_CANCELLED_BITS
           else _power_product(left.items()))
    return _coprime_fraction(N, odd << twos)


def _power_product(powers) -> int:
    """prod(b^k for b, k in powers), one square per bit of the largest k.

    From the top bit down, the product so far is squared and multiplied
    by the bases whose k has that bit, so every full-size product is a
    square.
    """
    powers = tuple(powers)
    out = 1
    for i in reversed(range(max((k for _, k in powers), default=0)
                            .bit_length())):
        out *= out
        for b, k in powers:
            if k >> i & 1:
                out *= b
    return out


def _check_bits(what: str, max_bits: float, num: float, den: float) -> None:
    """Refuse a denominator, then a numerator, past ``max_bits``."""
    for part, size, error in (("denominator", den, SizeLimitExceeded),
                              ("numerator", num, _WideNumerator)):
        if size > max_bits:
            raise error(
                f"{what}: its {part} is predicted at {size:.4g} bits, over "
                f"the budget of {max_bits:.4g} bits: the {part} is at least "
                f"that many bits wide")


#: ``decimal_int`` hands strings up to this many digits to ``int(str)``:
#: 640 is the lowest limit ``sys.set_int_max_str_digits`` accepts.
_LEAF_DIGITS = 640


def decimal_int(digits: str | bytes) -> int:
    """The integer of decimal digits, as str or bytes, in less than
    quadratic time.

    ``int(str)`` refuses strings over 4300 digits by default, and
    ``int(Decimal)`` takes time quadratic in the digit count (1.35 s at
    200,000 digits on a 2-vCPU VM, Python 3.11).  So a string longer
    than ``_LEAF_DIGITS`` is split as hi 10^h + lo, each part converted
    the same way, and the parts joined by one integer product and sum.
    """
    powers: dict[int, int] = {}  # 10^h, built once per length h

    def convert(s: str | bytes) -> int:
        if len(s) <= _LEAF_DIGITS:
            return int(s)
        h = len(s) >> 1
        if h not in powers:
            powers[h] = 10 ** h
        return convert(s[:-h]) * powers[h] + convert(s[-h:])

    return convert(digits)


#: ``decimal_str`` converts values up to this width with ``Decimal(int)``.
_LEAF_BITS = 1 << 12


def decimal_str(value: int) -> str:
    """Decimal digits of an integer of any size, in less than quadratic
    time.

    ``str(int)`` refuses values over 4300 digits by default (Python >=
    3.10.7), and ``Decimal(int)`` takes time quadratic in the digit
    count.  So a value wider than ``_LEAF_BITS`` is split as hi 2^h + lo,
    each half converted the same way, and the halves joined by one
    ``Decimal`` product and sum.  Every operation names the exact
    context, so the thread's context never rounds a digit.
    """
    powers: dict[int, Decimal] = {}  # 2^h, built once per width h

    def convert(v: int, width: int) -> Decimal:
        """v as a Decimal, for 0 <= v < 2^width."""
        if width <= _LEAF_BITS:
            return Decimal(v)
        h = width >> 1
        if h not in powers:
            powers[h] = _EXACT.power(2, h)
        return _EXACT.add(_EXACT.multiply(convert(v >> h, width - h), powers[h]),
                          convert(v & ((1 << h) - 1), h))

    digits = convert(abs(value), value.bit_length())
    return _EXACT.to_sci_string(digits.copy_negate() if value < 0 else digits)


def as_probability(p) -> Fraction:
    """p as an exact probability in [0, 1], by ``read_exact`` at a third
    of ``MAX_EXACT_BITS``, where d^3, the widest exact state, fits.  A
    numerator past it is refused as outside [0, 1] before it is built,
    and a long p is named by its sign and size."""
    try:
        fr = read_exact(p, MAX_EXACT_BITS / 3, "edge probability")
    except _WideNumerator:
        raise DomainError(
            f"edge probability with a numerator over "
            f"2^{MAX_EXACT_BITS / 3:.4g} outside [0, 1]") from None
    # The denominator is positive, so 0 <= p <= 1 is 0 <= num <= den.
    if not 0 <= fr.numerator <= fr.denominator:
        short = fr.numerator.bit_length() + fr.denominator.bit_length() < 128
        shown = (str(p) if short and len(str(p)) <= 40 else
                 f"of about {'-' if fr < 0 else ''}2^"
                 f"{bits(fr.numerator) - bits(fr.denominator):.4g}")
        raise DomainError(f"edge probability {shown} outside [0, 1]")
    return fr


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
        raise DomainError(f"ln of negative value {shown(value)}")
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
        raise DomainError(f"ln of non-positive value {shown(fr)}")
    return math.log(fr.numerator) - math.log(fr.denominator)


def logsumexp(*values: float) -> float:
    """ln(sum(exp(v))) without leaving the log domain."""
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))
