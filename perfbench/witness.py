"""Reference values that do not use the code under test.

Closed forms, the reliability recursions written out again in
high-precision decimal arithmetic and in exact rationals, a parser for the
text form of a polynomial, and the digit count used for ``digits_min``.
"""

from __future__ import annotations

import decimal
import hashlib
import math
import re
from decimal import Decimal
from fractions import Fraction

#: Significant digits the reliability CSV prints.
PRINTED_DIGITS = 12

# 60 digits with an unbounded exponent: every term of both reliability
# recursions is positive, so relative rounding error grows at most
# threefold per step; after 30 steps it is still below 10^-40, far below
# the 12th printed digit.
REFERENCE_CONTEXT = decimal.Context(
    prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def int_digest(value: int) -> str:
    """Digest of a (possibly huge) integer without a decimal conversion."""
    size = (value.bit_length() + 8) // 8
    return sha256(value.to_bytes(size, "little", signed=True))


def psw_edges(n: int) -> int:
    return 3 ** (n + 1)


def psw_vertices(n: int) -> int:
    return (3 ** (n + 1) + 3) // 2


def spanning_trees(n: int) -> int:
    """Closed form 2^((3^(n+1)-2n-3)/4) * 3^((3^(n+1)+2n+1)/4)."""
    pow3 = 3 ** (n + 1)
    return 2 ** ((pow3 - 2 * n - 3) // 4) * 3 ** ((pow3 + 2 * n + 1) // 4)


def hyperbola_value(x: Fraction, vertices: int, edges: int) -> Fraction:
    """T(x, x/(x-1)) = x^E (x-1)^(V-1-E) for a connected graph."""
    return x ** edges * (x - 1) ** (vertices - 1 - edges)


def reliability_refs(n: int, p: Fraction) -> tuple[Decimal, Decimal]:
    """(R_psw, R_sg) after n steps, in REFERENCE_CONTEXT arithmetic."""
    with decimal.localcontext(REFERENCE_CONTEXT):
        p = Decimal(p.numerator) / Decimal(p.denominator)
        r = rs = p * p * (3 - 2 * p)
        b = bs = p * (1 - p) ** 2
        ts = (1 - p) ** 3
        for _ in range(n):
            r2 = r * r
            r, b = r2 * r + 6 * r2 * b, 4 * r * b * b
            rs2, bs2 = rs * rs, bs * bs
            rs, bs, ts = (rs2 * rs + 6 * rs2 * bs,
                          rs2 * bs + rs2 * ts + 7 * rs * bs2,
                          3 * rs * bs2 + 12 * rs * bs * ts + 14 * bs2 * bs)
        return r, rs


def psw_reliability_exact(n: int, p: Fraction) -> Fraction:
    r, b = p * p * (3 - 2 * p), p * (1 - p) ** 2
    for _ in range(n):
        r2 = r * r
        r, b = r2 * r + 6 * r2 * b, 4 * r * b * b
    return r


def correct_digits(printed: str, reference: Decimal) -> int:
    """Correct significant digits of a printed value, 0 to PRINTED_DIGITS.

    d digits are correct when the error is at most half a unit in the d-th
    significant digit of the reference.
    """
    with decimal.localcontext(REFERENCE_CONTEXT):
        value = Decimal(printed)
        if reference <= 0:
            return PRINTED_DIGITS if value == reference else 0
        error = abs(value - reference)
        half_unit = Decimal(5).scaleb(reference.adjusted() - PRINTED_DIGITS)
        if error <= half_unit:
            return PRINTED_DIGITS
        excess = math.ceil(float((error / half_unit).log10()))
        return max(0, PRINTED_DIGITS - excess)


# -- polynomials as term maps ---------------------------------------------

_TEXT_TERM = re.compile(r"(\d+)?\*?(x(?:\^(\d+))?)?\*?(y(?:\^(\d+))?)?")


def parse_text_polynomial(text: str) -> dict[tuple[int, int], int]:
    """Terms of BiPoly's text form, e.g. ``x^2 + 3*x*y - 2``."""
    terms = {}
    for sign, body in re.findall(r"(^-|[+-] )?([^ ]+)", text.strip()):
        match = _TEXT_TERM.fullmatch(body)
        if not match or not body:
            raise ValueError(f"bad term {body!r}")
        coeff, xpart, xexp, ypart, yexp = match.groups()
        dx = (int(xexp) if xexp else 1) if xpart else 0
        dy = (int(yexp) if yexp else 1) if ypart else 0
        c = int(coeff) if coeff else 1
        terms[(dx, dy)] = -c if sign.startswith("-") else c
    return terms


def json_polynomial(payload: dict) -> dict[tuple[int, int], int]:
    return {(t["dx"], t["dy"]): int(t["coeff"]) for t in payload["terms"]}


def evaluate(terms: dict[tuple[int, int], int], x, y):
    """Exact value at a rational point (in ints when the point is integral)."""
    x, y = Fraction(x), Fraction(y)
    if x.denominator == y.denominator == 1:
        x, y = x.numerator, y.numerator
    xpow, ypow = {}, {}
    total = 0
    for (dx, dy), c in terms.items():
        if dx not in xpow:
            xpow[dx] = x ** dx
        if dy not in ypow:
            ypow[dy] = y ** dy
        total += c * xpow[dx] * ypow[dy]
    return total
