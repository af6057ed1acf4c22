"""Exact sparse bivariate polynomials over arbitrary-precision integers.

A polynomial is stored as a map from exponent pairs to nonzero integer
coefficients::

    x^2*y + 3  ->  {(2, 1): 1, (0, 0): 3}

The map is canonical (no zero coefficients are ever stored), so two
``BiPoly`` values are equal iff they are equal as polynomials.  All
arithmetic is exact; coefficients are plain Python ints and may grow to
thousands of digits.  An int mixes in as a constant under + and -, and
as a scalar under *, so a step written with plain + and * runs on
``BiPoly`` and on numbers alike.  ``evaluate`` substitutes values from
any such ring, ``BiPoly`` included.

Multiplication dispatches between schoolbook convolution (small operands,
or a factor of at most two terms such as x-1) and Kronecker substitution
(large operands): the polynomial is packed into a single big decimal with
coefficients in fixed-width digit slots, multiplied once by libmpdec's
number-theoretic transform, and unpacked with balanced-digit recovery to
restore signed coefficients.  Both paths produce identical results; the
crossover is purely a speed choice.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import ZeroPolynomial

Term = tuple[int, int]

# Pair-count threshold above which multiplication switches to Kronecker
# substitution.  Schoolbook wins below it because packing has fixed overhead,
# and on sparse operands whose degree box holds more slots than term pairs.
_KRONECKER_PAIRS = 4096

#: Exact context of the packed products (Inexact would raise).  Every
#: Decimal operation here names it, since the thread's context may round.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])


class BiPoly:
    """An immutable bivariate polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, int] | None = None):
        clean: dict[Term, int] = {}
        if terms:
            for (dx, dy), c in terms.items():
                if dx < 0 or dy < 0:
                    raise ValueError(f"negative exponent in term ({dx}, {dy})")
                if c:
                    clean[(dx, dy)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    @classmethod
    def x_minus_1(cls) -> "BiPoly":
        return cls({(1, 0): 1, (0, 0): -1})

    @classmethod
    def y_minus_1(cls) -> "BiPoly":
        return cls({(0, 1): 1, (0, 0): -1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Term, int]:
        """A copy of the canonical term map."""
        return dict(self._terms)

    def coefficient(self, dx: int, dy: int) -> int:
        return self._terms.get((dx, dy), 0)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Term, int]]:
        return iter(sorted(self._terms.items()))

    def degrees(self) -> tuple[int, int]:
        """(max x-degree, max y-degree); raises ZeroPolynomial on zero."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no degrees")
        return (max(dx for dx, _ in self._terms),
                max(dy for _, dy in self._terms))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as the int it equals
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BiPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dx, dy), c in sorted(self._terms.items(), reverse=True):
            mono = "*".join(s for s in (
                f"x^{dx}" if dx > 1 else "x" if dx == 1 else "",
                f"y^{dy}" if dy > 1 else "y" if dy == 1 else "") if s)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ " if parts else "") + body)
        return " ".join(parts) if parts[0][0] != "-" else "-" + " ".join(parts)[2:]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.constant(other)
        elif not isinstance(other, BiPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        result = BiPoly.__new__(BiPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        result = BiPoly.__new__(BiPoly)
        result._terms = {key: -c for key, c in self._terms.items()}
        return result

    def __sub__(self, other: "BiPoly | int") -> "BiPoly":
        if not isinstance(other, (BiPoly, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "BiPoly":
        return -self + other

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        if isinstance(other, int):
            if other == 0:
                return BiPoly.zero()
            result = BiPoly.__new__(BiPoly)
            result._terms = {key: other * c for key, c in self._terms.items()}
            return result
        if not isinstance(other, BiPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return BiPoly.zero()
        pairs = len(a) * len(b)
        if (min(len(a), len(b)) <= 2 or pairs <= _KRONECKER_PAIRS
                or _packed_slots(a, b) > pairs):
            out = _mul_schoolbook(a, b)
        else:
            out = _mul_kronecker(a, b)
        result = BiPoly.__new__(BiPoly)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, y):
        """The value at (x, y), over any ring the int coefficients act
        on: Fraction, int or BiPoly.  Each power is built once by
        repeated multiplication; the zero polynomial gives 0 * x."""
        xpow, ypow = [1], [1]
        for dx, dy in self._terms:
            while len(xpow) <= dx:
                xpow.append(xpow[-1] * x)
            while len(ypow) <= dy:
                ypow.append(ypow[-1] * y)
        total = 0 * x
        for (dx, dy), c in self._terms.items():
            total += c * xpow[dx] * ypow[dy]
        return total

    def eval_exact(self, x0: Fraction | int, y0: Fraction | int) -> Fraction:
        """Exact value at a rational point."""
        return self.evaluate(Fraction(x0), Fraction(y0))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: terms sorted by (dx, dy), coefficients as strings."""
        return {
            "terms": [
                {"dx": dx, "dy": dy, "coeff": str(c)}
                for (dx, dy), c in sorted(self._terms.items())
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BiPoly":
        return cls({(t["dx"], t["dy"]): int(t["coeff"]) for t in data["terms"]})


# -- internals -------------------------------------------------------------

def _mul_schoolbook(a: dict[Term, int], b: dict[Term, int]) -> dict[Term, int]:
    out: dict[Term, int] = {}
    get = out.get
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b.items():
            key = (xa + xb, ya + yb)
            s = get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _packed_slots(a: dict[Term, int], b: dict[Term, int]) -> int:
    """Slots of a Kronecker product of a and b: its (x, y) degree box."""
    return ((max(dx for dx, _ in a) + max(dx for dx, _ in b) + 1)
            * (max(dy for _, dy in a) + max(dy for _, dy in b) + 1))


def _mul_kronecker(a: dict[Term, int], b: dict[Term, int]) -> dict[Term, int]:
    """Multiply by packing both operands into single big decimals.

    Exponents (dx, dy) map to slot dx*stride + dy where stride covers the
    full y-degree of the product, so slot arithmetic mirrors exponent
    arithmetic.  A slot is w decimal digits with 10^w above twice a bound
    on every product coefficient, so signed coefficients are recovered as
    balanced digits (a slot >= 10^w / 2 is read as slot - 10^w with a
    carry into the next).  ``b is a`` packs once and squares.
    """
    stride = max(dy for _, dy in a) + max(dy for _, dy in b) + 1
    bound = (min(len(a), len(b)) * max(abs(c) for c in a.values())
             * max(abs(c) for c in b.values()))
    w = Decimal(2 * bound).adjusted() + 1
    # int <-> str conversions longer than 640 digits can exceed the
    # interpreter's limit (sys.set_int_max_str_digits); Decimal's cannot.
    text, number = ((str, int) if w <= 640 else
                    (lambda c: str(Decimal(c)), lambda s: int(Decimal(s))))

    na = _pack(a, stride, w, text)
    product = _EXACT.multiply(na, na if b is a else _pack(b, stride, w, text))
    sign = -1 if product.is_signed() else 1
    digits = str(product.copy_abs())
    del na, product  # free gigabytes before the out dict grows

    full = 10 ** w
    half = full // 2
    zero = "0" * w
    out: dict[Term, int] = {}
    carry = 0
    for i, end in enumerate(range(len(digits), 0, -w)):
        chunk = digits[max(end - w, 0):end]
        if not carry and chunk == zero:
            continue
        raw = number(chunk) + carry
        carry = raw >= half
        if carry:
            raw -= full
        if raw:
            out[divmod(i, stride)] = sign * raw
    if carry:  # the top coefficient is 1 above slots read as negative
        out[divmod(i + 1, stride)] = sign
    return out


def _pack(p: dict[Term, int], stride: int, w: int, text) -> Decimal:
    """p as the integer sum of c 10^(w (dx*stride + dy)), exactly."""
    top = max(dx * stride + dy for dx, dy in p)
    zero = "0" * w
    pos = [zero] * (top + 1)
    neg = [zero] * (top + 1)
    for (dx, dy), c in p.items():
        (pos if c > 0 else neg)[top - dx * stride - dy] = text(abs(c)).zfill(w)
    return _EXACT.subtract(Decimal("".join(pos)), Decimal("".join(neg)))
