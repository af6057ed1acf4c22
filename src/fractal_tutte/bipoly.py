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
any such ring, ``BiPoly`` included, by Horner's rule in x over a table
of y powers, so it never multiplies two powers together.

Multiplication by x^i y^j - 1, such as x-1 or y-1, is a shift and a
subtraction.  Large products of operands with no negative coefficient,
which is every full-size product of the psw recursion, use Kronecker
substitution: each polynomial is packed into a single big decimal with
coefficients in fixed-width digit slots, multiplied once by libmpdec's
number-theoretic transform, and read back slot by slot.  Every other
product, signed ones included, is a schoolbook convolution.  The
read-back scans the product's decimal text in blocks of about 2^20
digits: numpy finds each block's nonzero slots, and only those are
converted to ints, so no second copy of the digits is made.  numpy
loads at the first such read-back, so arithmetic on small polynomials
never imports it.  All paths produce identical results; the choice
among them is purely a speed choice.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping

from ._arrays import np
from .errors import ZeroPolynomial

Term = tuple[int, int]

# Pair-count threshold above which unsigned products switch to Kronecker
# substitution.  Schoolbook wins below it because packing has fixed overhead,
# and on sparse operands whose degree box holds more slots than term pairs.
_KRONECKER_PAIRS = 4096

#: Exact context of the packed products (Inexact would raise).  Every
#: Decimal operation here names it, since the thread's context may round.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])

#: Digits of a packed product read back per block by ``_unpack``, so its
#: temporaries stay near this size however long the product is.
_BLOCK_DIGITS = 1 << 20


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
        return _box(self._terms)

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
        # "*x^dx" and "*y^dy" by degree, built once per call
        dx_max, dy_max = _box(self._terms)
        xs = ["", "*x"] + [f"*x^{d}" for d in range(2, dx_max + 1)]
        ys = ["", "*y"] + [f"*y^{d}" for d in range(2, dy_max + 1)]
        parts = []
        for (dx, dy), c in sorted(self._terms.items(), reverse=True):
            mono = xs[dx] + ys[dy]
            body = mono[1:] if mono and c in (1, -1) else f"{abs(c)}{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

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
        if shift := _minus_one_shift(b):
            out = _mul_shift_subtract(a, shift)
        elif shift := _minus_one_shift(a):
            out = _mul_shift_subtract(b, shift)
        elif (min(len(a), len(b)) <= 2 or pairs <= _KRONECKER_PAIRS
                or _packed_slots(a, b) > pairs
                or min(a.values()) < 0 or min(b.values()) < 0):
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
        on: Fraction, int or BiPoly, by Horner's rule.  One table of y
        powers gives each x-degree's row, the sum of c y^dy; the rows
        fold from the top x-degree down as total * x + row, so every
        product has x or y as a factor.  The zero polynomial gives 0 * x."""
        total = 0 * x
        if not self._terms:
            return total
        dx_max, dy_max = _box(self._terms)
        ypow, rows = [1], [0] * (dx_max + 1)
        while len(ypow) <= dy_max:
            ypow.append(ypow[-1] * y)
        for (dx, dy), c in self._terms.items():
            rows[dx] += c * ypow[dy]
        for row in reversed(rows):
            total = total * x + row
        return total

    def eval_exact(self, x0: Fraction | int, y0: Fraction | int) -> Fraction:
        """Exact value at a rational point."""
        return self.evaluate(Fraction(x0), Fraction(y0))

    # -- serialization -----------------------------------------------------

    # No caller; kept because perfbench/tracing.py wraps it by name.
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


def _minus_one_shift(p: dict[Term, int]) -> Term | None:
    """(i, j) if p is x^i y^j - 1, such as x - 1 or y - 1; else None."""
    if len(p) == 2 and p.get((0, 0)) == -1:
        shift = max(p)
        if p[shift] == 1:
            return shift
    return None


def _mul_shift_subtract(p: dict[Term, int], shift: Term) -> dict[Term, int]:
    """p (x^i y^j - 1) for (i, j) = shift: p shifted by one dict
    comprehension, then p subtracted from it term by term."""
    i, j = shift
    out = {(dx + i, dy + j): c for (dx, dy), c in p.items()}
    get = out.get
    for key, c in p.items():
        s = get(key, 0) - c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _box(p: dict[Term, int]) -> tuple[int, int]:
    """(max x-degree, max y-degree) of a nonzero term map, in C-level
    passes: the largest key's x, and the largest y."""
    return max(p)[0], max(map(itemgetter(1), p))


def _packed_slots(a: dict[Term, int], b: dict[Term, int]) -> int:
    """Slots of a Kronecker product of a and b: its (x, y) degree box."""
    (xa, ya), (xb, yb) = _box(a), _box(b)
    return (xa + xb + 1) * (ya + yb + 1)


def _mul_kronecker(a: dict[Term, int], b: dict[Term, int]) -> dict[Term, int]:
    """Multiply two polynomials with no negative coefficient by packing
    each into a single big decimal; ``BiPoly.__mul__`` sends every other
    product to ``_mul_schoolbook``.

    Exponents (dx, dy) map to slot dx*stride + dy where stride covers the
    full y-degree of the product, so slot arithmetic mirrors exponent
    arithmetic.  A slot is w decimal digits with 10^w above a bound on
    every product coefficient; no coefficient is negative, so no slot
    borrows or carries.  ``b is a`` packs once and squares.
    """
    stride = _box(a)[1] + _box(b)[1] + 1
    bound = min(len(a), len(b)) * max(a.values()) * max(b.values())
    w = Decimal(bound).adjusted() + 1
    # int <-> str conversions longer than 640 digits can exceed the
    # interpreter's limit (sys.set_int_max_str_digits); Decimal's cannot.
    text, number = ((f"{{:0{w}d}}".format, int) if w <= 640 else
                    (lambda c: str(Decimal(c)).zfill(w),
                     lambda s: int(Decimal(s.decode()))))

    na = _pack(a, stride, w, text)
    nb = na if b is a else _pack(b, stride, w, text)
    product = _EXACT.multiply(na, nb)
    del na, nb  # each big value is freed before the next one is made
    digits = str(product)
    del product
    return _unpack(digits, w, stride, _packed_slots(a, b), number)


def _unpack(digits: str, w: int, stride: int, slots: int,
            number=int) -> dict[Term, int]:
    """The term map of a packed product from its decimal text.

    Slot i is the w digits that end i*w digits from the right.  The slot
    count comes from the degree box, not from the text: top slots of
    zeros are missing from it.  The text is scanned in blocks of whole
    slots, about ``_BLOCK_DIGITS`` digits each: numpy finds a block's
    nonzero slots, and each of those costs one ``number``.
    """
    end = len(digits)
    per = max(1, _BLOCK_DIGITS // w)
    zero = np.bytes_(b"0" * w)
    out: dict[Term, int] = {}
    for i0 in range(0, slots, per):
        count = min(per, slots - i0)
        hi = max(end - i0 * w, 0)
        # slot i0 first; only the top slots may need leading zeros
        block = digits[max(hi - count * w, 0):hi].encode("ascii").rjust(
            count * w, b"0")
        text = np.frombuffer(block, f"S{w}")[::-1]
        at = np.flatnonzero(text != zero)
        values = map(number, text[at].tolist())
        at += i0
        out.update(zip(zip((at // stride).tolist(), (at % stride).tolist()),
                       values))
    return out


def _pack(p: dict[Term, int], stride: int, w: int, text) -> Decimal:
    """p, with no negative coefficient, as the integer sum of
    c 10^(w (dx*stride + dy)), exactly; ``text`` prints a coefficient as
    w digits."""
    dx, dy = max(p)
    top = dx * stride + dy
    slots = ["0" * w] * (top + 1)
    for (dx, dy), c in p.items():
        slots[top - dx * stride - dy] = text(c)
    return Decimal("".join(slots))
