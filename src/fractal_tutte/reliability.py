"""All-terminal reliability of the pseudofractal web and Sierpinski gasket.

With every edge independently operational with probability p, the
self-similar structure of both families turns reliability into a
recursion on one state of three scalars per generation:

* R = P(everything connected),
* B = P(exactly two components, hubs A and B in one, hub C in the other),
* T = P(exactly three components, one hub in each).

Both families start from the triangle, R(0) = p^2 (3-2p),
B(0) = p (1-p)^2, T(0) = (1-p)^3, and differ only in their step, which
``STEPS`` holds by family name:

* pseudofractal web, the Tutte step ``recursion.psw_step`` at X = 0,
  Y = 1, which T does not feed::

      R' = R^3 + 6 R^2 B          B' = 4 R B^2          T' = 8 B^3

* Sierpinski gasket::

      R' = R^3 + 6 R^2 B
      B' = R^2 B + R^2 T + 7 R B^2
      T' = 3 R B^2 + 12 R B T + 14 B^3

Every right-hand term is a product of positive quantities for p in
(0, 1), so each step is written once with plain + and * and runs on
whatever number type the mode picks: int (``exact``), float (``float``)
or Decimal (``log``, module ``scalars``).  Both steps are homogeneous of
degree 3, so for p = a/d ``exact`` mode steps the triangle's integer
numerators over d^3, and after n steps holds integers over
d^(3^(n+1)).  ``reliability_state`` reduces each of R, B and T once
(``scalars.lowest_terms``) instead of a gcd at every ``Fraction``
operation, over one ``scalars.Denominator``, so d is factored and the
odd part of d^(3^(n+1)) built once for the three.  ``compare_curves``
makes one pass over a grid: it reads each p once, runs the same
stepping core per family, and reduces only R, the value it prints, over
one ``Denominator`` per p.

An independent exact route goes through the Tutte polynomial:
R(n) = p^(V-1) (1-p)^(E-V+1) T_1,n(1, 1/(1-p)), with the integer
numerator of T from ``recursion.psw_tutte``, which at x = 1 is u = t1
and builds no w in its last generation, reduced by the primes of p's
denominator (``scalars.lowest_terms``); the two must
agree exactly, and a test holds them to it.
"""

from __future__ import annotations

import contextlib
import decimal
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, SizeLimitExceeded, check_generation, shown
from .graphs import psw_edge_count, psw_vertex_count
from .invariants import MAX_EVAL_GENERATION, check_point_size
from .recursion import psw_step, psw_tutte
from .scalars import (
    LOG_CONTEXT,
    MAX_EXACT_BITS,
    MAX_LOG_GENERATION,
    PRINTED_DIGITS,
    Denominator,
    as_probability,
    bits,
    embed,
    fraction_ln,
    ln,
    lowest_terms,
)


def _sg_step(r, b, t):
    """One gasket generation of (R, B, T), over any ring."""
    return (r * r * (r + 6 * b),
            r * (r * (b + t) + 7 * b * b),
            b * (3 * r * b + 12 * r * t + 14 * b * b))


#: One generation of (R, B, T) by family, over any ring.  At X = 0 the
#: psw step does not read its q slot, so 0 stands in for T there.
STEPS = {"psw": lambda r, b, t: psw_step(r, b, 0, 0, 1), "sg": _sg_step}
FAMILIES = tuple(STEPS)


@dataclass(frozen=True)
class RelState:
    """(R, B, T) of one family's generation, in the number type of mode."""

    family: str
    level: int
    r: object
    b: object
    t: object
    mode: str

    @property
    def ln_r(self) -> float:
        return float(ln(self.r))


def reliability_state(family: str, n: int, p,
                      mode: str = "exact") -> RelState:
    """(R, B, T) of the family's generation n at edge probability p.

    Exact mode at p = a/d is refused first if d^(3^(n+1)) is predicted
    wider than ``MAX_EXACT_BITS``, which alone sets how deep it goes,
    and float mode past ``MAX_LOG_GENERATION``.  Log mode's depth is
    checked generation by generation, so that a value leaving the
    exponent range first is reported as such.
    """
    check_generation(n, math.inf, "reliability")
    if family not in STEPS:
        raise DomainError(
            f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    p = as_probability(p)
    a, d = p.numerator, p.denominator
    if mode == "log" and not 0 < a < d:
        raise DomainError(
            f"log mode needs p strictly inside (0, 1), got {p}")
    rbt = _run(STEPS[family], n, a, d, mode)
    if mode == "exact":
        den = Denominator(((d, 3 ** (n + 1)),))
        rbt = [lowest_terms(v, den) for v in rbt]
    return RelState(family, n, *rbt, mode)


#: What float and exact mode step under: their arithmetic reads no context.
_NO_CONTEXT = contextlib.nullcontext()


def _run(step, n: int, a: int, d: int, mode: str) -> list:
    """(R, B, T) of generation n at p = a/d, 0 <= a <= d, by ``step``.

    Exact mode gives integer numerators over d^(3^(n+1)), since each
    step is homogeneous of degree 3; float and log mode give values of
    their number type.  The one stepping core of ``reliability_state``
    and ``compare_curves``, which check n and read p first.
    """
    if mode == "exact":
        # d = 1 (p = 0 or 1) counts as one bit, so n stays bounded.  Past
        # the n where no float holds 3^(n+1), it is not built.
        den = ((3 ** (n + 1) if n + 2 <= MAX_APPROX_GENERATION else math.inf)
               * max(bits(d), 1.0))
        if den > MAX_EXACT_BITS:
            raise SizeLimitExceeded(
                f"exact reliability at n = {shown(n)}: its denominator "
                f"d^(3^(n+1)) is predicted at {den:.4g} bits, over the "
                f"budget of {MAX_EXACT_BITS:.4g} bits")
    elif mode == "float" and n > MAX_LOG_GENERATION:
        raise SizeLimitExceeded(
            f"float mode is limited to n <= {MAX_LOG_GENERATION}, as log "
            f"mode is: there its a-priori relative error, 3^n 2^-53, is "
            f"already over 10^3")
    # The triangle at p = a/d: R, B and T over the common denominator d^3.
    rbt = [a * a * (3 * d - 2 * a), a * (d - a) ** 2, (d - a) ** 3]
    if mode != "exact":
        rbt = [embed(v, d ** 3, mode) for v in rbt]
    with decimal.localcontext(LOG_CONTEXT) if mode == "log" else _NO_CONTEXT:
        for level in range(n):
            if mode == "log" and level >= MAX_LOG_GENERATION:
                raise SizeLimitExceeded(
                    f"log mode is limited to n <= {MAX_LOG_GENERATION}: its "
                    f"{LOG_CONTEXT.prec} digits keep {PRINTED_DIGITS} printed "
                    f"digits correct only that deep")
            try:
                rbt = step(*rbt)
            except decimal.Underflow:
                raise SizeLimitExceeded(
                    f"log mode: generation {level + 1} holds a value below "
                    f"1e{LOG_CONTEXT.Emin}, outside Decimal's exponent range"
                ) from None
    return rbt


def psw_rel_via_tutte(n: int, p) -> Fraction:
    """R(n) through the Tutte polynomial identity, in exact arithmetic.

    R(n) = p^(V-1) (1-p)^(E-V+1) * T_1,n(1, 1/(1-p)).  Equals the direct
    probability recursion identically; exists as its second witness.
    For p = r/s it is r^(V-1) U / s^E, with U from ``psw_tutte`` at
    X = 0, Y = r/(s-r) (u = t1 at X = 0), reduced once by the primes
    of s.
    p = 0 and p = 1 are answered directly (0 and 1) since 1/(1-p) is
    singular at p = 1, after the exact-point guard
    ``invariants.MAX_EVAL_GENERATION``; any other p is then refused if
    ``invariants.check_point_size`` predicts it too large.
    """
    check_generation(n, MAX_EVAL_GENERATION,
                     "exact Tutte-route reliability (value bit-length grows "
                     "like 3^n)")
    p = as_probability(p)
    if p == 1:
        return Fraction(1)
    if p == 0:
        return Fraction(0)
    # At x = 1, Y = p/(1-p) = r/(s-r), and U's common denominator
    # (s-r)^((3^(n+1)-1)/2) = (s-r)^(E-V+1) cancels against (1-p)^(E-V+1).
    r, s = p.numerator, p.denominator
    check_point_size(n, -math.inf, bits(r), 0.0, bits(s - r))
    u = psw_tutte(n, 0, r, 1, s - r)
    return lowest_terms(r ** (psw_vertex_count(n) - 1) * u,
                        Denominator(((s, psw_edge_count(n)),)))


#: 3^(n-1) fits a float up to this n: 3^646 < 1.8e308 < 3^647.
MAX_APPROX_GENERATION = 647


def psw_rel_approx_log(n: int, p) -> float:
    """The decay approximation ln R(n) ~ 3^(n-1) * ln(p (2-p)).

    Defined for n >= 1 and p in (0, 1]; at p = 1 it is exactly 0 at any n.
    p is read exactly (``scalars.as_probability``) and the logarithm taken
    of the exact p (2-p), so a p no float holds, such as 10^-5000, has
    one.
    """
    if n < 1:
        raise DomainError(f"approximation needs n >= 1, got {shown(n)}")
    p = as_probability(p)
    if p == 0:
        raise DomainError(f"p must lie in (0, 1], got {p}")
    if p == 1:
        return 0.0
    check_generation(n, MAX_APPROX_GENERATION,
                     "the decay approximation (3^(n-1) must fit a float)")
    return 3 ** (n - 1) * fraction_ln(p * (2 - p))


# -- comparison curves and CSV ---------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    """One grid point of the PSW-vs-gasket comparison: R by family, for
    the families asked for."""

    p: float
    mode: str
    r: dict


def compare_curves(n: int, p_grid, mode: str = "exact",
                   families=FAMILIES) -> list[CurvePoint]:
    """Reliability at level n over a probability grid, for the families
    asked for (default both).

    Rows come back sorted by p; every grid value must lie strictly
    inside (0, 1) so that the values and their logarithms exist in
    every mode.  One pass reads each p once and runs each family's
    recursion from it, with the checks and messages of
    ``reliability_state``; exact mode reduces only R, the value printed,
    with one ``Denominator`` for the families at a p.
    """
    unknown = set(families) - set(FAMILIES)
    if unknown or not families:
        raise DomainError(
            f"families must be drawn from {', '.join(FAMILIES)}, "
            f"got {', '.join(families) or 'none'}")
    check_generation(n, math.inf, "reliability")
    points = []
    for p in sorted(p_grid):
        pf = as_probability(p)
        a, d = pf.numerator, pf.denominator
        if not 0 < a < d:
            raise DomainError(f"grid value {p} outside (0, 1)")
        r = {f: _run(STEPS[f], n, a, d, mode)[0] for f in families}
        if mode == "exact":
            den = Denominator(((d, 3 ** (n + 1)),))
            r = {f: lowest_terms(v, den) for f, v in r.items()}
        points.append(CurvePoint(p=float(p), mode=mode, r=r))
    return points


#: Rounds a probability to its printed digits; the exponent is unbounded.
_PRINT_CONTEXT = decimal.Context(
    prec=PRINTED_DIGITS, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def format_probability(value, mode: str) -> str:
    """Scientific notation, 12 significant digits, unlimited exponent.

    Exact (Fraction) values are rounded half-even in integers, and log
    (Decimal) values through Decimal; both keep quantities like 1e-3000
    printable even though no float holds them.  Float values print as
    they are.
    """
    if mode == "float":
        return f"{value:.11e}"
    if mode == "exact":
        mantissa, exp = _fraction_sci(value.numerator, value.denominator)
    elif mode == "log":
        mantissa, exp = _decimal_sci(_PRINT_CONTEXT.plus(value))
    else:
        raise DomainError(f"unknown scalar mode {mode!r}")
    return f"{mantissa}e{exp:+03d}"


def _fraction_sci(num: int, den: int) -> tuple[str, int]:
    """num/den >= 0 to ``PRINTED_DIGITS`` digits, rounded half-even.

    One divmod at the scale that leaves a 12-digit quotient, rather than
    converting num and den to Decimal, which is quadratic in their length.
    """
    if num == 0:
        return "0." + "0" * (PRINTED_DIGITS - 1), 0
    low, high = 10 ** (PRINTED_DIGITS - 1), 10 ** PRINTED_DIGITS
    # 10^e <= num/den < 10^(e+1); the float estimate can miss by one
    # only next to a power of ten, where the quotient's range corrects it.
    e = math.floor(math.log10(num) - math.log10(den))
    while True:
        shift = PRINTED_DIGITS - 1 - e
        scaled_num, scaled_den = ((num * 10 ** shift, den) if shift >= 0
                                  else (num, den * 10 ** -shift))
        q, r = divmod(scaled_num, scaled_den)
        if q < low:
            e -= 1
        elif q >= high:
            e += 1
        else:
            break
    if 2 * r > scaled_den or (2 * r == scaled_den and q % 2):
        q += 1
        if q == high:
            q, e = low, e + 1
    digits = str(q)
    return f"{digits[0]}.{digits[1:]}", e


def _decimal_sci(d: Decimal) -> tuple[str, int]:
    sign, digits, exp = d.as_tuple()
    point_exp = exp + len(digits) - 1
    digits = "".join(map(str, digits)).ljust(PRINTED_DIGITS, "0")
    mantissa = f"{digits[0]}.{digits[1:]}"
    if sign:
        mantissa = "-" + mantissa
    return mantissa, point_exp


def curves_to_csv(points: list[CurvePoint], families=FAMILIES) -> str:
    """The comparison table in its fixed CSV format.

    One R and one lnR column per family; p with 4 decimals,
    probabilities as 12-significant-digit scientific notation,
    logarithms with 6 decimals.  A float R below the smallest normal
    double, 0 or subnormal for a positive value, is refused: no printed
    digit of it would be justified.
    """
    lines = [",".join(["p"] + [f"R_{f}" for f in families]
                      + [f"lnR_{f}" for f in families])]
    for pt in points:
        values = [pt.r[f] for f in families]
        for f, v in zip(families, values):
            if pt.mode == "float" and v < sys.float_info.min:
                raise SizeLimitExceeded(
                    f"float mode: R_{f} at p = {pt.p} is below "
                    f"{sys.float_info.min:.4g}, the smallest normal double, "
                    f"so its digits would be wrong; exact and log mode "
                    f"hold it")
        lines.append(",".join(
            [f"{pt.p:.4f}"]
            + [format_probability(v, pt.mode) for v in values]
            + [f"{ln(v):.6f}" for v in values]))
    return "\n".join(lines) + "\n"
