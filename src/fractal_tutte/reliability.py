"""All-terminal reliability of the pseudofractal web and Sierpinski gasket.

With every edge independently operational with probability p, the
self-similar structure of both families turns reliability into a scalar
recursion per generation:

* pseudofractal web, with R = P(everything connected) and
  B = P(exactly two components, hubs A and B in one, hub C in the other)::

      R' = R^3 + 6 R^2 B          B' = 4 R B^2

* Sierpinski gasket, which needs a third scalar
  Ts = P(three components, each hub in its own)::

      Rs' = Rs^3 + 6 Rs^2 Bs
      Bs' = Rs^2 Bs + Rs^2 Ts + 7 Rs Bs^2
      Ts' = 3 Rs Bs^2 + 12 Rs Bs Ts + 14 Bs^3

Initial values: R(0) = Rs(0) = p^2 (3-2p), B(0) = Bs(0) = p (1-p)^2,
Ts(0) = (1-p)^3.  Every right-hand term is a product of positive
quantities for p in (0, 1), so each step is written once with plain
+ and * and runs on whatever number type the mode picks: Fraction
(``exact``), float (``float``) or Decimal (``log``, module ``scalars``).
The psw step is the Tutte step ``recursion.psw_step`` at X = 0, Y = 1.

An independent exact route goes through the Tutte polynomial:
R(n) = p^(V-1) (1-p)^(E-V+1) T_1,n(1, 1/(1-p)), with the integer point
recursion of module ``invariants``; the two must agree exactly, and a
test holds them to it.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, SizeLimitExceeded
from .graphs import psw_edge_count, psw_vertex_count
from .invariants import scaled_state
from .recursion import psw_step
from .scalars import (
    LOG_CONTEXT,
    MAX_LOG_GENERATION,
    PRINTED_DIGITS,
    embed,
    ln,
)

MAX_VIA_TUTTE_GENERATION = 10

FAMILIES = ("psw", "sg")


def _as_probability(p) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise DomainError(f"edge probability {p} outside [0, 1]")
    return p


def _require_open_interval(p: Fraction, mode: str) -> None:
    if mode == "log" and not 0 < p < 1:
        raise DomainError(
            f"log mode needs p strictly inside (0, 1), got {p}")


@dataclass(frozen=True)
class RelStatePsw:
    level: int
    r: object
    b: object
    mode: str = "exact"

    @property
    def ln_r(self) -> float:
        return float(ln(self.r))


@dataclass(frozen=True)
class RelStateSg:
    level: int
    rs: object
    bs: object
    ts: object
    mode: str = "exact"

    @property
    def ln_rs(self) -> float:
        return float(ln(self.rs))


def _run_step(s, step, *values):
    """step(*values) for the state s, in the arithmetic of its mode.

    A Decimal step runs under ``LOG_CONTEXT``; one past
    ``MAX_LOG_GENERATION``, or one whose values leave the exponent range,
    ends in ``SizeLimitExceeded``.
    """
    if s.mode != "log":
        return step(*values)
    if s.level >= MAX_LOG_GENERATION:
        raise SizeLimitExceeded(
            f"log mode is limited to n <= {MAX_LOG_GENERATION}: its "
            f"{LOG_CONTEXT.prec} digits keep {PRINTED_DIGITS} printed "
            f"digits correct only that deep")
    try:
        with decimal.localcontext(LOG_CONTEXT):
            return step(*values)
    except decimal.Underflow:
        raise SizeLimitExceeded(
            f"log mode: generation {s.level + 1} holds a value below "
            f"1e{LOG_CONTEXT.Emin}, outside Decimal's exponent range"
        ) from None


def psw_rel_init(p, mode: str = "exact") -> RelStatePsw:
    """Level-0 state: R = p^2 (3-2p), B = p (1-p)^2."""
    p = _as_probability(p)
    _require_open_interval(p, mode)
    return RelStatePsw(
        level=0,
        r=embed(p * p * (3 - 2 * p), mode),
        b=embed(p * (1 - p) ** 2, mode),
        mode=mode,
    )


def psw_rel_step(s: RelStatePsw) -> RelStatePsw:
    """R' = R^2 (R + 6B);  B' = 4 R B^2: the Tutte step at X = 0, Y = 1."""
    r, b, _ = _run_step(s, psw_step, s.r, s.b, 0, 0, 1)
    return RelStatePsw(level=s.level + 1, r=r, b=b, mode=s.mode)


def sg_rel_init(p, mode: str = "exact") -> RelStateSg:
    """Level-0 state: Rs = p^2 (3-2p), Bs = p (1-p)^2, Ts = (1-p)^3."""
    p = _as_probability(p)
    _require_open_interval(p, mode)
    return RelStateSg(
        level=0,
        rs=embed(p * p * (3 - 2 * p), mode),
        bs=embed(p * (1 - p) ** 2, mode),
        ts=embed((1 - p) ** 3, mode),
        mode=mode,
    )


def _sg_step(rs, bs, ts):
    """One gasket generation of (Rs, Bs, Ts), over any ring."""
    return (rs * rs * (rs + 6 * bs),
            rs * (rs * (bs + ts) + 7 * bs * bs),
            bs * (3 * rs * bs + 12 * rs * ts + 14 * bs * bs))


def sg_rel_step(s: RelStateSg) -> RelStateSg:
    """One gasket generation on (Rs, Bs, Ts)."""
    rs, bs, ts = _run_step(s, _sg_step, s.rs, s.bs, s.ts)
    return RelStateSg(level=s.level + 1, rs=rs, bs=bs, ts=ts, mode=s.mode)


def psw_reliability(n: int, p, mode: str = "exact") -> RelStatePsw:
    """State after n recursion steps."""
    s = psw_rel_init(p, mode)
    for _ in range(n):
        s = psw_rel_step(s)
    return s


def sg_reliability(n: int, p, mode: str = "exact") -> RelStateSg:
    s = sg_rel_init(p, mode)
    for _ in range(n):
        s = sg_rel_step(s)
    return s


def psw_rel_via_tutte(n: int, p) -> Fraction:
    """R(n) through the Tutte polynomial identity, in exact arithmetic.

    R(n) = p^(V-1) (1-p)^(E-V+1) * T_1,n(1, 1/(1-p)).  Equals the direct
    probability recursion identically; exists as its second witness.
    For p = r/s it is r^(V-1) T / s^E, with T from
    ``invariants.scaled_state``, reduced once.
    p = 0 and p = 1 are answered directly (0 and 1) since 1/(1-p) is
    singular at p = 1.
    """
    if n < 0:
        raise DomainError(f"generation must be nonnegative, got {n}")
    if n > MAX_VIA_TUTTE_GENERATION:
        raise SizeLimitExceeded(
            f"exact Tutte-route reliability limited to "
            f"n <= {MAX_VIA_TUTTE_GENERATION}")
    p = _as_probability(p)
    if p == 1:
        return Fraction(1)
    if p == 0:
        return Fraction(0)
    # At x = 1, Y = p/(1-p) = r/(s-r), and T's common denominator
    # (s-r)^((3^(n+1)-1)/2) = (s-r)^(E-V+1) cancels against (1-p)^(E-V+1).
    r, s = p.numerator, p.denominator
    t, _, _ = scaled_state(n, Fraction(0), Fraction(r, s - r))
    return Fraction(r ** (psw_vertex_count(n) - 1) * t, s ** psw_edge_count(n))


def psw_rel_approx_log(n: int, p: float) -> float:
    """The decay approximation ln R(n) ~ 3^(n-1) * ln(p (2-p)).

    Defined for n >= 1 and p in (0, 1]; at p = 1 the value is exactly 0.
    """
    if n < 1:
        raise DomainError(f"approximation needs n >= 1, got {n}")
    p = float(p)
    if not 0 < p <= 1:
        raise DomainError(f"p must lie in (0, 1], got {p}")
    return 3 ** (n - 1) * math.log(p * (2 - p))


# -- comparison curves and CSV ---------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    """One grid point of the PSW-vs-gasket comparison.

    A family that was not asked for holds None.
    """

    p: float
    mode: str
    r_psw: object
    r_sg: object

    @property
    def ln_r_psw(self) -> float:
        return float(ln(self.r_psw))

    @property
    def ln_r_sg(self) -> float:
        return float(ln(self.r_sg))


def compare_curves(n: int, p_grid, mode: str = "exact",
                   families=FAMILIES) -> list[CurvePoint]:
    """Reliability at level n over a probability grid, for the families
    asked for (default both).

    Rows come back sorted by p; every grid value must lie strictly
    inside (0, 1) so that the values and their logarithms exist in
    every mode.
    """
    unknown = set(families) - set(FAMILIES)
    if unknown or not families:
        raise DomainError(
            f"families must be drawn from {', '.join(FAMILIES)}, "
            f"got {', '.join(families) or 'none'}")
    points = []
    for p in sorted(p_grid):
        pf = Fraction(p).limit_denominator(10**12) if isinstance(p, float) else Fraction(p)
        if not 0 < pf < 1:
            raise DomainError(f"grid value {p} outside (0, 1)")
        psw = psw_reliability(n, pf, mode).r if "psw" in families else None
        sg = sg_reliability(n, pf, mode).rs if "sg" in families else None
        points.append(CurvePoint(p=float(p), mode=mode, r_psw=psw, r_sg=sg))
    return points


#: Rounds a probability to its printed digits; the exponent is unbounded.
_PRINT_CONTEXT = decimal.Context(
    prec=PRINTED_DIGITS, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def format_probability(value, mode: str) -> str:
    """Scientific notation, 12 significant digits, unlimited exponent.

    Exact and log (Decimal) values are correctly rounded through
    Decimal, which keeps quantities like 1e-3000 printable even though
    no float holds them; float values print as they are.
    """
    if mode == "float":
        return f"{value:.11e}"
    if mode == "exact":
        d = _PRINT_CONTEXT.divide(Decimal(value.numerator),
                                  Decimal(value.denominator))
    elif mode == "log":
        d = _PRINT_CONTEXT.plus(value)
    else:
        raise DomainError(f"unknown scalar mode {mode!r}")
    mantissa, exp = _decimal_sci(d)
    return f"{mantissa}e{exp:+03d}"


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
    logarithms with 6 decimals.
    """
    lines = [",".join(["p"] + [f"R_{f}" for f in families]
                      + [f"lnR_{f}" for f in families])]
    for pt in points:
        values = [pt.r_psw if f == "psw" else pt.r_sg for f in families]
        lines.append(",".join(
            [f"{pt.p:.4f}"]
            + [format_probability(v, pt.mode) for v in values]
            + [f"{ln(v):.6f}" for v in values]))
    return "\n".join(lines) + "\n"
