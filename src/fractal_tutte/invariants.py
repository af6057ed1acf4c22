"""Numeric invariants of the pseudofractal web via scalar recursion.

The symbolic recursion (module ``recursion``) is exponential in output
size.  Evaluating at a fixed rational point instead runs the same
recursion, ``recursion.psw_tutte``, on integers: four big-integer
products per generation, and two in the last one at x = 1, so counts
like T_n(1,1) are reachable far beyond the symbolic limit.  With
X = x0-1 = a/d and Y = y0-1 = b/e, the state is kept on integers over
one common denominator D, a power product of d and e, so a rational
point pays for one reduction at the end instead of a gcd at every
``Fraction`` operation.  That reduction, ``scalars.lowest_terms`` over a
``scalars.Denominator``, divides out the bases of D, by their primes or
by gcds no wider than a base, and never takes a gcd of two full-size
integers.  The hub classes (t1, p, q) at a point are
``recursion.psw_step`` over ``Fraction``.  This module provides

* ``eval_tutte_at_point``: T_n at a rational point, reduced once;
* ``check_point_size``: its guard, which predicts the bits of the state
  and of its denominator from those of the point before any work;
* ``invariant_report``: the classical Tutte evaluations
  (spanning trees, connected spanning subgraphs, spanning forests,
  acyclic orientations, all subgraphs) at one generation;
* ``spanning_trees_closed_form`` / ``spanning_trees_recurrence``: the
  two independent routes to the spanning-tree count;
* ``exponent_sequences``: the integer sequences a_k, b_k, c_k, d_k that
  arise when unrolling the tree-count recurrence, from their closed
  forms;
* ``decimal_str`` (from ``scalars``): the digits of a value, in less
  than quadratic time.

Every value here that is an integer by construction is computed as one:
the closed forms divide exactly, and the report's points have D = 1.
The tests, not run-time checks, hold them to the recurrences they solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SizeLimitExceeded, check_generation
from .recursion import psw_tutte
from .scalars import (Denominator, bits, decimal_str, logsumexp,
                      lowest_terms, read_exact)

#: Each generation triples the tree count's bits.  On a 2-vCPU VM (Python
#: 3.11.7) n = 15 takes 5.1 s in closed form and 28 s by the recurrence
#: (52 MB), and n = 16 takes 26 s and 158 s (100 MB).
MAX_TREE_COUNT_GENERATION = 15


def eval_tutte_at_point(n: int, x0, y0) -> Fraction:
    """T_n(x0, y0) = (U + a W) / D, in lowest terms, with U + a W from
    ``psw_tutte`` at X = a/d and Y = b/e.

    D_0 = e d^2 and D' = e D^3, so D_n = e^((3^(n+1)-1)/2) d^(2 3^n).
    ``scalars.read_exact`` reads x0 and y0 at the bits ``check_point_size``
    leaves them, the state being at least 3^n times the larger of bits(a)
    + bits(d) and 2 bits(d), plus the bit x0 = (a + d)/d may add;
    ``check_point_size`` then sizes the point.
    """
    check_generation(n, MAX_EVAL_GENERATION, _EXACT_EVALUATION)
    budget = MAX_POINT_STATE_BITS / 3 ** n + 1
    X, Y = (read_exact(v, budget, f"{name} of the exact point at n = {n}") - 1
            for v, name in ((x0, "x"), (y0, "y")))
    a, d, b, e = X.numerator, X.denominator, Y.numerator, Y.denominator
    check_point_size(n, *map(bits, (a, b, d, e)))
    return lowest_terms(psw_tutte(n, a, b, d, e), Denominator(
        ((e, (3 ** (n + 1) - 1) // 2), (d, 2 * 3 ** n))))


#: Budget of an exact point's predicted (U, W) state, in bits.  T_14(2, 2),
#: the largest point of ``invariant_report``, is predicted at 1.67e7 bits
#: and takes 6.4-7.9 s on a 2-vCPU VM (Python 3.11.7); the state's products
#: cost about (state bits)^1.5 (3 times the bits of T_13(2, 2) took 5.3 to
#: 6.4 times the time).
MAX_POINT_STATE_BITS = 1 << 24
#: Budget of (D_n bits) x (state bits) once the state's share is spent.
#: The final reduction divides the state by powers of D_n's primes, at a
#: cost near that product: 1.1e-12 to 1.34e-12 s per bit^2 on the VM above
#: (n = 11 and 12 at x = 1/3, 1001/3 and 32768/3), so 2^43 takes at most
#: about 12 s.
MAX_POINT_REDUCTION = 1 << 43
#: Deepest generation of an exact point, 14: where T_n(1, 1)'s predicted
#: state, log2(3) (3^(n+1) - 1) / 2 bits, the smallest of any point, still
#: fits ``MAX_POINT_STATE_BITS``.  It refuses a huge n before 3^n is built.
MAX_EVAL_GENERATION = max(
    n for n in range(64)
    if math.log2(3) * (3 ** (n + 1) - 1) / 2 <= MAX_POINT_STATE_BITS)
_EXACT_EVALUATION = "exact evaluation (value bit-length grows like 3^n)"


def _bits_of_sum(*sizes: float) -> float:
    """bits() of a sum of terms of the given bits, all of one sign."""
    return logsumexp(*(s * math.log(2) for s in sizes)) / math.log(2)


def check_point_size(n: int, a: float, b: float, d: float, e: float) -> None:
    """Refuse the exact point X = a/d, Y = b/e at generation n before any
    work, from n and bits() of a, b, d and e alone.

    Two sizes are predicted: the (U, W) state of ``psw_state`` and
    D_n = e^((3^(n+1)-1)/2) d^(2 3^n).  The state starts at
    U = d (d b + 3 d e + a e), W = e (2 d + a), and each step bounds
    max(|U|, |W|) by its cube times |b| + d e (3 + |a|), so its bits s
    grow as s' = 3 s + c.  The state is refused past
    ``MAX_POINT_STATE_BITS``, and D_n past what the state leaves of the
    same time: ``MAX_POINT_REDUCTION`` (1 - (s / MAX_POINT_STATE_BITS)^1.5)
    / s bits.
    """
    check_generation(n, MAX_EVAL_GENERATION, _EXACT_EVALUATION)
    k = 3 ** n
    three = math.log2(3)
    start = max(d + _bits_of_sum(d + b, d + e + three, a + e),
                e + _bits_of_sum(d + 1, a))
    state = k * start + (k - 1) // 2 * _bits_of_sum(
        b, d + e + _bits_of_sum(three, a))
    if state > MAX_POINT_STATE_BITS:
        raise SizeLimitExceeded(
            f"exact point at n = {n}: its (U, W) state is predicted at "
            f"{state:.4g} bits, over the budget of {MAX_POINT_STATE_BITS} "
            f"bits")
    den = (3 * k - 1) // 2 * e + 2 * k * d
    budget = (MAX_POINT_REDUCTION / state
              * (1 - (state / MAX_POINT_STATE_BITS) ** 1.5))
    if den > budget:
        raise SizeLimitExceeded(
            f"exact point at n = {n}: its denominator D_n is predicted at "
            f"{den:.4g} bits, over the budget of {budget:.4g} bits that its "
            f"{state:.4g}-bit (U, W) state leaves")


@dataclass(frozen=True)
class InvariantReport:
    """The classical counting evaluations of T_n at one generation."""

    n: int
    spanning_trees: int
    connected_spanning_subgraphs: int
    spanning_forests: int
    acyclic_orientations: int
    all_subgraphs: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "spanning_trees": decimal_str(self.spanning_trees),
            "connected_spanning_subgraphs":
                decimal_str(self.connected_spanning_subgraphs),
            "spanning_forests": decimal_str(self.spanning_forests),
            "acyclic_orientations": decimal_str(self.acyclic_orientations),
            "all_subgraphs": decimal_str(self.all_subgraphs),
        }


def invariant_report(n: int) -> InvariantReport:
    """Evaluate T_n at (1,1), (1,2), (2,1), (2,0), (2,2).

    The five values count spanning trees, connected spanning subgraphs,
    spanning forests, acyclic orientations, and all edge subsets.  At an
    integer point d = e = 1, so each value is its own numerator.
    """
    return InvariantReport(
        n=n,
        spanning_trees=eval_tutte_at_point(n, 1, 1).numerator,
        connected_spanning_subgraphs=eval_tutte_at_point(n, 1, 2).numerator,
        spanning_forests=eval_tutte_at_point(n, 2, 1).numerator,
        acyclic_orientations=eval_tutte_at_point(n, 2, 0).numerator,
        all_subgraphs=eval_tutte_at_point(n, 2, 2).numerator,
    )


def spanning_trees_closed_form(n: int) -> int:
    """2^((3^(n+1)-2n-3)/4) * 3^((3^(n+1)+2n+1)/4).

    Both exponents are nonnegative integers: 3^(n+1) is 3 mod 4 for even
    n and 1 mod 4 for odd n, and 2n+3 and 2n+1 match it mod 4.
    """
    check_generation(n, MAX_TREE_COUNT_GENERATION,
                     "the closed-form tree count (bit-length grows like 3^n)")
    pow3 = 3 ** (n + 1)
    return 2 ** ((pow3 - 2 * n - 3) // 4) * 3 ** ((pow3 + 2 * n + 1) // 4)


def spanning_trees_recurrence(n: int) -> int:
    """Iterate N' = 6 N^2 P, P' = 4 N P^2 from N=3, P=1."""
    check_generation(n, MAX_TREE_COUNT_GENERATION,
                     "the tree-count recurrence (bit-length grows like 3^n)")
    trees, p = 3, 1
    for _ in range(n):
        trees, p = 6 * trees * trees * p, 4 * trees * p * p
    return trees


@dataclass(frozen=True)
class ExponentSeq:
    """Row k of the exponent sequences from unrolling the tree recurrence.

    The unrolled form is N_ST(n) = 6^(a_k) 4^(b_k) N_ST(n-k)^(c_k)
    P_(n-k)^(d_k); at k = n it collapses to 6^(a_n) 4^(b_n) 3^(c_n).
    """

    k: int
    a: int
    b: int
    c: int
    d: int


def exponent_sequences(k_max: int) -> list[ExponentSeq]:
    """Rows k = 1 .. k_max from the closed forms a = (3^k+2k-1)/4,
    b = (3^k-2k-1)/4, c = (3^k+1)/2, d = (3^k-1)/2.

    They solve a' = a + c, b' = b + d, c' = 2c + d, d' = c + 2d from
    (a, b, c, d) = (1, 0, 2, 1), the recurrence of unrolling one step.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max}")
    return [ExponentSeq(k, (3 ** k + 2 * k - 1) // 4, (3 ** k - 2 * k - 1) // 4,
                        (3 ** k + 1) // 2, (3 ** k - 1) // 2)
            for k in range(1, k_max + 1)]
