"""Self-similarity recursion for the Tutte polynomial of the pseudofractal web.

The graph G(n+1) is three copies of G(n) merged at hubs, so the
rank-nullity sum over its spanning subgraphs factors through how each
copy's subgraph distributes the hubs over components.  With X = x-1 and
Y = y-1, the hub-class triple

    t1 = sum over subgraphs with all three hubs in one component,
    p, q = the two-hub-split and three-way-split sums divided by
           X and X^2,

takes one generation in the product form ``psw_step``,

    u = t1 + X p,   w = 2 p + X q,
    t1' = u^2 (Y u + 3 w),   p' = u w^2,   q' = w^3,

and T_n = t1 + 3 X p + X^2 q.  The triple reaches the next generation
only through u, the sum over subgraphs that join hubs A and B, and X w,
the sum over those that do not, so the recursion carries (u, w) alone:

    u' = u (u (Y u + 3 w) + X w^2),   w' = w^2 (2 u + X w),

from u = x + y + 1, w = x + 1 at the triangle, with T_n = u + X w.
``psw_uw_step`` is that step with plain + and *: four full-size products
per generation (w^2, u (Y u + 3 w), u (...) and w^2 (2 u + X w)); the
factors X and Y are linear passes.  It runs on ``BiPoly`` here, and the
point evaluators in ``invariants`` run it on integers, with a scale c
that multiplies out the denominators of X and Y.  ``psw_step`` stays as
the hub-class map: psw reliability runs it at X = 0, Y = 1, and the
tests derive the (u, w) step from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly
from .errors import check_generation

#: Largest generation for full symbolic computation.  Term count and
#: coefficient size both grow with 3^n; beyond this the numeric-point
#: evaluators are the intended tool.
MAX_SYMBOLIC_GENERATION = 6


@dataclass(frozen=True)
class PswTutteState:
    """(u, w) of the pseudofractal web at one generation."""

    level: int
    u: BiPoly
    w: BiPoly


def psw_step(t1, p, q, X, Y):
    """One generation of (t1, p, q) at X = x-1, Y = y-1, over any ring.

    The arguments may be BiPoly or numbers.
    """
    u = t1 + X * p
    w = 2 * p + X * q
    ww = w * w
    return u * u * (Y * u + 3 * w), u * ww, ww * w


def psw_uw_step(u, w, X, Y, c=1):
    """One generation of (u, w) at X = x-1, Y = y-1, over any ring.

    With a scale c it is u' = u (u (Y u + 3 c w) + c X w^2) and
    w' = w^2 (2 c u + c X w), which ``invariants.scaled_state`` runs on
    the numerators of X and Y, with c the product of their denominators.
    """
    ww, cX = w * w, c * X
    return u * (u * (Y * u + 3 * c * w) + cX * ww), ww * (2 * c * u + cX * w)


def assemble_tutte(s: PswTutteState) -> BiPoly:
    """T_n = u + (x-1) w."""
    return s.u + BiPoly.x_minus_1() * s.w


def state_at(n: int) -> PswTutteState:
    """The symbolic state after n steps from the triangle."""
    check_generation(n, MAX_SYMBOLIC_GENERATION,
                     "the symbolic polynomial (terms and coefficient digits "
                     "grow like 3^n)")
    X, Y = BiPoly.x_minus_1(), BiPoly.y_minus_1()
    u = BiPoly({(1, 0): 1, (0, 1): 1, (0, 0): 1})
    w = BiPoly({(1, 0): 1, (0, 0): 1})
    for _ in range(n):
        u, w = psw_uw_step(u, w, X, Y)
    return PswTutteState(level=n, u=u, w=w)


def tutte_psw(n: int) -> BiPoly:
    """Full Tutte polynomial of the generation-n pseudofractal web."""
    return assemble_tutte(state_at(n))


def tutte_psw_json(n: int) -> dict:
    """The polynomial wrapped for file output."""
    return {"family": "psw", "n": n, "polynomial": tutte_psw(n).to_json_dict()}
