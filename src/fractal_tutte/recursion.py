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
factors X and Y are linear passes.  No factor of a full-size product has
a negative coefficient (checked through n = 6), so on ``BiPoly`` they all
run as unsigned Kronecker products.  ``psw_state`` is the one runner of
it over any ring: on ``BiPoly`` for the polynomial (``tutte_psw``), and
on integers for every exact point (``invariants.eval_tutte_at_point``,
``reliability.psw_rel_via_tutte``), with a scale that multiplies out the
denominators of X and Y.  ``psw_step`` stays as the hub-class map: psw
reliability runs it at X = 0, Y = 1, and the tests derive the (u, w)
step from it.
"""

from __future__ import annotations

import math

from .bipoly import BiPoly
from .errors import check_generation

#: Largest generation for full symbolic computation.  Term count and
#: coefficient size both grow with 3^n; beyond this the numeric-point
#: evaluators are the intended tool.
MAX_SYMBOLIC_GENERATION = 6


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
    w' = w^2 (2 c u + c X w), which ``psw_state`` runs on the numerators
    of X and Y, with c the product of their denominators.
    """
    ww, cX = w * w, c * X
    return u * (u * (Y * u + 3 * c * w) + cX * ww), ww * (2 * c * u + cX * w)


def psw_state(n: int, a, b, d=1, e=1):
    """(U, W) after n steps from the triangle at X = a/d, Y = b/e.

    u = U/D and w = d W/D, with D_0 = e d^2 and D' = e D^3, so
    (U, W) = (u, w) at d = e = 1.  a and b may be BiPoly or numbers.
    One generation is ``psw_uw_step`` at a, b with scale d e:
    U' = U (U (b U + 3 d e W) + a d e W^2) and W' = d e W^2 (2 U + a W).
    """
    check_generation(n, math.inf, "the psw state")
    U, W = d * (d * b + 3 * d * e + a * e), e * (2 * d + a)
    for _ in range(n):
        U, W = psw_uw_step(U, W, a, b, d * e)
    return U, W


def tutte_psw(n: int) -> BiPoly:
    """Full Tutte polynomial of the generation-n pseudofractal web,
    T_n = u + (x-1) w."""
    check_generation(n, MAX_SYMBOLIC_GENERATION,
                     "the symbolic polynomial (terms and coefficient digits "
                     "grow like 3^n)")
    X = BiPoly.x_minus_1()
    u, w = psw_state(n, X, BiPoly.y_minus_1())
    return u + X * w


def tutte_psw_json(n: int) -> dict:
    """The polynomial wrapped for file output."""
    return {"family": "psw", "n": n, "polynomial": tutte_psw(n).to_json_dict()}
