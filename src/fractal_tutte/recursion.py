"""Self-similarity recursion for the Tutte polynomial of the pseudofractal web.

The graph G(n+1) is three copies of G(n) merged at hubs, so the
rank-nullity sum over its spanning subgraphs factors through how each
copy's subgraph distributes the hubs over components.  Tracking the triple

    t1 = sum over subgraphs with all three hubs in one component,
    p, q = the two-hub-split and three-way-split sums divided by
           (x-1) and (x-1)^2,

one graph generation becomes one step.  With X = x-1 and Y = y-1 the
step is a product form,

    u = t1 + X p,   w = 2 p + X q,
    t1' = u^2 (Y u + 3 w),   p' = u w^2,   q' = w^3,

and the full polynomial is T_n = t1 + 3 X p + X^2 q.  ``psw_step`` and
``psw_assemble`` write these once with plain + and *, so the same code
runs on ``BiPoly`` (the symbolic path here) and on plain numbers (psw
reliability).  The point evaluators in ``invariants`` run the step with
its denominators multiplied out and assemble with ``psw_assemble``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly
from .errors import DomainError, SizeLimitExceeded

#: Largest generation for full symbolic computation.  Term count and
#: coefficient size both grow with 3^n; beyond this the numeric-point
#: evaluators are the intended tool.
MAX_SYMBOLIC_GENERATION = 6


@dataclass(frozen=True)
class PswTutteState:
    """(T_1, P, Q) of the pseudofractal web at one generation."""

    level: int
    t1: BiPoly
    p: BiPoly
    q: BiPoly


def initial_state() -> PswTutteState:
    """Level 0: the triangle has t1 = y + 2, p = q = 1."""
    return PswTutteState(
        level=0,
        t1=BiPoly({(0, 1): 1, (0, 0): 2}),
        p=BiPoly.one(),
        q=BiPoly.one(),
    )


def psw_step(t1, p, q, X, Y):
    """One generation of (t1, p, q) at X = x-1, Y = y-1, over any ring.

    Multiplied out this is a 20-monomial polynomial map; the product form
    needs five full-size multiplications (u^2, u^2 (Y u + 3 w), w^2,
    u w^2 and w^3).  The arguments may be BiPoly or numbers.
    """
    u = t1 + X * p
    w = 2 * p + X * q
    ww = w * w
    return u * u * (Y * u + 3 * w), u * ww, ww * w


def psw_assemble(t1, p, q, X):
    """T = t1 + 3 X p + X^2 q, over the same rings as ``psw_step``."""
    return t1 + X * (3 * p + X * q)


def step_state(s: PswTutteState) -> PswTutteState:
    """Advance (t1, p, q) by one generation."""
    t1, p, q = psw_step(s.t1, s.p, s.q, BiPoly.x_minus_1(), BiPoly.y_minus_1())
    return PswTutteState(level=s.level + 1, t1=t1, p=p, q=q)


def assemble_tutte(s: PswTutteState) -> BiPoly:
    """T_n = t1 + 3 (x-1) p + (x-1)^2 q."""
    return psw_assemble(s.t1, s.p, s.q, BiPoly.x_minus_1())


def state_at(n: int) -> PswTutteState:
    """The symbolic state after n steps from the triangle."""
    if n < 0:
        raise DomainError(f"generation must be nonnegative, got {n}")
    if n > MAX_SYMBOLIC_GENERATION:
        raise SizeLimitExceeded(
            f"symbolic recursion is limited to n <= {MAX_SYMBOLIC_GENERATION}; "
            f"use the numeric evaluators for n = {n}")
    s = initial_state()
    for _ in range(n):
        s = step_state(s)
    return s


def tutte_psw(n: int) -> BiPoly:
    """Full Tutte polynomial of the generation-n pseudofractal web."""
    return assemble_tutte(state_at(n))


def tutte_psw_json(n: int) -> dict:
    """The polynomial wrapped for file output."""
    return {"family": "psw", "n": n, "polynomial": tutte_psw(n).to_json_dict()}
