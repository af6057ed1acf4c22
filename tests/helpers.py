"""Test-only helpers: exact division of a BiPoly by (x-1)^k, and a
union-find component count.  The library needs neither; the tests use them
to check divisibility properties of the hub-class sums and the
connectivity of built graphs.
"""

from fractal_tutte.bipoly import BiPoly
from fractal_tutte.unionfind import UnionFind


class NonDivisible(ArithmeticError):
    """Exact division by (x - 1) left a nonzero remainder.

    The divisibility of the hub-partition polynomials by powers of (x - 1)
    is a theorem, so for those this means a bug, never bad input.
    """


def div_exact_xminus1(poly: BiPoly, k: int) -> BiPoly:
    """Divide exactly by (x-1)^k; NonDivisible if a remainder appears.

    Runs k rounds of synthetic division in x, treating each coefficient
    as a univariate polynomial in y.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    terms = poly.terms()
    for _ in range(k):
        terms = _synthetic_divide_once(terms)
    return BiPoly(terms)


def _synthetic_divide_once(terms: dict) -> dict:
    """One synthetic-division round by (x - 1) over y-polynomial columns."""
    if not terms:
        return {}
    columns: dict[int, dict[int, int]] = {}
    for (dx, dy), c in terms.items():
        columns.setdefault(dx, {})[dy] = c
    out = {}
    carry: dict[int, int] = {}
    for dx in range(max(columns), 0, -1):
        for dy, c in columns.get(dx, {}).items():
            s = carry.get(dy, 0) + c
            if s:
                carry[dy] = s
            else:
                carry.pop(dy, None)
        for dy, c in carry.items():
            out[(dx - 1, dy)] = c
    remainder = dict(carry)
    for dy, c in columns.get(0, {}).items():
        s = remainder.get(dy, 0) + c
        if s:
            remainder[dy] = s
        else:
            remainder.pop(dy, None)
    if remainder:
        raise NonDivisible(
            f"polynomial is not divisible by (x - 1): remainder has "
            f"{len(remainder)} term(s)")
    return out


def component_count(n: int, edges) -> int:
    """Number of connected components of the graph (range(n), edges)."""
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return uf.components
