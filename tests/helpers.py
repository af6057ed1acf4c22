"""Test-only helpers: exact division of a BiPoly by (x-1)^k, a small
``UnionFind`` with a component count, loop references for the graph
module, for the Kronecker read-back and for the reliability steps, and
``tutte_json``, the json module's text of the ``tutte`` output.  The
library needs none of them; the tests use them to check divisibility
properties of the hub-class sums, the connectivity of built graphs and
the subset census, the array validation and builders of ``graphs``
against the per-edge loops they replaced, the block scan of an unsigned
Kronecker product in ``bipoly`` against a loop that reads each slot as
an int, the JSON that ``cli`` writes directly against ``json.dumps``,
exact reliability states against the steps run on ``Fraction``, the
printed Tutte polynomial against the (u, w) step run on ints mod a prime,
the oracle's shifted rank tables and integer reliability numerators
against ``BiPoly.evaluate`` at (x-1, y-1) and on ``Fraction``, and the
oracles' Tutte sums on graphs too small or too disconnected for a
HubGraph, such as K2.  ``degree_box`` reads a polynomial's degrees.
"""

import json
from fractions import Fraction

from fractal_tutte.bipoly import BiPoly
from fractal_tutte.errors import DomainError
from fractal_tutte.graphs import HubGraph
from fractal_tutte import oracle
from fractal_tutte.oracle import HubPattern
from fractal_tutte.recursion import psw_uw_step
from fractal_tutte.reliability import STEPS


def degree_box(poly: BiPoly) -> tuple[int, int]:
    """(max x-degree, max y-degree) of a nonzero polynomial's terms."""
    terms = poly.terms()
    return max(dx for dx, _ in terms), max(dy for _, dy in terms)


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


class UnionFind:
    """Union-find over 0..n-1 with path halving; ``components`` counts
    the sets."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.components -= 1


def component_count(n: int, edges) -> int:
    """Number of connected components of the graph (range(n), edges)."""
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return uf.components


# -- loop references for graphs --------------------------------------------

def reference_edges(n: int, edges, hubs) -> tuple:
    """HubGraph's validation as a per-edge loop: the sorted (min, max)
    pairs, or the DomainError that HubGraph(n, edges, hubs) raises."""
    if n < 0:
        raise DomainError(f"the vertex count must be nonnegative, got {n}")
    if n > len(edges) + 1:
        raise DomainError(f"graph is disconnected: {len(edges)} edges "
                          f"cannot connect {n} vertices")
    norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
    seen = set()
    for u, v in norm:
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u}, {v}) out of range for {n} vertices")
        if (u, v) in seen:
            raise DomainError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    if len(set(hubs)) != 3:
        raise DomainError(f"hubs must be three distinct vertices, got {hubs}")
    for h in hubs:
        if not 0 <= h < n:
            raise DomainError(f"hub {h} out of range")
    components = component_count(n, norm)
    if components != 1:
        raise DomainError(f"graph is disconnected ({components} components)")
    return tuple(norm)


def reference_edge_list(g: HubGraph) -> str:
    """``graphs.to_edge_list`` as one "%d %d" format per edge."""
    header = "{} {}\nH {} {} {}\n".format(g.num_vertices, g.num_edges, *g.hubs)
    return header + "".join(map("%d %d\n".__mod__, g.edges))


_TRIANGLE = [(0, 1), (0, 2), (1, 2)]


def reference_psw_edge_expansion(n: int) -> HubGraph:
    """G(n) with one Python append per new edge."""
    edges = list(_TRIANGLE)
    nv = 3
    for _ in range(n):
        for u, v in list(edges):
            w = nv
            nv += 1
            edges.append((u, w))
            edges.append((v, w))
    return HubGraph(nv, reference_edges(nv, edges, (0, 1, 2)), (0, 1, 2))


# Glue and new hubs as ((copy, hub slot), ...), restated from graphs.
_PSW_GLUE = ([((0, 0), (2, 1)), ((2, 0), (1, 1)), ((1, 0), (0, 1))],
             [(0, 0), (2, 0), (1, 0)])
_SG_GLUE = ([((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1))],
            [(0, 0), (1, 1), (2, 2)])


def reference_psw_copy_merge(n: int) -> HubGraph:
    return _reference_by_merging(n, *_PSW_GLUE)


def reference_sierpinski(n: int) -> HubGraph:
    return _reference_by_merging(n, *_SG_GLUE)


def _reference_by_merging(n, glue, new_hubs) -> HubGraph:
    """n rounds of a union-find merge, each level validated by the loop."""
    nv, hubs = 3, (0, 1, 2)
    edges = reference_edges(nv, _TRIANGLE, hubs)
    for _ in range(n):
        def raw(ref, nv=nv, hubs=hubs):
            copy, slot = ref
            return copy * nv + hubs[slot]

        uf = UnionFind(3 * nv)
        for left, right in glue:
            uf.union(raw(left), raw(right))
        label: dict[int, int] = {}
        for v in range(3 * nv):
            label.setdefault(uf.find(v), len(label))
        lab = [label[uf.find(v)] for v in range(3 * nv)]
        merged = [(lab[copy * nv + u], lab[copy * nv + v])
                  for copy in range(3) for u, v in edges]
        hubs = tuple(lab[raw(ref)] for ref in new_hubs)
        nv = len(label)
        edges = reference_edges(nv, merged, hubs)
    return HubGraph(nv, edges, hubs)


def reference_unpack(digits: str, w: int, stride: int, slots: int) -> dict:
    """``bipoly._unpack`` as one loop over the slots, lowest first: slot i
    is the w digits that end i*w digits from the right, or 0 past the
    start of the text."""
    out = {}
    for i in range(slots):
        end = max(len(digits) - i * w, 0)
        c = int(digits[max(end - w, 0):end] or "0")
        if c:
            out[divmod(i, stride)] = c
    return out


def tutte_json(n: int, poly: BiPoly) -> str:
    """The ``tutte`` output as ``json.dumps(indent=2)`` writes it."""
    return json.dumps({"family": "psw", "n": n,
                       "polynomial": poly.to_json_dict()}, indent=2) + "\n"


def reference_reliability_states(family: str, n: int, p):
    """(R, B, T) of generations 0..n, ``STEPS[family]`` run on Fraction
    from the triangle, one gcd per operation."""
    rbt = (p * p * (3 - 2 * p), p * (1 - p) ** 2, (1 - p) ** 3)
    states = [rbt]
    for _ in range(n):
        rbt = STEPS[family](*rbt)
        states.append(rbt)
    return states


#: The Mersenne prime 2^61 - 1, the modulus of the mod-p checks.
P61 = (1 << 61) - 1


def psw_tutte_mod(n: int, x: int, y: int, p: int = P61) -> int:
    """T_n(x, y) mod p: ``recursion.psw_uw_step`` run on ints, reduced mod
    p after each generation, from the triangle's u = x + y + 1 and
    w = x + 1, and T = U + X W.  No polynomial is built."""
    X, Y = (x - 1) % p, (y - 1) % p
    u, w = (x + y + 1) % p, (x + 1) % p
    for _ in range(n):
        u, w = (v % p for v in psw_uw_step(u, w, X, Y))
    return (u + X * w) % p


def json_terms_mod(terms, x: int, y: int, p: int = P61) -> int:
    """A polynomial's JSON terms, {"dx", "dy", "coeff"} each, evaluated at
    (x, y) mod p, one modular power product per term."""
    return sum(int(t["coeff"]) * pow(x, t["dx"], p) * pow(y, t["dy"], p)
               for t in terms) % p


# -- graphs that no HubGraph carries ---------------------------------------

def bare_census(nv: int, edges) -> oracle.Census:
    """The hubless census of a simple graph on range(nv), nv < 128, that
    no HubGraph carries: K2, a forest, a disconnected graph.  Its
    ``tutte_subgraph_sum`` is the graph's Tutte polynomial."""
    return oracle._census(nv, tuple(map(tuple, edges)), None)


def bare_deletion_contraction(edges) -> BiPoly:
    """The deletion-contraction Tutte polynomial of any simple edges."""
    return oracle._tutte_dc(tuple(map(tuple, edges)))


# -- evaluate routes for the oracle sums -----------------------------------

def rank_table_at_minus_ones(table) -> BiPoly:
    """The rank table R[a][b] as R(X, Y) at X = x-1 and Y = y-1, by
    ``BiPoly.evaluate``: Horner's rule over BiPoly products."""
    return BiPoly({(a, b): c for a, row in enumerate(table)
                   for b, c in enumerate(row)}).evaluate(
        BiPoly.x_minus_1(), BiPoly.y_minus_1())


def reference_rank_sum(c, patterns) -> BiPoly:
    """The Tutte sum of a census over the hub patterns ``patterns``: its
    counts added into R(X, Y) as a dict and evaluated at (x-1, y-1)."""
    kg = max(c.counts, key=lambda key: key[2])[1]
    rank: dict = {}
    for (pat, k, m), cnt in c.counts.items():
        if pat in patterns:
            key = (k - kg, m - c.num_vertices + k)
            rank[key] = rank.get(key, 0) + cnt
    return BiPoly(rank).evaluate(BiPoly.x_minus_1(), BiPoly.y_minus_1())


def reference_reliability(c, p: Fraction) -> tuple:
    """(R, B, T) of a hub census at p: each count polynomial, the sum of
    count p^m q^(E-m), evaluated on Fraction, one gcd per operation."""
    polys = {(HubPattern.ALL_TOGETHER, 1): {}, (HubPattern.AB_C, 2): {},
             (HubPattern.ALL_APART, 3): {}}
    for (pat, k, m), cnt in c.counts.items():
        if (pat, k) in polys:
            polys[pat, k][m, c.num_edges - m] = cnt
    return tuple(BiPoly(terms).evaluate(p, 1 - p) for terms in polys.values())
