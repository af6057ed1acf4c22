"""Brute-force ground truth for small graphs.

Everything in this module computes invariants from first principles, with
no reliance on the self-similarity recursions, so that the recursion
engine can be validated against it:

* ``tutte_subgraph_sum``: the defining rank-nullity sum over all 2^|E|
  edge subsets;
* ``partition_subgraph_sum``: the same sum split by how the three hub
  vertices distribute over connected components;
* ``tutte_deletion_contraction``: the classical recursive algorithm, an
  algorithmically independent second witness;
* ``matrix_tree_count``: spanning trees via an exact integer Laplacian
  cofactor (fraction-free elimination, with no row swaps);
* ``reliability_enumeration``: exact all-terminal reliability and the
  probabilities of the {A,B} | {C} split and of three hub components.

Every oracle takes simple graphs only: a ``HubGraph`` is checked where it
is built, and a bare pair by the same ``graphs.simple_edges``.  The three
subset sums read one ``Census`` of a graph (``census(g)``), or take their
own from the graph.  It is built in numpy by doubling: a table holds the
component labels of every subset of the edges seen so far, and each
further edge doubles it (the subsets without the edge, and a copy with
its two components merged).  Past 2^14 subsets the remaining edges are
walked depth-first over copies of the table.  The 2^27 subsets of the
generation-2 web take seconds.  numpy loads at the first graph or
census, not when this module is imported.  The polynomial sums add the
counts into the rank polynomial R(X, Y) = sum of count X^corank
Y^nullity and evaluate it at (x-1, y-1) with ``BiPoly.evaluate``.
Reliability is the same evaluator on the count polynomial
sum of count p^m q^(E-m), at (p, 1-p).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

from ._arrays import np
from .bipoly import BiPoly
from .errors import DomainError, SizeLimitExceeded, shown
from .graphs import HubGraph, simple_edges
from .scalars import as_probability

MAX_SUBSET_EDGES = 27
MAX_DC_EDGES = 12
MAX_MATRIX_TREE_VERTICES = 64


class HubPattern(IntEnum):
    """How the three hubs A, B, C fall into connected components.

    ``AB_C`` means A and B share a component while C lies in a different
    one, and so on; the integer values index histogram buckets.
    """

    ALL_TOGETHER = 0
    BC_A = 1
    AC_B = 2
    AB_C = 3
    ALL_APART = 4


GraphLike = HubGraph | tuple[int, list[tuple[int, int]]]


#: Each oracle's size limit, by the name its refusal gives.
_LIMITS = {"enumeration": (MAX_SUBSET_EDGES, "edges"),
           "recursion": (MAX_DC_EDGES, "edges"),
           "matrix-tree": (MAX_MATRIX_TREE_VERTICES, "vertices")}


def check_size(name: str, num_vertices: int, num_edges: int) -> None:
    """The size guard of every oracle, by ``_LIMITS`` name; it reads sizes
    only, so a caller can ask it before building the graph."""
    limit, of = _LIMITS[name]
    size = num_edges if of == "edges" else num_vertices
    if size > limit:
        raise SizeLimitExceeded(
            f"{shown(size)} {of} exceed the {name} limit {limit}")


def _vertices_edges(g, name: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A HubGraph's (num_vertices, edges) as they are, or a bare
    (num_vertices, edges) pair checked by ``graphs.simple_edges``.  A
    graph too large for the oracle ``name`` is refused by ``check_size``:
    a HubGraph before its edge tuples are built, a bare pair once checked.

    The bare form exists because the Tutte oracles do not care about hubs,
    and useful test graphs (a single edge, a path) are too small to carry
    three distinct hub vertices.
    """
    if isinstance(g, HubGraph):
        nv, ne = g.num_vertices, g.num_edges
    else:
        nv, edges = g
        lo, hi = simple_edges(nv, edges)
        ne = len(lo)
    check_size(name, nv, ne)
    if isinstance(g, HubGraph):
        return nv, g.edges
    return nv, tuple(zip(lo.tolist(), hi.tolist()))


# -- classified subset census ----------------------------------------------

#: The census table stops doubling at 2^_BATCH_BITS subsets of the first
#: edges; later edges are walked depth-first over copies of it.
_BATCH_BITS = 14

#: HubPattern by 4*[A~B] + 2*[A~C] + [B~C]; the -1 entries cannot occur.
_PATTERN_BY_EQUALITIES = (
    HubPattern.ALL_APART, HubPattern.BC_A, HubPattern.AC_B, -1,
    HubPattern.AB_C, -1, -1, HubPattern.ALL_TOGETHER)


def _census(nv, edges, hubs) -> Census:
    """The census of a simple graph of at most ``MAX_SUBSET_EDGES`` edges:
    (pattern, k, m) -> number of subsets.

    Only the vertices an edge or a hub touches are indexed; every other
    vertex is a component of its own in every subset.  For each subset of
    the edges added so far the table holds every indexed vertex's label,
    the smallest index in its component (``labels[v]`` is one array over
    the subsets), and the key k * (ne + 1) + m of the subset's component
    count k and edge count m.  Adding an edge doubles the table: the old
    subsets leave it out, and a copy with its two components merged
    (larger label -> smaller, k down by one if they differ) puts it in.
    """
    ne = len(edges)
    # At most 2 * 27 + 3 indices, so int8 labels suffice.
    index = {v: i for i, v in enumerate(
        sorted({v for e in edges for v in e} | set(hubs or ())))}
    ends = [(index[u], index[v]) for u, v in edges]
    k_step = ne + 1
    span = (len(index) + 1) * k_step
    totals = np.zeros(5 * span, dtype=np.int64)
    pattern_by_equalities = np.array(_PATTERN_BY_EQUALITIES)

    def merge(labels, keys, u, v):
        lu, lv = labels[u], labels[v]
        hi = np.maximum(lu, lv)
        merged = labels - (labels == hi) * (hi - np.minimum(lu, lv))
        return merged, keys + 1 - k_step * (lu != lv)

    def tally(labels, keys):
        if hubs is not None:
            a, b, c = (labels[index[h]] for h in hubs)
            eq = 4 * (a == b) + 2 * (a == c) + (b == c)
            keys = keys + span * pattern_by_equalities[eq]
        totals[:] += np.bincount(keys, minlength=5 * span)

    def walk(labels, keys, i):
        if i == ne:
            tally(labels, keys)
            return
        walk(labels, keys, i + 1)
        walk(*merge(labels, keys, *ends[i]), i + 1)

    labels = np.arange(len(index), dtype=np.int8)[:, None]
    keys = np.full(1, len(index) * k_step, dtype=np.int64)
    split = min(ne, _BATCH_BITS)
    for u, v in ends[:split]:
        merged, merged_keys = merge(labels, keys, u, v)
        labels = np.concatenate((labels, merged), axis=1)
        keys = np.concatenate((keys, merged_keys))
    walk(labels, keys, split)

    counts: Counter = Counter()
    for key in np.nonzero(totals)[0]:
        pat, rem = divmod(int(key), span)
        k, m = divmod(rem, k_step)
        counts[(pat, k + nv - len(index), m)] = int(totals[key])
    return Census(nv, edges, hubs, counts)


@dataclass(frozen=True)
class Census:
    """One count of a graph's edge subsets: ``counts`` maps (pattern, k, m)
    to the number of subsets with m edges, k components and hub pattern
    ``pattern`` (0 throughout when ``hubs`` is None)."""

    num_vertices: int
    edges: tuple
    hubs: tuple | None
    counts: Counter

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def census(g: GraphLike) -> Census:
    """The census of g, keyed by hub pattern if g is a HubGraph."""
    return _census(*_vertices_edges(g, "enumeration"),
                   getattr(g, "hubs", None))


def _hub_census(g, what: str) -> Census:
    """The hub-keyed census of g; a g without hubs is refused uncounted."""
    if getattr(g, "hubs", None) is None:
        raise DomainError(f"{what} needs hub labels; pass a HubGraph")
    return g if isinstance(g, Census) else census(g)


def _poly_from_census(nv, counts, patterns) -> BiPoly:
    """Sum of (x-1)^(r(G) - r(H)) (y-1)^(n(H)) over the chosen patterns:
    the rank polynomial R(X, Y) of the counts, at X = x-1 and Y = y-1."""
    # G itself is the one subset with the most edges.
    kg = max(counts, key=lambda key: key[2])[1]
    rank_poly: Counter = Counter()
    for (pat, k, m), cnt in counts.items():
        if pat in patterns:
            # corank r(G) - r(H) = (nv - kg) - (nv - k), nullity of H
            rank_poly[k - kg, m - nv + k] += cnt
    return BiPoly(rank_poly).evaluate(BiPoly.x_minus_1(), BiPoly.y_minus_1())


# -- public oracles --------------------------------------------------------

def tutte_subgraph_sum(g: GraphLike | Census) -> BiPoly:
    """Tutte polynomial by the defining sum over all edge subsets.

    Hub information is ignored: a bare (num_vertices, edges) pair works, a
    graph is counted without hub patterns, and a Census is summed over all
    its patterns.
    """
    c = g if isinstance(g, Census) else _census(
        *_vertices_edges(g, "enumeration"), None)
    return _poly_from_census(c.num_vertices, c.counts, set(HubPattern))


def partition_subgraph_sum(
    g: HubGraph | Census,
) -> tuple[BiPoly, BiPoly, BiPoly, BiPoly, BiPoly]:
    """The subgraph sum restricted to each hub pattern class.

    Returns (T1, T2A, T2B, T2C, T3) where T1 sums subgraphs whose hubs
    share a component, T2A those with hub A separated from B and C (and
    likewise T2B, T2C), and T3 those with all hubs apart.  The five parts
    add up to tutte_subgraph_sum(g).
    """
    c = _hub_census(g, "the partition sum")
    return tuple(_poly_from_census(c.num_vertices, c.counts, {pat})
                 for pat in HubPattern)


def tutte_deletion_contraction(g: GraphLike) -> BiPoly:
    """Tutte polynomial by deletion-contraction.

    Input must be a simple graph (contractions create multi-edges and
    loops internally, which the recursion handles, but handing in a
    multigraph would make the cross-check against the subset oracle
    ill-defined).
    """
    return _tutte_dc(_vertices_edges(g, "recursion")[1])


def _tutte_dc(edges: tuple) -> BiPoly:
    if not edges:
        return BiPoly.one()
    (u, v), rest = edges[0], edges[1:]
    if u == v:
        return BiPoly.y() * _tutte_dc(rest)
    # Grow the vertices that the other edges reach from u.
    reach, grew = {u}, True
    while grew and v not in reach:
        grew = False
        for a, b in rest:
            if (a in reach) != (b in reach):
                reach.update((a, b))
                grew = True
    contracted = tuple(
        (u if a == v else a, u if b == v else b) for a, b in rest)
    if v not in reach:
        # Bridge: only the contraction survives, weighted by x.
        return BiPoly.x() * _tutte_dc(contracted)
    return _tutte_dc(rest) + _tutte_dc(contracted)


def matrix_tree_count(g: GraphLike) -> int:
    """Spanning trees as a Laplacian cofactor, exactly over the integers."""
    nv, edges = _vertices_edges(g, "matrix-tree")
    if nv <= 1:
        return 1
    lap = [[0] * nv for _ in range(nv)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_det(minor)


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a positive semidefinite integer matrix (a reduced
    Laplacian) by fraction-free elimination.  Pivot k is the leading
    principal minor of order k + 1; if it is 0, so is a diagonal entry
    of the semidefinite Schur complement, hence its column, and the
    determinant: no row swap is ever needed."""
    n = len(m)
    m = [row[:] for row in m]
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k]
        if pivot == 0:
            return 0
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return m[n - 1][n - 1]


def reliability_enumeration(
    g: HubGraph | Census, p: Fraction | int
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (R, B, T) at edge probability p by enumerating all edge states.

    R is the probability that the operational edges connect every vertex;
    B is the probability that they leave exactly two components, one
    containing hubs A and B and the other containing hub C; T is the
    probability that they leave exactly three components, one hub in each.
    p is read by ``scalars.as_probability``, as the recursions read it.
    """
    p = as_probability(p)
    c = _hub_census(g, "reliability enumeration")
    # (hub pattern, component count) of R, B and T -> sum of cnt p^m q^(E-m)
    polys = {key: {} for key in ((HubPattern.ALL_TOGETHER, 1),
                                 (HubPattern.AB_C, 2),
                                 (HubPattern.ALL_APART, 3))}
    for (pat, k, m), cnt in c.counts.items():
        if (pat, k) in polys:
            polys[pat, k][m, c.num_edges - m] = cnt
    return tuple(BiPoly(terms).evaluate(p, 1 - p) for terms in polys.values())
