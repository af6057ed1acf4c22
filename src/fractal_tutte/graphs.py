"""Generators for the pseudofractal scale-free web and the Sierpinski gasket.

Both families start from a triangle, G(0) = SG(0) = K3, and satisfy
V_n = (3^(n+1) + 3) / 2 and E_n = 3^(n+1).

The pseudofractal web G(n) has two equivalent constructions:

* edge expansion: every edge (u, v) of G(n) spawns a new vertex joined to
  both u and v, giving G(n+1);
* copy merge: take three copies of G(n) with hub triples (A_i, B_i, C_i)
  and identify A_1 with B_3, A_3 with B_2, and A_2 with B_1; the three
  merged vertices are the hubs (A, B, C) of G(n+1).

Edge expansion is the canonical generator here; the copy merge exists so
the two can be cross-validated (degree sequences, invariant values).  The
two constructions give isomorphic graphs but not identical labelings, and
no isomorphism check is attempted.

The Sierpinski gasket SG(n+1) also glues three copies of SG(n), but corner
to corner: picture copy 1 on top, copy 2 bottom-left, copy 3 bottom-right;
each pair of copies shares one corner, and the three unshared outer corners
(A_1, B_2, C_3) become the hubs of SG(n+1).

Labeling convention for both merge constructions: copy i (i = 0, 1, 2)
occupies the index block [i*V, (i+1)*V) before merging, and the merged
graph is relabeled compactly by scanning those indices in increasing order,
so copy 0 always keeps its labels.  No labeling is canonical for these
families; this one is chosen for reproducible edge files.
"""

from __future__ import annotations

import decimal
import math
from collections import Counter
from dataclasses import dataclass

from .errors import DomainError, SizeLimitExceeded, check_generation
from .unionfind import UnionFind

#: Peak memory per edge of the builders, measured at n = 10 and 11 on
#: CPython 3.11 (edge expansion about 300 B, gasket and copy merge 420 B).
BYTES_PER_EDGE = 420

#: Largest accepted generation for any builder: 3^14 edges need about
#: 2 GB; one generation more needs 6 GB.
MAX_GENERATION = 13

_ESTIMATE = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, traps=[])

Edge = tuple[int, int]


@dataclass(frozen=True)
class HubGraph:
    """A simple connected labeled graph with three distinguished hub vertices.

    Edges are normalized to (min, max) pairs and sorted; two HubGraphs
    compare equal iff they are the same labeled graph with the same hubs.
    ``generation`` records which n a builder produced, or None for graphs
    from other sources (parsed files, hand-built test graphs).
    """

    num_vertices: int
    edges: tuple[Edge, ...]
    hubs: tuple[int, int, int]
    generation: int | None = None

    def __post_init__(self):
        norm = sorted((u, v) if u < v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", tuple(norm))
        n = self.num_vertices
        seen: set[Edge] = set()
        for u, v in self.edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) out of range for {n} vertices")
            if (u, v) in seen:
                raise DomainError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if len(set(self.hubs)) != 3:
            raise DomainError(f"hubs must be three distinct vertices, got {self.hubs}")
        for h in self.hubs:
            if not 0 <= h < n:
                raise DomainError(f"hub {h} out of range")
        uf = UnionFind(n)
        for u, v in self.edges:
            uf.union(u, v)
        if uf.components != 1:
            raise DomainError(
                f"graph is disconnected ({uf.components} components)")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _check_generation(n: int) -> None:
    if n > MAX_GENERATION:
        edges = _ESTIMATE.power(3, n + 1)  # no float holds 3^(n+1) for all n
        nbytes = _ESTIMATE.multiply(edges, BYTES_PER_EDGE)
        raise SizeLimitExceeded(
            f"generation {n} exceeds limit {MAX_GENERATION}: {edges:.3g} "
            f"edges would need about {nbytes:.3g} bytes")
    check_generation(n, MAX_GENERATION, "graph building")


def build_psw_edge_expansion(n: int) -> HubGraph:
    """G(n) by repeated edge expansion.

    Vertex indices are stable across generations: the initial triangle is
    {0, 1, 2} and each step appends one new vertex per existing edge, in
    the order the parent edges were created.
    """
    _check_generation(n)
    edges: list[Edge] = [(0, 1), (0, 2), (1, 2)]
    nv = 3
    for _ in range(n):
        for u, v in list(edges):
            w = nv
            nv += 1
            edges.append((u, w))
            edges.append((v, w))
    return HubGraph(nv, tuple(edges), (0, 1, 2), generation=n)


_A, _B, _C = 0, 1, 2  # hub slots


def build_psw_copy_merge(n: int) -> HubGraph:
    """G(n) by merging three copies of G(n-1) at their hubs.

    Copies 1, 2, 3 with hubs (A_i, B_i, C_i) are joined by identifying
    A_1 ~ B_3 -> hub A, A_3 ~ B_2 -> hub B, A_2 ~ B_1 -> hub C.  The C
    hubs of the copies become ordinary interior vertices.
    """
    return _build_by_merging(
        n, glue=[((0, _A), (2, _B)), ((2, _A), (1, _B)), ((1, _A), (0, _B))],
        new_hubs=[(0, _A), (2, _A), (1, _A)])


def build_sierpinski(n: int) -> HubGraph:
    """SG(n): three copies of SG(n-1) glued pairwise at corner vertices.

    With copies 1 (top), 2 (bottom-left), 3 (bottom-right) and corner
    triples (A_i, B_i, C_i): B_1 ~ A_2, C_1 ~ A_3, C_2 ~ B_3 are glued,
    and the outer corners (A_1, B_2, C_3) are the hubs of SG(n).
    """
    return _build_by_merging(
        n, glue=[((0, _B), (1, _A)), ((0, _C), (2, _A)), ((1, _C), (2, _B))],
        new_hubs=[(0, _A), (1, _B), (2, _C)])


def _build_by_merging(n, glue, new_hubs) -> HubGraph:
    """The triangle, then n rounds of ``_merge_three_copies``."""
    _check_generation(n)
    g = HubGraph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2), generation=0)
    for level in range(1, n + 1):
        g = _merge_three_copies(g, glue, new_hubs, level)
    return g


def _merge_three_copies(
    g: HubGraph,
    glue: list[tuple[tuple[int, int], tuple[int, int]]],
    new_hubs: list[tuple[int, int]],
    level: int,
) -> HubGraph:
    """Three copies of g with hub identifications given as (copy, hub slot)."""
    nv = g.num_vertices

    def raw(ref: tuple[int, int]) -> int:
        copy, slot = ref
        return copy * nv + g.hubs[slot]

    uf = UnionFind(3 * nv)
    for left, right in glue:
        uf.union(raw(left), raw(right))

    label: dict[int, int] = {}
    for v in range(3 * nv):
        root = uf.find(v)
        if root not in label:
            label[root] = len(label)

    def lab(v: int) -> int:
        return label[uf.find(v)]

    edges = [
        (lab(copy * nv + u), lab(copy * nv + v))
        for copy in range(3)
        for u, v in g.edges
    ]
    hubs = tuple(lab(raw(ref)) for ref in new_hubs)
    return HubGraph(len(label), tuple(edges), hubs, generation=level)


def degree_histogram(g: HubGraph) -> dict[int, int]:
    """Map degree -> number of vertices of that degree."""
    return dict(sorted(Counter(g.degrees()).items()))


# -- edge-list text format -------------------------------------------------

def to_edge_list(g: HubGraph) -> str:
    """Serialize: "V E" header, "H a b c" hub line, then sorted "u v" lines."""
    lines = [f"{g.num_vertices} {g.num_edges}",
             "H {} {} {}".format(*g.hubs)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def from_edge_list(text: str, generation: int | None = None) -> HubGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) < 2:
        raise DomainError("edge-list input too short: need header and hub line")
    try:
        nv, ne = map(int, lines[0].split())
    except ValueError:
        raise DomainError(f"bad header line: {lines[0]!r}") from None
    tag, *hub_parts = lines[1].split()
    try:
        hubs = tuple(int(h) for h in hub_parts)
    except ValueError:
        hubs = ()
    if tag != "H" or len(hubs) != 3:
        raise DomainError(f"bad hub line: {lines[1]!r}")
    if len(lines) - 2 != ne:
        raise DomainError(
            f"header promises {ne} edges but {len(lines) - 2} lines follow")
    edges = []
    for ln in lines[2:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise DomainError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    return HubGraph(nv, tuple(edges), hubs, generation=generation)


def psw_vertex_count(n: int) -> int:
    """V_n = (3^(n+1) + 3) / 2."""
    check_generation(n, math.inf, "vertex count")
    return (3 ** (n + 1) + 3) // 2


def psw_edge_count(n: int) -> int:
    """E_n = 3^(n+1)."""
    check_generation(n, math.inf, "edge count")
    return 3 ** (n + 1)
