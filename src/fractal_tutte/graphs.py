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

Every builder works on an int64 (E, 2) edge array, one whole-array pass
per generation.  Edge expansion appends the new edges of all E parents in
one interleaved block, so the new vertex nv + i belongs to the i-th edge
in creation order.  A merge offsets three copies of the array by 0, V and
2V and maps them through one label array over the 3V raw indices.  Only
the final graph becomes a ``HubGraph``, whose validation is itself a few
array passes: one ``np.sort`` of a single int64 key per pair, a scan for
equal adjacent keys, and connected components.  E edges cannot connect
more than E + 1 vertices, so a larger vertex count is refused as
disconnected before any pass, and every array is sized by E.

A ``HubGraph`` keeps its sorted (min, max) pairs as one read-only int64
(E, 2) array, ``pairs``.  ``edges``, the same pairs as a tuple of int
tuples, is a view built on first use for the per-edge oracles;
``num_edges``, ``degrees()``, equality and ``to_edge_list`` read the
array and never build it.  numpy loads when the first graph is built,
not when this module is imported.

``to_edge_list`` prints from two byte tables with one fixed-width record
per label: its digits, NUL bytes in place of leading zeros, then a space
(first table) or a newline (second table).  Each edge takes its two
records whole, by one 1-D take per column, and dropping every NUL byte
leaves the text.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from ._arrays import np
from .errors import (DomainError, SizeLimitExceeded, as_integer,
                     check_generation, shown)

#: Peak memory per edge of ``generate --n 12`` above the imported package
#: and numpy, on CPython 3.11 with numpy 2.4: 89 B for psw, reached while
#: the graph is built and validated, and 94 B for sg, reached while its
#: edge list is printed.  The tuple view ``HubGraph.edges``, built only
#: on first use, adds about 120 B per edge: a pointer, a 2-tuple and two
#: ints.
BYTES_PER_EDGE = 110

#: Largest accepted generation for any builder: 3^14 edges need about
#: 0.53 GB; one generation more needs 1.6 GB.
MAX_GENERATION = 13

_ESTIMATE = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, traps=[])

_INT64_MAX = 2 ** 63 - 1

_TRIANGLE = ((0, 1), (0, 2), (1, 2))

Edge = tuple[int, int]


@dataclass(frozen=True, eq=False)
class HubGraph:
    """A simple connected labeled graph with three distinguished hub vertices.

    ``pairs`` may be given as any iterable of int pairs or as an integer
    (E, 2) array; it is kept as the sorted (min, max) pairs in one
    read-only int64 (E, 2) array.  ``edges`` is the same pairs as a tuple
    of int tuples, built on first use.  The vertex count and the hubs are
    read by the rule of a label and kept as an int and a tuple of ints.
    Two HubGraphs compare equal iff they are the same labeled graph with
    the same hubs.
    """

    num_vertices: int
    pairs: np.ndarray
    hubs: tuple[int, int, int]

    def __post_init__(self):
        n = as_integer(self.num_vertices, "the vertex count must be an integer")
        if n < 0:
            raise DomainError("the vertex count must be nonnegative, "
                              f"got {shown(n)}")
        try:
            hubs = tuple(as_integer(h, "a hub must be an integer")
                         for h in self.hubs)
        except TypeError:  # not iterable
            raise DomainError("hubs must be three distinct vertices") from None
        pairs = _edge_array(self.pairs)
        if n > len(pairs) + 1:
            raise DomainError(f"graph is disconnected: {len(pairs)} edges "
                              f"cannot connect {shown(n)} vertices")
        pairs = simple_edges(n, pairs).T
        pairs.flags.writeable = False
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "hubs", hubs)
        if len(set(hubs)) != 3:
            raise DomainError("hubs must be three distinct vertices, "
                              f"got {shown(hubs)}")
        for h in hubs:
            if not 0 <= h < n:
                raise DomainError(f"hub {shown(h)} out of range")
        components = _component_count(n, pairs[:, 0], pairs[:, 1])
        if components != 1:
            raise DomainError(
                f"graph is disconnected ({shown(components)} components)")

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(*self.pairs.T.tolist()))

    def __eq__(self, other):
        if not isinstance(other, HubGraph):
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and self.hubs == other.hubs
                and np.array_equal(self.pairs, other.pairs))

    def __hash__(self):
        return hash((self.num_vertices, self.hubs, self.pairs.tobytes()))

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    def degrees(self) -> list[int]:
        return np.bincount(self.pairs.ravel(),
                           minlength=self.num_vertices).tolist()


def simple_edges(n: int, pairs: np.ndarray) -> np.ndarray:
    """The sorted (min, max) pairs of a simple graph on range(n), given as
    ``_edge_array``'s (E, 2) array with n <= E + 1, as rows lo and hi of
    an int64 (2, E) array, the transpose of a C-ordered (E, 2) one; the
    least pair that is a self-loop, out of range or repeated is refused
    with a ``DomainError`` that names it.

    Self-loops and out-of-range pairs are found elementwise and left out,
    so every label left is below n <= E + 1, inside int64.  The rest sort
    by one int64 key, lo * n + hi, with ``np.sort``; a repeat is two equal
    adjacent keys, and ``divmod`` gives (lo, hi) back.
    """
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    key = np.maximum(pairs[:, 0], pairs[:, 1])
    bad_pairs = []
    bad = (lo == key) | (lo < 0) | (key >= n)
    if bad.any():
        bad_pairs.append(_least_pair(lo[bad], key[bad]))
        lo, key = lo[~bad], key[~bad]
    del bad
    lo, key = lo.astype(np.int64, copy=False), key.astype(np.int64, copy=False)
    lo *= n
    key += lo
    del lo
    key.sort()
    repeat = key[1:] == key[:-1]
    if repeat.any():
        bad_pairs.append(divmod(int(key[repeat.argmax()]), n))
    del repeat
    if bad_pairs:
        u, v = min(bad_pairs)
        if u == v:
            raise DomainError(f"self-loop at vertex {shown(u)}")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({shown(u)}, {shown(v)}) out of range "
                              f"for {shown(n)} vertices")
        raise DomainError(f"duplicate edge ({shown(u)}, {shown(v)})")
    pairs = np.empty((len(key), 2), np.int64)
    np.divmod(key, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs.T


def _edge_array(edges) -> np.ndarray:
    """The pairs as one (E, 2) array: int64 (an int64 array as it is),
    or Python ints in an object array when a label does not fit int64.
    A label is read by ``errors.as_integer``: a bool, float or string is
    refused, not truncated or parsed."""
    if (isinstance(edges, np.ndarray) and edges.ndim == 2
            and edges.shape[1] == 2 and (edges.dtype.kind == "i" or (
                edges.dtype.kind == "u" and not (edges > _INT64_MAX).any()))):
        return edges.astype(np.int64, copy=False)
    try:
        pairs = edges.tolist() if isinstance(edges, np.ndarray) else list(edges)
        if not set(map(len, pairs)) <= {2}:
            raise TypeError
    except TypeError:
        raise DomainError("edges must be (u, v) pairs") from None
    labels = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, labels)) <= {int}:
        labels = [as_integer(v, "edges must be (u, v) pairs of integers")
                  for v in labels]
    try:
        return np.fromiter(labels, np.int64, len(labels)).reshape(-1, 2)
    except OverflowError:
        return np.array(labels, object).reshape(-1, 2)


def _least_pair(lo: np.ndarray, hi: np.ndarray) -> Edge:
    """The lexicographically least of the pairs (lo[i], hi[i])."""
    u = lo.min()
    return int(u), int(hi[lo == u].min())


def _component_count(n: int, lo: np.ndarray, hi: np.ndarray) -> int:
    """Connected components of (range(n), edges), with every label in
    range and n at most E + 1, so memory follows E.

    Min-label hooking: each round hangs the larger root of every edge whose
    endpoints have different roots under the smaller one, then jumps
    pointers until every label is a root.  A round strictly lowers the sum
    of the labels, so the loop ends; at exit both endpoints of every edge
    share a root, so the roots are one per component.
    """
    label = np.arange(n)
    while True:
        ru, rv = label[lo], label[hi]
        split = ru != rv
        if not split.any():
            return int(np.count_nonzero(label == np.arange(n)))
        ru, rv = ru[split], rv[split]
        np.minimum.at(label, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def check_build_generation(n: int) -> None:
    """Refuse a generation no builder takes, with the predicted size."""
    if n > MAX_GENERATION:
        edges = _ESTIMATE.power(3, n + 1)  # no float holds 3^(n+1) for all n
        nbytes = _ESTIMATE.multiply(edges, BYTES_PER_EDGE)
        raise SizeLimitExceeded(
            f"generation {shown(n)} exceeds limit {MAX_GENERATION}: "
            f"{edges:.3g} edges would need about {nbytes:.3g} bytes")
    check_generation(n, MAX_GENERATION, "graph building")


def build_psw_edge_expansion(n: int) -> HubGraph:
    """G(n) by repeated edge expansion.

    Vertex indices are stable across generations: the initial triangle is
    {0, 1, 2} and each step appends one new vertex per existing edge, in
    the order the parent edges were created.
    """
    check_build_generation(n)
    edges = np.array(_TRIANGLE, dtype=np.int64)
    nv = 3
    for _ in range(n):
        m = len(edges)
        # new[i] = ((u_i, w_i), (v_i, w_i)) with w_i = nv + i
        new = np.empty((m, 2, 2), dtype=np.int64)
        new[:, :, 0] = edges
        new[:, :, 1] = np.arange(nv, nv + m)[:, None]
        edges = np.concatenate((edges, new.reshape(-1, 2)))
        nv += m
    return HubGraph(nv, edges, (0, 1, 2))


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
    """The triangle, then n rounds of three copies glued at hubs given as
    (copy, hub slot); the glued pairs are disjoint."""
    check_build_generation(n)
    edges = np.array(_TRIANGLE, dtype=np.int64)
    nv, hubs = 3, (0, 1, 2)
    for _ in range(n):
        # Copy i takes raw indices [i*nv, (i+1)*nv).  A glued pair keeps the
        # label of its smaller raw index, and labels are ranks among the
        # kept indices: the scan-order relabeling of the module docstring.
        pairs = [sorted((i * nv + hubs[s], j * nv + hubs[t]))
                 for (i, s), (j, t) in glue]
        keep = np.ones(3 * nv, dtype=bool)
        keep[[hi for _, hi in pairs]] = False
        label = np.cumsum(keep) - 1
        for lo, hi in pairs:
            label[hi] = label[lo]
        edges = label[(edges + (np.arange(3) * nv)[:, None, None]).reshape(-1, 2)]
        hubs = tuple(int(label[i * nv + hubs[s]]) for i, s in new_hubs)
        nv = 3 * nv - len(glue)
    return HubGraph(nv, edges, hubs)


def degree_histogram(g: HubGraph) -> dict[int, int]:
    """Map degree -> number of vertices of that degree."""
    return dict(sorted(Counter(g.degrees()).items()))


# -- edge-list text format -------------------------------------------------

def to_edge_list(g: HubGraph) -> str:
    """Serialize: "V E" header, "H a b c" hub line, then sorted "u v" lines.

    Row v of a byte table is label v's record of w + 1 bytes, w the digit
    count of V - 1: its digits right-aligned, NUL bytes in place of
    leading zeros, then a space; a copy ends its records in a newline.
    Seen as one numpy void item per record, each table gives every edge
    the record of one endpoint by a 1-D take, and one compaction of the
    non-NUL bytes (no printed byte is NUL) joins the lines.
    """
    header = "{} {}\nH {} {} {}\n".format(g.num_vertices, g.num_edges, *g.hubs)
    nv = g.num_vertices
    width = len(str(nv - 1))
    label = np.arange(nv, dtype=np.min_scalar_type(nv - 1))
    first = np.empty((nv, width + 1), np.uint8)
    for j in reversed(range(width)):
        first[:, j] = label % 10 + ord("0")
        label //= 10
    for k in range(1, width):
        first[:10 ** k, width - 1 - k] = 0  # no such digit below 10^k
    first[:, width] = ord(" ")
    second = first.copy()
    second[:, width] = ord("\n")
    record = np.dtype((np.void, width + 1))
    text = np.empty((g.num_edges, 2), record)
    for column, table in enumerate((first, second)):
        text[:, column] = table.view(record)[:, 0][g.pairs[:, column]]
    data = text.view(np.uint8)
    return header + data[data != 0].tobytes().decode("ascii")


def psw_vertex_count(n: int) -> int:
    """V_n = (3^(n+1) + 3) / 2."""
    check_generation(n, math.inf, "vertex count")
    return (3 ** (n + 1) + 3) // 2


def psw_edge_count(n: int) -> int:
    """E_n = 3^(n+1)."""
    check_generation(n, math.inf, "edge count")
    return 3 ** (n + 1)
