"""Ground-truth oracles: subset census, deletion-contraction, matrix-tree,
and reliability enumeration, cross-checked against each other.

Everything here is exponential-time and independent of the recursion code,
so agreement between any two oracles on the same graph is strong evidence
both are right.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fractal_tutte import oracle
from fractal_tutte.bipoly import BiPoly
from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import (
    HubGraph,
    build_psw_edge_expansion,
    build_sierpinski,
)
from fractal_tutte.oracle import (
    MAX_DC_EDGES,
    MAX_MATRIX_TREE_VERTICES,
    MAX_SUBSET_EDGES,
    HubPattern,
    census,
    matrix_tree_count,
    partition_subgraph_sum,
    reliability_enumeration,
    tutte_deletion_contraction,
    tutte_subgraph_sum,
)
from helpers import (
    UnionFind,
    bare_census,
    bare_deletion_contraction,
    div_exact_xminus1,
    rank_table_at_minus_ones,
    reference_rank_sum,
    reference_reliability,
)

X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.one()

TRIANGLE = [(0, 1), (0, 2), (1, 2)]
K3 = HubGraph(3, TRIANGLE, (0, 1, 2))
#: K3 as a bare (num_vertices, edges) pair, which no oracle takes.
BARE_K3 = (3, TRIANGLE)


def _random_connected(rng, nv, extra):
    """Random spanning tree plus `extra` distinct chords."""
    edges = set()
    for v in range(1, nv):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    pool = [(u, v) for u in range(nv) for v in range(u + 1, nv)
            if (u, v) not in edges]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return (nv, sorted(edges))


# -- known polynomials ------------------------------------------------------


def test_triangle_tutte():
    expect = X * X + X + Y
    assert tutte_subgraph_sum(K3) == expect
    assert tutte_deletion_contraction(K3) == expect


def test_single_edge_tutte():
    # K2 has no three hubs, so it is counted without a HubGraph.
    assert tutte_subgraph_sum(bare_census(2, [(0, 1)])) == X
    assert bare_deletion_contraction([(0, 1)]) == X


def test_path_tutte_is_x_power():
    p4 = HubGraph(4, [(0, 1), (1, 2), (2, 3)], (0, 1, 3))
    assert tutte_subgraph_sum(p4) == X ** 3


def test_cycle_tutte():
    c4 = HubGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], (0, 1, 2))
    assert tutte_subgraph_sum(c4) == X ** 3 + X ** 2 + X + Y


def test_k4_tutte():
    k4 = HubGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                  (0, 1, 2))
    expect = BiPoly({
        (3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4,
        (0, 1): 2, (0, 2): 3, (0, 3): 1,
    })
    assert tutte_subgraph_sum(k4) == expect
    assert tutte_deletion_contraction(k4) == expect


def test_generation_one_tutte_evaluations():
    t = tutte_subgraph_sum(build_psw_edge_expansion(1))
    one, two = Fraction(1), Fraction(2)
    assert t.eval_exact(one, one) == 54
    assert t.eval_exact(two, one) == 279
    assert t.eval_exact(one, two) == 160
    assert t.eval_exact(two, Fraction(0)) == 162
    assert t.eval_exact(two, two) == 512


# -- the two exhaustive oracles agree everywhere ---------------------------


def test_deletion_contraction_matches_subset_sum_on_families():
    for g in (build_psw_edge_expansion(0), build_psw_edge_expansion(1),
              build_sierpinski(1)):
        assert tutte_deletion_contraction(g) == tutte_subgraph_sum(g)


def test_deletion_contraction_matches_subset_sum_random():
    rng = random.Random(20260823)
    graphs = [_random_connected(rng, rng.randrange(3, 7), rng.randrange(0, 4))
              for _ in range(20)]
    # Two triangles joined by a 2-edge path: bridges, and after contracting
    # a triangle edge, parallel edges.
    graphs.append((7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                       (4, 5), (4, 6), (5, 6)]))
    for nv, edges in graphs:
        assert len(edges) <= MAX_DC_EDGES
        g = HubGraph(nv, edges, (0, 1, 2))
        assert tutte_deletion_contraction(g) == tutte_subgraph_sum(g)
    # Two random components and an isolated vertex, which no HubGraph
    # carries: a bridge test must not reach from one component into the
    # other.
    for _ in range(10):
        (n1, e1), (n2, e2) = (_random_connected(rng, rng.randrange(2, 5),
                                                rng.randrange(0, 3))
                              for _ in range(2))
        edges = e1 + [(u + n1, v + n1) for u, v in e2]
        assert (bare_deletion_contraction(edges)
                == tutte_subgraph_sum(bare_census(n1 + n2 + 1, edges)))


def test_matrix_tree_matches_tutte_at_1_1():
    rng = random.Random(7)
    graphs = [K3, HubGraph(*_random_connected(rng, 6, 3), (0, 1, 2)),
              HubGraph(*_random_connected(rng, 5, 4), (0, 1, 2)),
              build_psw_edge_expansion(1), build_sierpinski(1)]
    for g in graphs:
        t = tutte_subgraph_sum(g)
        assert matrix_tree_count(g) == t.eval_exact(Fraction(1), Fraction(1))


def test_matrix_tree_known_counts():
    assert matrix_tree_count(K3) == 3
    assert matrix_tree_count(build_psw_edge_expansion(1)) == 54
    assert matrix_tree_count(build_psw_edge_expansion(3)) == 2 ** 18 * 3 ** 22
    assert matrix_tree_count(build_sierpinski(3)) == 803355125990400000
    # A tree is its own one spanning tree.
    path = HubGraph(6, [(v, v + 1) for v in range(5)], (0, 1, 5))
    assert matrix_tree_count(path) == 1


def test_matrix_tree_matches_the_census_on_random_graphs():
    # The cofactor counts the edge subsets with one component and V - 1
    # edges.
    rng = random.Random(20261020)
    for _ in range(60):
        nv = rng.randrange(3, 13)
        g = HubGraph(*_random_connected(rng, nv, rng.randrange(17 - nv)),
                     (0, 1, 2))
        trees = sum(cnt for (_, k, m), cnt in census(g).counts.items()
                    if k == 1 and m == nv - 1)
        assert matrix_tree_count(g) == trees


def test_sierpinski_has_at_least_as_many_trees():
    for n in range(0, 4):
        sg = matrix_tree_count(build_sierpinski(n))
        ps = matrix_tree_count(build_psw_edge_expansion(n))
        if n <= 1:
            assert sg == ps
        else:
            assert sg > ps


# -- hub partition census ---------------------------------------------------


def test_partition_recombines_to_total():
    for g in (build_psw_edge_expansion(0), build_psw_edge_expansion(1),
              build_sierpinski(1)):
        parts = partition_subgraph_sum(g)
        total = BiPoly.zero()
        for part in parts:
            total = total + part
        assert total == tutte_subgraph_sum(g)


def test_partition_triangle_classes():
    t1, t2a, t2b, t2c, t3 = partition_subgraph_sum(build_psw_edge_expansion(0))
    assert t1 == Y + BiPoly.constant(2)
    assert t2a == t2b == t2c == X - ONE
    assert t3 == (X - ONE) * (X - ONE)


def test_partition_symmetry_on_generation_one():
    _, t2a, t2b, t2c, _ = partition_subgraph_sum(build_psw_edge_expansion(1))
    assert t2a == t2b == t2c


def test_partition_divisibility():
    for g in (build_psw_edge_expansion(1), build_sierpinski(1)):
        _, t2a, t2b, t2c, t3 = partition_subgraph_sum(g)
        for part in (t2a, t2b, t2c):
            div_exact_xminus1(part, 1)
        div_exact_xminus1(t3, 2)


def _assert_census_matches_classification(nv, edges, hubs):
    """The census against one rebuilt mask by mask with a union-find.

    With ``hubs=None`` the census puts every subset in pattern 0.
    """
    expect = Counter()
    for mask in range(1 << len(edges)):
        uf = UnionFind(nv)
        kept = [e for i, e in enumerate(edges) if mask >> i & 1]
        for u, v in kept:
            uf.union(u, v)
        pat = 0
        if hubs is not None:
            a, b, c = map(uf.find, hubs)
            pat = (HubPattern.ALL_TOGETHER if a == b == c else
                   HubPattern.BC_A if b == c else
                   HubPattern.AC_B if a == c else
                   HubPattern.AB_C if a == b else HubPattern.ALL_APART)
        expect[(pat, uf.components, len(kept))] += 1
    assert oracle._census(nv, edges, hubs).counts == expect


def test_census_matches_per_subset_classification():
    rng = random.Random(99)
    nv, edges = _random_connected(rng, 7, 6)
    cases = [(g.num_vertices, g.edges, g.hubs)
             for g in (build_psw_edge_expansion(1), build_sierpinski(1))]
    cases += [(nv, tuple(edges), (0, 1, 2))]
    for nv, edges, hubs in cases:
        _assert_census_matches_classification(nv, edges, hubs)
        _assert_census_matches_classification(nv, edges, None)


def test_census_walks_edges_past_the_batch(monkeypatch):
    monkeypatch.setattr(oracle, "_BATCH_BITS", 4)
    rng = random.Random(3)
    nv, edges = _random_connected(rng, 7, 5)
    assert len(edges) == 11
    _assert_census_matches_classification(nv, tuple(edges), (0, 3, 6))
    _assert_census_matches_classification(nv, tuple(edges), None)


# -- the shifted rank table and the integer numerators ---------------------


@st.composite
def rank_tables(draw):
    """Rectangular int tables, 0 x 0 up to 15 x 15, with signed entries
    up to 10^30."""
    rows, cols = draw(st.integers(0, 15)), draw(st.integers(0, 15))
    entry = st.integers(-10 ** 30, 10 ** 30)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@given(rank_tables())
@example([])
@example([[7]])
@example([[-(10 ** 30)] * 15] * 15)
def test_shift_is_the_rank_table_at_x_minus_1_and_y_minus_1(table):
    expect = rank_table_at_minus_ones(table)
    got = oracle._shift([row[:] for row in table])
    assert got.terms() == expect.terms()


def _hub_subgraph(g, k, rng):
    """k edges of g grown from hub A, redrawn until they reach all three
    hubs, relabelled 0.. as a HubGraph."""
    while True:
        reached, chosen = {g.hubs[0]}, []
        while len(chosen) < k:
            edge = rng.choice([e for e in g.edges if e not in chosen
                               and (e[0] in reached or e[1] in reached)])
            chosen.append(edge)
            reached.update(edge)
        if reached.issuperset(g.hubs):
            label = {v: i for i, v in enumerate(sorted(reached))}
            return HubGraph(len(label),
                            [(label[u], label[v]) for u, v in chosen],
                            tuple(label[h] for h in g.hubs))


#: Edge probabilities: both ends, small denominators, a 9-digit decimal
#: and 10^-12, whose d^E has 168 digits at 14 edges.
PROBABILITIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
                 Fraction(123456789, 10 ** 9), Fraction(1, 10 ** 12))


@pytest.mark.parametrize("build", [build_psw_edge_expansion, build_sierpinski])
@pytest.mark.parametrize("size", [12, 14])
def test_oracle_sums_are_the_evaluate_and_fraction_routes(
        monkeypatch, build, size):
    g = _hub_subgraph(build(2), size, random.Random(size))
    c = census(g)

    def no_product(self, other):
        raise AssertionError(f"a BiPoly product by {other}")

    with monkeypatch.context() as patch:
        patch.setattr(BiPoly, "__mul__", no_product)
        patch.setattr(BiPoly, "__rmul__", no_product)
        sums = [tutte_subgraph_sum(g), tutte_subgraph_sum(c),
                *partition_subgraph_sum(g), *partition_subgraph_sum(c)]
    whole = reference_rank_sum(c, set(HubPattern)).terms()
    parts = [reference_rank_sum(c, {pat}).terms() for pat in HubPattern]
    assert [s.terms() for s in sums] == [whole, whole, *parts, *parts]
    for p in PROBABILITIES:
        got = reliability_enumeration(c, p)
        assert all(type(v) is Fraction for v in got)
        assert got == reference_reliability(c, p)


# -- reliability enumeration ------------------------------------------------


def test_reliability_triangle():
    r, b, t = reliability_enumeration(build_psw_edge_expansion(0),
                                      Fraction(1, 2))
    assert r == Fraction(1, 2)
    assert b == Fraction(1, 8)
    assert t == Fraction(1, 8)


def test_reliability_generation_one():
    g = build_psw_edge_expansion(1)
    assert reliability_enumeration(g, Fraction(1, 2)) == (
        Fraction(5, 16), Fraction(1, 32), Fraction(1, 64))
    assert reliability_enumeration(g, Fraction(1, 3)) == (
        Fraction(1519, 19683), Fraction(448, 19683), Fraction(512, 19683))


def test_reliability_endpoints():
    g = build_psw_edge_expansion(1)
    assert reliability_enumeration(g, Fraction(1)) == (1, 0, 0)
    assert reliability_enumeration(g, Fraction(0)) == (0, 0, 0)


def test_reliability_bridge_to_tutte_at_graph_level():
    # R(G, p) = p^(V-1) (1-p)^(E-V+1) T1(G; 1, 1/(1-p)) on explicit graphs
    for g in (build_psw_edge_expansion(0), build_psw_edge_expansion(1),
              build_sierpinski(1)):
        t1 = partition_subgraph_sum(g)[0]
        nv, ne = g.num_vertices, len(g.edges)
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            val = t1.eval_exact(Fraction(1), 1 / (1 - p))
            expect = p ** (nv - 1) * (1 - p) ** (ne - nv + 1) * val
            assert reliability_enumeration(g, p)[0] == expect


def test_reliability_rejects_out_of_range_probability():
    g = build_psw_edge_expansion(0)
    with pytest.raises(DomainError):
        reliability_enumeration(g, Fraction(3, 2))
    with pytest.raises(DomainError):
        reliability_enumeration(g, Fraction(-1, 2))


def test_reliability_rejects_bare_pair():
    # hub classification is part of the output, so hub labels are required
    with pytest.raises(DomainError, match="HubGraph"):
        reliability_enumeration(BARE_K3, Fraction(1, 2))


@pytest.mark.parametrize("build", [build_psw_edge_expansion, build_sierpinski])
def test_subset_sums_read_a_census_as_they_read_its_graph(build):
    g = build(1)
    c = oracle.census(g)
    assert (c.num_vertices, c.num_edges, c.hubs) == (
        g.num_vertices, g.num_edges, g.hubs)
    assert tutte_subgraph_sum(c) == tutte_subgraph_sum(g) \
        == tutte_subgraph_sum(bare_census(g.num_vertices, g.edges))
    assert partition_subgraph_sum(c) == partition_subgraph_sum(g)
    for p in (Fraction(1, 2), Fraction(1, 3)):
        assert reliability_enumeration(c, p) == reliability_enumeration(g, p)


@pytest.mark.parametrize("hub_oracle", [
    partition_subgraph_sum,
    lambda g: reliability_enumeration(g, Fraction(1, 2))])
def test_hub_oracles_refuse_a_graph_without_hubs(hub_oracle):
    for g in (BARE_K3, bare_census(*BARE_K3)):
        with pytest.raises(DomainError, match="needs hub labels"):
            hub_oracle(g)


# -- input validation and guards -------------------------------------------


#: The six public oracles, each as a function of the graph alone.
ORACLES = {
    "census": census,
    "tutte_subgraph_sum": tutte_subgraph_sum,
    "partition_subgraph_sum": partition_subgraph_sum,
    "tutte_deletion_contraction": tutte_deletion_contraction,
    "matrix_tree_count": matrix_tree_count,
    "reliability_enumeration":
        lambda g: reliability_enumeration(g, Fraction(1, 2)),
}


@pytest.mark.parametrize("name", ORACLES)
def test_every_oracle_refuses_a_bare_pair(name):
    # A graph reaches an oracle only as a HubGraph, checked simple and
    # connected where it was built.
    with pytest.raises(DomainError, match="HubGraph"):
        ORACLES[name](BARE_K3)


def test_bare_pair_rejects_multigraph_input():
    # A multigraph reaches no oracle: HubGraph refuses it, and a bare pair
    # is refused as not a HubGraph.
    for nv, edges in ((2, [(0, 1), (0, 1)]), (2, [(0, 0), (0, 1)]),
                      (3, [(0, 1), (1, 0), (1, 2)])):
        with pytest.raises(DomainError, match="self-loop|duplicate"):
            HubGraph(nv, edges, (0, 1, 2))
        for bare_oracle in (tutte_subgraph_sum, tutte_deletion_contraction):
            with pytest.raises(DomainError, match="HubGraph"):
                bare_oracle((nv, edges))


def test_subset_sum_edge_guard():
    star = HubGraph(MAX_SUBSET_EDGES + 2,
                    [(0, i) for i in range(1, MAX_SUBSET_EDGES + 2)],
                    (0, 1, 2))
    with pytest.raises(SizeLimitExceeded):
        tutte_subgraph_sum(star)


def test_deletion_contraction_edge_guard():
    path = HubGraph(MAX_DC_EDGES + 2,
                    [(i, i + 1) for i in range(MAX_DC_EDGES + 1)], (0, 1, 2))
    with pytest.raises(SizeLimitExceeded):
        tutte_deletion_contraction(path)


@pytest.mark.parametrize("graph,message", [
    ((3, [(0, 1), (0, 5)]), r"^edge \(0, 5\) out of range for 3 vertices$"),
    ((3, [(0, 1), (1, 1)]), r"^self-loop at vertex 1$"),
    ((3, [(0, 1), (1, 0)]), r"^duplicate edge \(0, 1\)$"),
    ((3, [(0, 1, 2)]), r"^edges must be \(u, v\) pairs$"),
], ids=["graph0", "graph1", "graph2", "graph3"])
def test_matrix_tree_rejects_a_non_simple_graph(graph, message):
    # An out-of-range edge, a self-loop, a repeated edge and a non-pair
    # reach no oracle: HubGraph refuses each with its message, and the
    # bare pair is refused as not a HubGraph.
    with pytest.raises(DomainError, match=message):
        HubGraph(*graph, (0, 1, 2))
    with pytest.raises(DomainError, match="HubGraph"):
        matrix_tree_count(graph)


def test_matrix_tree_vertex_guard():
    nv = MAX_MATRIX_TREE_VERTICES + 1
    path = HubGraph(nv, [(i, i + 1) for i in range(nv - 1)], (0, 1, 2))
    with pytest.raises(SizeLimitExceeded):
        matrix_tree_count(path)


def test_reliability_edge_guard():
    g = build_psw_edge_expansion(3)  # 81 edges
    assert len(g.edges) > MAX_SUBSET_EDGES
    with pytest.raises(SizeLimitExceeded):
        reliability_enumeration(g, Fraction(1, 2))


@pytest.mark.parametrize("name,refuse,size", [
    ("enumeration", tutte_subgraph_sum, 3),
    ("recursion", tutte_deletion_contraction, 2),
    ("matrix-tree", matrix_tree_count, 4),
])
def test_check_size_is_each_oracles_guard(name, refuse, size):
    # By the sizes alone, with the message the oracle gives the graph.
    g = build_psw_edge_expansion(size)
    with pytest.raises(SizeLimitExceeded) as by_graph:
        refuse(g)
    with pytest.raises(SizeLimitExceeded) as by_size:
        oracle.check_size(name, g.num_vertices, g.num_edges)
    assert str(by_size.value) == str(by_graph.value)
    g = build_psw_edge_expansion(size - 1)
    oracle.check_size(name, g.num_vertices, g.num_edges)


def test_oracles_refuse_a_large_graph_before_building_its_edge_tuples():
    g = build_psw_edge_expansion(3)  # 81 edges, 42 vertices
    for refuse in (oracle.census, tutte_subgraph_sum, partition_subgraph_sum,
                   tutte_deletion_contraction,
                   lambda g: reliability_enumeration(g, Fraction(1, 2))):
        with pytest.raises(SizeLimitExceeded):
            refuse(g)
    big = build_psw_edge_expansion(4)  # 123 vertices
    with pytest.raises(SizeLimitExceeded, match="123 vertices exceed"):
        matrix_tree_count(big)
    assert "edges" not in vars(g) and "edges" not in vars(big)
