"""Construction of the two self-similar graph families.

The edge-expansion and copy-merge builders for the triangle-expansion
family must produce isomorphic graphs; here that is checked through size
formulas and degree statistics.  Corner-glued triangle (Sierpinski)
construction is checked against its known degree histogram.
"""

import pytest

from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import (
    MAX_GENERATION,
    HubGraph,
    build_psw_copy_merge,
    build_psw_edge_expansion,
    build_sierpinski,
    degree_histogram,
    from_edge_list,
    psw_edge_count,
    psw_vertex_count,
    to_edge_list,
)
from helpers import component_count


def test_generation_zero_is_a_triangle():
    g = build_psw_edge_expansion(0)
    assert g.num_vertices == 3
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}
    assert g.hubs == (0, 1, 2)
    assert build_sierpinski(0).edges == g.edges


@pytest.mark.parametrize("n", range(0, 9))
def test_psw_size_formulas(n):
    g = build_psw_edge_expansion(n)
    assert g.num_vertices == psw_vertex_count(n) == (3 ** (n + 1) + 3) // 2
    assert len(g.edges) == psw_edge_count(n) == 3 ** (n + 1)


@pytest.mark.parametrize("n", range(0, 9))
def test_psw_constructions_agree_on_degree_statistics(n):
    a = build_psw_edge_expansion(n)
    b = build_psw_copy_merge(n)
    assert a.num_vertices == b.num_vertices
    assert len(a.edges) == len(b.edges)
    assert sorted(a.degrees()) == sorted(b.degrees())
    assert degree_histogram(a) == degree_histogram(b)


@pytest.mark.parametrize("n", range(0, 7))
def test_psw_hub_degrees(n):
    for g in (build_psw_edge_expansion(n), build_psw_copy_merge(n)):
        degs = g.degrees()
        assert [degs[h] for h in g.hubs] == [2 ** (n + 1)] * 3


def test_edge_expansion_preserves_earlier_generations():
    prev = build_psw_edge_expansion(0)
    for n in range(1, 7):
        cur = build_psw_edge_expansion(n)
        # old vertices keep their labels and old edges survive verbatim
        assert set(prev.edges) <= set(cur.edges)
        assert prev.hubs == cur.hubs
        prev = cur


def test_psw_generation_one_histogram():
    g = build_psw_edge_expansion(1)
    assert g.num_vertices == 6
    assert degree_histogram(g) == {4: 3, 2: 3}


@pytest.mark.parametrize("n", range(1, 9))
def test_sierpinski_sizes_and_histogram(n):
    g = build_sierpinski(n)
    nv = (3 ** (n + 1) + 3) // 2
    assert g.num_vertices == nv
    assert len(g.edges) == 3 ** (n + 1)
    assert degree_histogram(g) == {2: 3, 4: nv - 3}
    degs = g.degrees()
    assert [degs[h] for h in g.hubs] == [2, 2, 2]


@pytest.mark.parametrize("n", range(0, 9))
def test_both_families_share_vertex_and_edge_counts(n):
    web = build_psw_edge_expansion(n)
    gasket = build_sierpinski(n)
    assert web.num_vertices == gasket.num_vertices
    assert len(web.edges) == len(gasket.edges)


@pytest.mark.parametrize("build", [build_psw_edge_expansion,
                                   build_psw_copy_merge,
                                   build_sierpinski])
def test_graphs_are_connected_and_simple(build):
    for n in range(0, 6):
        g = build(n)
        assert component_count(g.num_vertices, list(g.edges)) == 1
        assert len(set(g.edges)) == len(g.edges)
        assert all(u < v for u, v in g.edges)
        assert g.generation == n


@pytest.mark.parametrize("build", [build_psw_edge_expansion,
                                   build_psw_copy_merge,
                                   build_sierpinski])
def test_builders_are_deterministic(build):
    assert build(4) == build(4)


# -- validation -------------------------------------------------------------


def test_constructor_rejects_self_loop():
    with pytest.raises(DomainError):
        HubGraph(3, ((0, 0), (0, 1), (1, 2)), (0, 1, 2))


def test_constructor_rejects_duplicate_edge():
    with pytest.raises(DomainError):
        HubGraph(3, ((0, 1), (1, 0), (1, 2), (0, 2)), (0, 1, 2))


def test_constructor_rejects_out_of_range_vertex():
    with pytest.raises(DomainError):
        HubGraph(3, ((0, 1), (1, 2), (2, 3)), (0, 1, 2))


def test_constructor_rejects_disconnected_graph():
    with pytest.raises(DomainError):
        HubGraph(4, ((0, 1), (2, 3)), (0, 1, 2))


def test_constructor_rejects_bad_hubs():
    with pytest.raises(DomainError):
        HubGraph(3, ((0, 1), (0, 2), (1, 2)), (0, 0, 1))
    with pytest.raises(DomainError):
        HubGraph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 3))


@pytest.mark.parametrize("build", [build_psw_edge_expansion,
                                   build_psw_copy_merge,
                                   build_sierpinski])
def test_generation_guard(build):
    with pytest.raises(SizeLimitExceeded):
        build(MAX_GENERATION + 1)
    with pytest.raises(DomainError):
        build(-1)


@pytest.mark.parametrize("n,edges,nbytes", [
    (MAX_GENERATION + 1, "1.43e+7 edges", "6.03e+9 bytes"),
    (10**12, "1.38e+477121254720 edges", "bytes"),
])
def test_generation_guard_states_its_cost(n, edges, nbytes):
    with pytest.raises(SizeLimitExceeded,
                       match=f"limit {MAX_GENERATION}") as exc:
        build_sierpinski(n)
    assert edges in str(exc.value)
    assert nbytes in str(exc.value)


# -- edge-list text format --------------------------------------------------


def test_edge_list_golden_text():
    g = build_psw_edge_expansion(1)
    assert to_edge_list(g) == (
        "6 9\n"
        "H 0 1 2\n"
        "0 1\n"
        "0 2\n"
        "0 3\n"
        "0 4\n"
        "1 2\n"
        "1 3\n"
        "1 5\n"
        "2 4\n"
        "2 5\n"
    )


@pytest.mark.parametrize("build", [build_psw_edge_expansion,
                                   build_psw_copy_merge,
                                   build_sierpinski])
def test_edge_list_round_trip(build):
    for n in range(0, 5):
        g = build(n)
        back = from_edge_list(to_edge_list(g))
        assert back.num_vertices == g.num_vertices
        assert back.edges == g.edges
        assert back.hubs == g.hubs


def test_from_edge_list_rejects_malformed_input():
    with pytest.raises(DomainError):
        from_edge_list("not a header\n")
    with pytest.raises(DomainError):
        from_edge_list("3 2\nH 0 1 2\n0 1\n")  # edge count mismatch
    with pytest.raises(DomainError):
        from_edge_list("3 3\nH 0 1 2\n0 1\n0 2\n1 1\n")  # loop
    with pytest.raises(DomainError):
        from_edge_list("4 2\nH 0 1 2\n0 1\n2 3\n")  # disconnected
    with pytest.raises(DomainError):
        from_edge_list("3 3\n0 1\n0 2\n1 2\n")  # missing hub line
    with pytest.raises(DomainError, match="bad hub line"):
        from_edge_list("3 3\nH 0 1 x\n0 1\n0 2\n1 2\n")  # non-integer hub
