"""Construction of the two self-similar graph families.

The edge-expansion and copy-merge builders for the triangle-expansion
family must produce isomorphic graphs; here that is checked through size
formulas and degree statistics.  Corner-glued triangle (Sierpinski)
construction is checked against its known degree histogram.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fractal_tutte.graphs import _edge_array
from helpers import (
    component_count,
    reference_edge_list,
    reference_edges,
    reference_psw_copy_merge,
    reference_psw_edge_expansion,
    reference_sierpinski,
)


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


@pytest.mark.parametrize("build", [build_psw_edge_expansion,
                                   build_psw_copy_merge,
                                   build_sierpinski])
def test_builders_are_deterministic(build):
    assert build(4) == build(4)


@pytest.mark.parametrize("build,reference", [
    (build_psw_edge_expansion, reference_psw_edge_expansion),
    (build_psw_copy_merge, reference_psw_copy_merge),
    (build_sierpinski, reference_sierpinski),
])
@pytest.mark.parametrize("n", range(0, 8))
def test_builders_equal_loop_references(build, reference, n):
    assert build(n) == reference(n)


@pytest.mark.slow
@pytest.mark.parametrize("build", [build_psw_edge_expansion, build_sierpinski])
def test_generation_eleven_at_scale(build):
    n = 11
    g = build(n)
    nv, ne = psw_vertex_count(n), psw_edge_count(n)
    assert to_edge_list(g).partition("\n")[0] == f"{nv} {ne}"
    degs = g.degrees()
    if build is build_sierpinski:
        assert degree_histogram(g) == {2: 3, 4: nv - 3}
    else:
        # 3^t vertices are born at generation t, each of degree 2^(n-t+1)
        assert degree_histogram(g) == (
            {2 ** (n - t + 1): 3 ** t for t in range(1, n + 1)} | {2 ** (n + 1): 3})
        assert [degs[h] for h in g.hubs] == [2 ** (n + 1)] * 3
    assert sum(degs) == 2 * ne
    assert component_count(nv, g.edges) == 1


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


def test_sparse_header_is_refused_in_memory_bounded_by_edges():
    # Three edges cannot connect 10^9 vertices; the count runs over the
    # three touched vertices, not an array of 10^9 labels.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match=(
                r"^graph is disconnected \(999999998 components\)$")):
            HubGraph(10**9, ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 50 * 2**20


@pytest.mark.parametrize("build", [build_psw_edge_expansion, build_sierpinski])
def test_shuffled_and_reversed_pairs_give_the_builders_graph(build):
    g = build(6)
    rng = np.random.default_rng(6)
    shuffled = rng.permutation(g.pairs)
    flip = rng.random(len(shuffled)) < 0.5
    shuffled[flip] = shuffled[flip, ::-1]
    for pairs in (shuffled, g.pairs[::-1], g.pairs[::-1, ::-1],
                  shuffled.tolist()):
        assert HubGraph(g.num_vertices, pairs, g.hubs) == g


#: Vertex counts either side of 2^31.5, where lo * n + hi leaves int64,
#: near 2^62 and 2^63, and past int64, where labels are Python ints.
_HUGE_N = [3037000499, 3037000500, 3037000501, 2**62, 2**62 + 3, 2**63 - 1,
           2**63 + 2, 2**64, 2**70]


@pytest.mark.parametrize("n", _HUGE_N)
def test_labels_near_the_key_limit_keep_their_messages(n):
    a = n - 3
    hubs = (a, a + 1, a + 2)
    triangle = [(a, a + 1), (a + 2, a + 1), (a, a + 2)]
    cases = [
        (triangle, f"graph is disconnected ({n - 2} components)"),
        (triangle + [(a + 2, a)], f"duplicate edge ({a}, {a + 2})"),
        (triangle + [(a + 1, a + 1)], f"self-loop at vertex {a + 1}"),
        (triangle + [(a + 2, a + 3)],
         f"edge ({a + 2}, {a + 3}) out of range for {n} vertices"),
    ]
    for edges, message in cases:
        with pytest.raises(DomainError) as info:
            HubGraph(n, edges, hubs)
        assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        HubGraph(3, [(0, 1), (1, 2), (0, 2), (a + 2, 0)], (0, 1, 2))
    assert str(info.value) == f"edge (0, {a + 2}) out of range for 3 vertices"


@pytest.mark.parametrize("faults,message", [
    ([(9, 1), (1, 1), (5, 1), (4, 3)], "self-loop at vertex 1"),
    ([(9, 1), (1, 2), (5, 1), (4, 3)], "duplicate edge (1, 2)"),
    ([(9, 1), (7, -1), (1, 1), (-1, 4)],
     "edge (-1, 4) out of range for 3 vertices"),
    ([(2, 7), (2, 2), (2, 5), (0, 9)],
     "edge (0, 9) out of range for 3 vertices"),
])
def test_the_least_bad_pair_is_named_in_any_order(faults, message):
    triangle = [(0, 1), (1, 2), (0, 2)]
    for edges in (triangle + faults, faults[::-1] + triangle):
        with pytest.raises(DomainError) as info:
            HubGraph(3, edges, (0, 1, 2))
        assert str(info.value) == message


def test_huge_headers_report_disconnected_and_duplicate_edges():
    with pytest.raises(DomainError) as info:
        from_edge_list("10000000000 3\nH 0 1 2\n0 1\n0 2\n1 2\n")
    assert str(info.value) == "graph is disconnected (9999999998 components)"
    with pytest.raises(DomainError) as info:
        from_edge_list("10000000000 5\nH 0 1 2\n0 1\n0 2\n1 2\n"
                       "9999999999 9999999998\n9999999998 9999999999\n")
    assert str(info.value) == "duplicate edge (9999999998, 9999999999)"


def test_constructor_rejects_bad_hubs():
    with pytest.raises(DomainError):
        HubGraph(3, ((0, 1), (0, 2), (1, 2)), (0, 0, 1))
    with pytest.raises(DomainError):
        HubGraph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 3))


def test_constructor_rejects_labels_beyond_int64():
    with pytest.raises(DomainError, match=(
            r"^edge \(0, 1180591620717411303424\) out of range for 3 vertices$")):
        HubGraph(3, ((0, 1), (1, 2), (0, 2**70)), (0, 1, 2))
    with pytest.raises(DomainError, match=(
            r"^edge \(-1180591620717411303424, 0\) out of range for 3 vertices$")):
        HubGraph(3, ((0, 1), (1, 2), (0, -2**70), (-1, -1)), (0, 1, 2))
    # the first bad pair in sorted order is named, wide or not
    with pytest.raises(DomainError, match=r"^self-loop at vertex -1$"):
        HubGraph(3, ((0, 1), (1, 2), (0, 2**70), (-1, -1)), (0, 1, 2))


def test_labels_past_int64_on_a_huge_vertex_set_name_the_right_fault():
    # Labels beyond int64 are in range when n is: three edges on 2^64
    # vertices are a disconnected graph, not a duplicate edge.
    a = 2**64 - 3
    with pytest.raises(DomainError) as info:
        HubGraph(2**64, [(a, a + 1), (a + 1, a + 2), (a, a + 2)],
                 (a, a + 1, a + 2))
    assert str(info.value) == (
        "graph is disconnected (18446744073709551614 components)")


@pytest.mark.parametrize("edges", [
    [(0.5, 1), (1, 2.9), (0, 2)],
    [("0", "1"), ("1", "2"), ("0", "2")],
    np.array([(0, 1), (1, 2), (0, 2)], dtype=float),
    [(False, True), (True, 2), (False, 2)],
    np.array([(0, 1), (1, 1), (0, 1)], dtype=bool),
    [(0, 1), (1, 2), (0, np.float64(2))],
    [(0, 1), (1, 2), (0, 2), (2**70, 0.5)],
], ids=["float", "str", "float array", "bool", "bool array",
        "numpy float", "float beside a wide label"])
def test_constructor_refuses_labels_that_are_not_integers(edges):
    # Each of these was truncated or parsed into the triangle.
    with pytest.raises(DomainError,
                       match=r"^edges must be \(u, v\) pairs of integers$"):
        HubGraph(3, edges, (0, 1, 2))


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, object])
def test_integer_arrays_of_any_width_give_the_triangle(dtype):
    triangle = HubGraph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
    edges = np.array([(1, 2), (0, 1), (2, 0)], dtype=dtype)
    assert HubGraph(3, edges, (0, 1, 2)) == triangle
    assert HubGraph(3, [(np.int64(1), 2), (np.uint8(0), 1), (2, 0)],
                    (0, 1, 2)) == triangle


def test_uint64_labels_past_int64_keep_their_value():
    edges = np.array([(0, 1), (1, 2), (0, 2), (2**63 + 5, 0)], np.uint64)
    with pytest.raises(DomainError, match=(
            r"^edge \(0, 9223372036854775813\) out of range for 3 vertices$")):
        HubGraph(3, edges, (0, 1, 2))


def test_an_int64_pair_array_is_read_without_a_copy():
    pairs = build_psw_edge_expansion(3).pairs.copy()
    assert _edge_array(pairs) is pairs


def test_constructor_rejects_negative_label():
    with pytest.raises(DomainError,
                       match=r"^edge \(-1, 2\) out of range for 3 vertices$"):
        HubGraph(3, ((0, 1), (1, 2), (2, -1)), (0, 1, 2))


def test_constructor_accepts_any_iterable_of_pairs():
    triangle = HubGraph(3, ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
    assert HubGraph(3, ((v, u) for u, v in [(0, 1), (2, 0), (1, 2)]),
                    (0, 1, 2)) == triangle
    assert HubGraph(3, [[1, 2], [0, 1], [0, 2]], (0, 1, 2)) == triangle
    assert all(type(u) is int and type(v) is int for u, v in triangle.edges)


@pytest.mark.parametrize("edges", [((0, 1, 2), (0, 2, 1)),
                                   ((0, 1), (0, 2), (1, 2, 0)),
                                   (0, 1, 2)])
def test_constructor_rejects_items_that_are_not_pairs(edges):
    with pytest.raises(DomainError, match="edges must be"):
        HubGraph(3, edges, (0, 1, 2))


_LABELS = st.one_of(st.integers(-1, 6), st.sampled_from([2**63, 2**70, -2**70]))


@st.composite
def _edge_lists(draw):
    """(n, edges, hubs): a simple graph on range(n), often spanned by a
    path, plus up to two faults (odd pairs and repeated edges) and
    sometimes odd hubs."""
    n = draw(st.integers(0, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          max_size=8))
    edges = list({frozenset(p): p for p in pairs
                  if p[0] != p[1] and max(p) < n}.values())
    if draw(st.booleans()):
        edges += [(v - 1, v) for v in range(1, n) if {v - 1, v} not in map(set, edges)]
    faults = st.tuples(_LABELS, _LABELS)
    if edges:
        faults |= st.sampled_from(edges).map(lambda e: e[::-1])
    edges += draw(st.lists(faults, max_size=2))
    edges = draw(st.permutations(edges))
    hubs = draw(st.sampled_from([(0, 1, 2), (2, 0, 1)])
                | st.tuples(_LABELS, _LABELS, _LABELS))
    return n, edges, hubs


@settings(max_examples=400)
@given(_edge_lists(), st.sampled_from([tuple, list, iter]))
def test_validation_matches_loop_reference(case, container):
    n, edges, hubs = case
    try:
        expected = reference_edges(n, edges, hubs)
    except DomainError as error:
        with pytest.raises(DomainError) as exc:
            HubGraph(n, container(edges), hubs)
        assert str(exc.value) == str(error)
    else:
        assert HubGraph(n, container(edges), hubs).edges == expected


@pytest.mark.parametrize("build", [build_psw_edge_expansion,
                                   build_psw_copy_merge,
                                   build_sierpinski])
def test_generation_guard(build):
    with pytest.raises(SizeLimitExceeded):
        build(MAX_GENERATION + 1)
    with pytest.raises(DomainError):
        build(-1)


@pytest.mark.parametrize("n,edges,nbytes", [
    (MAX_GENERATION + 1, "1.43e+7 edges", "1.58e+9 bytes"),
    (10**12, "1.38e+477121254720 edges", "bytes"),
])
def test_generation_guard_states_its_cost(n, edges, nbytes):
    with pytest.raises(SizeLimitExceeded,
                       match=f"limit {MAX_GENERATION}") as exc:
        build_sierpinski(n)
    assert edges in str(exc.value)
    assert nbytes in str(exc.value)


# -- the pair array --------------------------------------------------------


def test_array_and_tuple_input_give_equal_graphs():
    g = build_psw_edge_expansion(2)
    from_tuples = HubGraph(g.num_vertices, list(g.edges), g.hubs)
    from_array = HubGraph(g.num_vertices, np.array(g.edges[::-1]), g.hubs)
    assert from_array == from_tuples == g
    assert hash(from_array) == hash(from_tuples) == hash(g)
    assert from_array.edges == g.edges
    assert HubGraph(g.num_vertices, g.pairs, g.hubs[::-1]) != g


def test_pairs_are_read_only_int64():
    g = build_sierpinski(1)
    assert g.pairs.dtype == np.int64 and g.pairs.shape == (g.num_edges, 2)
    with pytest.raises(ValueError):
        g.pairs[0, 0] = 5
    assert g == build_sierpinski(1)


@pytest.mark.parametrize("build", [build_psw_edge_expansion, build_sierpinski])
def test_generate_path_builds_no_edge_tuples(build):
    g = build(4)
    to_edge_list(g)
    g.degrees()
    assert "edges" not in vars(g)
    assert g.edges == tuple(map(tuple, g.pairs.tolist()))
    assert "edges" in vars(g)


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
@pytest.mark.parametrize("n", range(0, 10))
def test_edge_list_equals_per_edge_format(build, n):
    g = build(n)
    assert to_edge_list(g) == reference_edge_list(g)


@pytest.mark.parametrize("nv", [10, 11, 100, 101])
def test_edge_list_across_a_digit_boundary(nv):
    # A path, a chord to the largest label, and a star from vertex 0.
    edges = {(v, v + 1) for v in range(nv - 1)} | {(0, nv - 1)}
    edges |= {(0, v) for v in range(2, nv, 7)}
    g = HubGraph(nv, edges, (nv - 1, 0, 5))
    assert to_edge_list(g) == reference_edge_list(g)


@pytest.mark.parametrize("nv", [3, 10, 100, 1000, 10**5 + 1, 10**6 + 1,
                                10**6 + 2])
def test_edge_list_for_every_label_width(nv):
    # A star from the largest label, a hub, to every other label: the
    # first column runs through every shorter width and the second holds
    # the widest label, up to 7 digits (V_13 has 7-digit labels, 8-byte
    # records); at 10^6 + 2 a 7-digit label also leads a line.
    top = nv - 1
    edges = np.stack((np.arange(top), np.full(top, top)), axis=1)
    g = HubGraph(nv, edges, (top, 0, top - 1))
    assert to_edge_list(g) == reference_edge_list(g)


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
        assert back == g


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


@pytest.mark.parametrize("text,message", [
    ("", "edge-list input too short: need header and hub line"),
    ("3 3 3\nH 0 1 2\n", "bad header line: '3 3 3'"),
    ("3 2\nH 0 1 2\n0 1\n", "header promises 2 edges but 1 lines follow"),
    ("3 3\nH 0 1 2\n0 1\n 0 2 1 \n1 2\n", "bad edge line: '0 2 1'"),
    ("3 3\nH 0 1 2\n0 1 2\n0 2\n1\n", "bad edge line: '0 1 2'"),
    ("3 3\nH 0 1 2\n0 1\n0 x\n1 2\n", "bad edge line: '0 x'"),
    ("3 3\nH 0 1 2\n0 1\n0 2\n1 2.0\n", "bad edge line: '1 2.0'"),
    ("3 3\nH 0 1 2\n0 1\n0 2\n1 -\n", "bad edge line: '1 -'"),
    ("3 3\nH 0 1 2\n0 1\n0 2\n1 2-\n", "bad edge line: '1 2-'"),
    ("3 3\nH 0 1 2\n0 1\n0 2\n1 é\n", "bad edge line: '1 é'"),
    ("3 3\nH 0 1 2\n0 1\n0 1\n1 2\n", "duplicate edge (0, 1)"),
    ("3 3\nH 0 1 2\n0 1\n0 2\n1 -2\n", "edge (-2, 1) out of range for 3 vertices"),
    ("3 3\nH 0 1 2\n0 1\n0 2\n1 99999999999999999999\n",
     "edge (1, 99999999999999999999) out of range for 3 vertices"),
    ("3 3\nH 0 1 2\n0 1\n0 2\n9223372036854775807 1\n",
     "edge (1, 9223372036854775807) out of range for 3 vertices"),
])
def test_from_edge_list_names_what_is_wrong(text, message):
    # The first bad line in file order is named, stripped, as the
    # per-line parser named it.
    with pytest.raises(DomainError) as info:
        from_edge_list(text)
    assert str(info.value) == message


def test_from_edge_list_reads_blank_lines_signs_and_other_line_ends():
    g = from_edge_list("\n  3 3  \n\n H 0 1 2 \n+0\t1\r\n0 2\f1 002\v")
    assert g == HubGraph(3, [(0, 1), (0, 2), (1, 2)], (0, 1, 2))


@pytest.mark.slow
@pytest.mark.parametrize("build", [build_psw_edge_expansion,
                                   build_sierpinski])
def test_edge_list_round_trip_to_generation_12(build):
    for n in range(5, 13):
        g = build(n)
        assert from_edge_list(to_edge_list(g)) == g
