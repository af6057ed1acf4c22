"""Self-similarity recursion for the triangle-expansion family.

The hub-class step ``psw_step`` carries (t1, p, q), the hub-class sums
with T2 = (x-1)p and T3 = (x-1)^2 q factored out; the runner
``psw_state`` carries only u = t1 + (x-1)p and w = 2p + (x-1)q.  Both
must agree with the brute-force subset census, the (u, w) step must
equal the hub-class step on a grid that proves the identity, and the
assembled polynomial must satisfy identities every psw(n) satisfies
(degrees, T(2,2) = 2^E, the chromatic line of a 2-tree, the hyperbola
(x-1)(y-1) = 1) through n = 4.
"""

import itertools
from fractions import Fraction

import pytest

from fractal_tutte import bipoly
from fractal_tutte.bipoly import BiPoly
from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import (
    build_psw_edge_expansion,
    psw_edge_count,
    psw_vertex_count,
)
from fractal_tutte.oracle import (
    HubPattern,
    partition_subgraph_sum,
    tutte_subgraph_sum,
)
from fractal_tutte.recursion import (
    MAX_SYMBOLIC_GENERATION,
    psw_state,
    psw_step,
    psw_uw_step,
    tutte_psw,
)
from helpers import div_exact_xminus1

X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.one()
ONEF = Fraction(1)
TWOF = Fraction(2)


def _symbolic_state(n):
    """(u, w) at generation n by ``psw_state`` over BiPoly."""
    return psw_state(n, BiPoly.x_minus_1(), BiPoly.y_minus_1())


def test_initial_state():
    u, w = _symbolic_state(0)
    assert u == X + Y + ONE
    assert w == X + ONE
    assert tutte_psw(0) == X * X + X + Y


@pytest.mark.parametrize("n", [0, 1])
def test_matches_subset_oracle(n):
    assert tutte_psw(n) == tutte_subgraph_sum(build_psw_edge_expansion(n))


def _hub_classes(n):
    """(t1, p, q) at generation n by ``psw_step`` over BiPoly."""
    state = (Y + BiPoly.constant(2), ONE, ONE)
    for _ in range(n):
        state = psw_step(*state, BiPoly.x_minus_1(), BiPoly.y_minus_1())
    return state


def _check_hub_classes(n):
    # u sums the subgraphs that join hubs A and B; (x-1) w sums the rest.
    parts = partition_subgraph_sum(build_psw_edge_expansion(n))
    t2a, t2b, t2c = (parts[pat] for pat in (
        HubPattern.BC_A, HubPattern.AC_B, HubPattern.AB_C))
    t3 = parts[HubPattern.ALL_APART]
    u, w = _symbolic_state(n)
    assert u == parts[HubPattern.ALL_TOGETHER] + t2c
    assert BiPoly.x_minus_1() * w == t2a + t2b + t3
    assert t2a == t2b == t2c
    t1, p, q = _hub_classes(n)
    assert t1 == parts[HubPattern.ALL_TOGETHER]
    assert p == div_exact_xminus1(t2a, 1)
    assert q == div_exact_xminus1(t3, 2)


def test_level_one_state_matches_classified_oracle():
    _check_hub_classes(1)
    assert tutte_psw(1).degrees() == (5, 4)  # rank and nullity of G(1)


@pytest.mark.slow
def test_level_two_state_matches_classified_oracle():
    # 2^27 subsets through the doubling census; seconds
    _check_hub_classes(2)


def test_level_one_values():
    u, w = _symbolic_state(1)
    assert (u.eval_exact(TWOF, TWOF), w.eval_exact(TWOF, TWOF)) == (
        395, 117)
    assert tuple(c.eval_exact(TWOF, TWOF) for c in _hub_classes(1)) == (
        350, 45, 27)
    assert tutte_psw(1).eval_exact(TWOF, TWOF) == 512
    assert u.eval_exact(ONEF, ONEF) == 54


@pytest.mark.parametrize("n", range(0, 5))
def test_integer_state_is_the_symbolic_state_at_a_point(n):
    # One runner over two rings: on integers at d = e = 1 it gives the
    # BiPoly state evaluated at the same point.
    u, w = _symbolic_state(n)
    for x0, y0 in ((2, 2), (1, 1), (-3, 5), (0, 4)):
        assert psw_state(n, x0 - 1, y0 - 1) == (
            u.evaluate(x0, y0), w.evaluate(x0, y0))


def test_uw_step_is_the_hub_class_step():
    # Both sides have degree at most 4 in each of t1, p, q, X and Y, so
    # agreement on six integers per variable proves the identity over
    # every commutative ring, for every generation.
    for t1, p, q, x, y in itertools.product(range(-2, 4), repeat=5):
        t1n, pn, qn = psw_step(t1, p, q, x, y)
        assert psw_uw_step(t1 + x * p, 2 * p + x * q, x, y) == (
            t1n + x * pn, 2 * pn + x * qn)


def test_four_full_size_products_per_generation(monkeypatch):
    # A product with a factor of at most two terms is a linear pass; the
    # step makes four of the other kind once w has more than two terms.
    counts = []
    mul = BiPoly.__mul__

    def counting(a, b):
        if isinstance(b, BiPoly) and min(a.num_terms(), b.num_terms()) > 2:
            counts[-1] += 1
        return mul(a, b)

    monkeypatch.setattr(BiPoly, "__mul__", counting)
    monkeypatch.setattr(BiPoly, "__rmul__", counting)
    for n in range(1, 5):
        counts.append(0)
        tutte_psw(n)
    assert counts == [3, 7, 11, 15]


def test_symbolic_products_pack_no_negative_coefficient(monkeypatch):
    # Only operands with no negative coefficient are packed, so a signed
    # factor in the recursion would not give a wrong answer but a slow
    # schoolbook product.  Every full-size product from generation 3 on
    # is packed: four per generation.
    lowest = []
    kronecker = bipoly._mul_kronecker

    def spy(a, b):
        lowest.append(min(min(a.values()), min(b.values())))
        return kronecker(a, b)

    monkeypatch.setattr(bipoly, "_mul_kronecker", spy)
    for n, packed in ((3, 4), (4, 8), (5, 12)):
        lowest.clear()
        tutte_psw(n)
        assert len(lowest) == packed
        assert min(lowest) > 0


def test_level_two_tree_count():
    t = tutte_psw(2)
    assert t.eval_exact(ONEF, ONEF) == 209952


@pytest.mark.parametrize("n", range(0, 4))
def test_assembled_polynomial_properties(n):
    t = tutte_psw(n)
    nv, ne = psw_vertex_count(n), psw_edge_count(n)
    assert t.degrees() == (nv - 1, ne - nv + 1)
    assert all(c > 0 for c in t.terms().values())
    assert t.eval_exact(TWOF, TWOF) == 2 ** ne


@pytest.mark.parametrize("n", range(0, 5))
def test_chromatic_line(n):
    # psw(n) is a 2-tree, so its chromatic polynomial is
    # k (k-1) (k-2)^(V-2); in Tutte form the whole y^0 row is
    # T(x, 0) = x (x+1)^(V-2).
    row = {(dx, 0): c for (dx, dy), c in tutte_psw(n).terms().items()
           if dy == 0}
    assert BiPoly(row) == X * (X + ONE) ** (psw_vertex_count(n) - 2)


@pytest.mark.parametrize("n", range(0, 5))
def test_hyperbola(n):
    # On (x-1)(y-1) = 1 every connected graph has
    # T(x, y) = x^E (x-1)^(V-1-E).  With k = E-V+1 the y-degree,
    # (x-1)^k T(x, x/(x-1)) = sum of c x^(i+j) (x-1)^(k-j) = x^E.
    nv, ne = psw_vertex_count(n), psw_edge_count(n)
    k = ne - nv + 1
    rows: list[dict] = [{} for _ in range(k + 1)]
    for (i, j), c in tutte_psw(n).terms().items():
        rows[j][(i + j, 0)] = c
    total = BiPoly.zero()
    for row in rows:  # Horner in (x-1), highest power first
        total = total * (X - ONE) + BiPoly(row)
    assert total == X ** ne


def test_symbolic_generation_guard():
    with pytest.raises(SizeLimitExceeded):
        tutte_psw(MAX_SYMBOLIC_GENERATION + 1)
    with pytest.raises(DomainError):
        _symbolic_state(-1)


@pytest.mark.slow
def test_matches_subset_oracle_generation_two():
    # 2^27 subsets through the doubling census; seconds
    assert tutte_psw(2) == tutte_subgraph_sum(build_psw_edge_expansion(2))
