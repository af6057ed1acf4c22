"""Self-similarity recursion for the triangle-expansion family.

The state (t1, p, q) carries the hub-class sums with T2 = (x-1)p and
T3 = (x-1)^2 q factored out.  The assembled polynomial must agree with
the brute-force subset census at small generations, and with identities
every psw(n) satisfies (degrees, T(2,2) = 2^E, the chromatic line of a
2-tree, the hyperbola (x-1)(y-1) = 1) through n = 4.
"""

from fractions import Fraction

import pytest

from fractal_tutte.bipoly import BiPoly
from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import (
    build_psw_edge_expansion,
    psw_edge_count,
    psw_vertex_count,
)
from fractal_tutte.oracle import partition_subgraph_sum, tutte_subgraph_sum
from fractal_tutte.recursion import (
    MAX_SYMBOLIC_GENERATION,
    assemble_tutte,
    initial_state,
    state_at,
    step_state,
    tutte_psw,
    tutte_psw_json,
)
from helpers import div_exact_xminus1

X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.one()
ONEF = Fraction(1)
TWOF = Fraction(2)


def test_initial_state():
    s = initial_state()
    assert s.level == 0
    assert s.t1 == Y + BiPoly.constant(2)
    assert s.p == ONE
    assert s.q == ONE
    assert assemble_tutte(s) == X * X + X + Y


@pytest.mark.parametrize("n", [0, 1])
def test_matches_subset_oracle(n):
    assert tutte_psw(n) == tutte_subgraph_sum(build_psw_edge_expansion(n))


def test_level_one_state_matches_classified_oracle():
    s = step_state(initial_state())
    t1, t2a, t2b, t2c, t3 = partition_subgraph_sum(build_psw_edge_expansion(1))
    assert s.t1 == t1
    assert assemble_tutte(s).degrees() == (5, 4)  # rank and nullity of G(1)
    assert t2a == t2b == t2c
    assert s.p == div_exact_xminus1(t2a, 1)
    assert s.q == div_exact_xminus1(t3, 2)


def test_level_one_values():
    s = step_state(initial_state())
    assert s.level == 1
    at22 = tuple(c.eval_exact(TWOF, TWOF) for c in (s.t1, s.p, s.q))
    assert at22 == (350, 45, 27)
    assert sum(at22[0:1]) + 3 * at22[1] + at22[2] == 512
    assert s.t1.eval_exact(ONEF, ONEF) == 54


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
        state_at(MAX_SYMBOLIC_GENERATION + 1)
    with pytest.raises(DomainError):
        state_at(-1)


def test_json_wrapper():
    d = tutte_psw_json(1)
    assert d["family"] == "psw"
    assert d["n"] == 1
    assert BiPoly.from_json_dict(d["polynomial"]) == tutte_psw(1)


@pytest.mark.slow
def test_matches_subset_oracle_generation_two():
    # 2^27 subsets through the doubling census; seconds
    assert tutte_psw(2) == tutte_subgraph_sum(build_psw_edge_expansion(2))
