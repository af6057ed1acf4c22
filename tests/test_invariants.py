"""Numeric invariants: scalar recursion evaluation, spanning-tree counts
through three independent routes, the unrolled exponent sequences, and
the printing of big integers.
"""

import decimal
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from fractal_tutte import invariants
from fractal_tutte.bipoly import BiPoly
from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import (
    build_psw_edge_expansion,
    psw_edge_count,
    psw_vertex_count,
)
from fractal_tutte.invariants import (
    _LEAF_BITS,
    MAX_EVAL_GENERATION,
    MAX_TREE_COUNT_GENERATION,
    decimal_str,
    eval_tutte_at_point,
    exponent_sequences,
    invariant_report,
    lowest_terms,
    spanning_trees_closed_form,
    spanning_trees_recurrence,
)
from fractal_tutte.oracle import matrix_tree_count
from fractal_tutte.recursion import psw_state, psw_step, tutte_psw
from fractal_tutte.reliability import psw_rel_via_tutte


def _scaled_state(n, X, Y):
    """(U, W) of ``psw_state`` at X = a/d, Y = b/e, on integers."""
    return psw_state(n, X.numerator, Y.numerator, X.denominator, Y.denominator)


def _denominator(n, X, Y):
    """D_n of the integer state at X = a/d, Y = b/e, by its recursion
    D_0 = e d^2, D' = e D^3."""
    e, d = Y.denominator, X.denominator
    D = e * d * d
    for _ in range(n):
        D = e * D ** 3
    return D


def _uw_at_point(n, x0, y0):
    """(u, w) at generation n from the integer state, reduced."""
    X, Y = Fraction(x0) - 1, Fraction(y0) - 1
    U, W = _scaled_state(n, X, Y)
    D = _denominator(n, X, Y)
    return Fraction(U, D), Fraction(X.denominator * W, D)


def test_eval_state_examples():
    # (t1, p, q) = (350, 45, 27) at (2, 2) and (54, 12, .) at (1, 1)
    assert _uw_at_point(1, 2, 2) == (350 + 45, 2 * 45 + 27)
    assert psw_state(1, 0, 0) == (54, 24)
    x0, y0 = Fraction(5, 7), Fraction(-3, 2)
    assert _uw_at_point(0, x0, y0) == (x0 + y0 + 1, x0 + 1)


def test_eval_tutte_known_values():
    assert eval_tutte_at_point(0, 1, 1) == 3
    assert eval_tutte_at_point(1, 1, 1) == 54
    assert eval_tutte_at_point(2, 1, 1) == 209952
    assert eval_tutte_at_point(1, 2, 2) == 512


@pytest.mark.parametrize("n", range(0, 4))
def test_eval_matches_symbolic_at_random_points(n):
    rng = random.Random(1234 + n)
    t = tutte_psw(n)
    for _ in range(20):
        x0 = Fraction(rng.randrange(-40, 41), rng.randrange(1, 12))
        y0 = Fraction(rng.randrange(-40, 41), rng.randrange(1, 12))
        assert eval_tutte_at_point(n, x0, y0) == t.eval_exact(x0, y0)


@pytest.mark.parametrize("n,x0", [
    (0, 2), (5, -3), (12, 2), (12, -3),
    (1, Fraction(1, 3)), (7, Fraction(-2, 5)), (10, Fraction(1, 3)),
    pytest.param(12, Fraction(1, 3), marks=pytest.mark.slow),
])
def test_chromatic_line_at_points(n, x0):
    # psw(n) is a 2-tree: T(x, 0) = x (x+1)^(V-2).
    expected = x0 * (x0 + 1) ** (psw_vertex_count(n) - 2)
    assert eval_tutte_at_point(n, x0, 0) == expected


@pytest.mark.parametrize("n,x0", [
    (0, Fraction(3, 2)), (4, 5), (6, Fraction(-1, 4)), (10, Fraction(3, 2)),
    (10, Fraction(-1, 4)),
])
def test_hyperbola_at_points(n, x0):
    # On (x-1)(y-1) = 1: T(x, y) = x^E (x-1)^(V-1-E).
    nv, ne = psw_vertex_count(n), psw_edge_count(n)
    x0 = Fraction(x0)
    expected = x0 ** ne * (x0 - 1) ** (nv - 1 - ne)
    assert eval_tutte_at_point(n, x0, x0 / (x0 - 1)) == expected


def test_eval_state_matches_symbolic_components():
    u, w = psw_state(3, BiPoly.x_minus_1(), BiPoly.y_minus_1())
    x0, y0 = Fraction(3, 4), Fraction(-2, 5)
    assert _uw_at_point(3, x0, y0) == (
        u.eval_exact(x0, y0), w.eval_exact(x0, y0))


#: (x0, y0) covering a = 0 (x0 = 1), b = 0 (y0 = 1), negative X and Y,
#: integer points, and d, e sharing a prime (X = 1/6, Y = 5/4).
SCALED_POINTS = [
    (1, 2), (Fraction(2, 3), 1), (1, 1), (2, 2), (-3, 5),
    (Fraction(-1, 4), Fraction(-2, 3)), (Fraction(5, 7), Fraction(-3, 2)),
    (Fraction(7, 6), Fraction(9, 4)), (Fraction(1, 3), 2),
    (4, Fraction(1, 5)),
]


def _fraction_states(x0, y0, n_max):
    """(t1, p, q) for n = 0..n_max by ``psw_step`` over Fraction."""
    X, Y = Fraction(x0) - 1, Fraction(y0) - 1
    state = (Y + 3, Fraction(1), Fraction(1))
    states = [state]
    for _ in range(n_max):
        state = psw_step(*state, X, Y)
        states.append(state)
    return states


def _parts(value):
    return value.numerator, value.denominator


@pytest.mark.parametrize("x0,y0", SCALED_POINTS)
def test_scaled_state_matches_fraction_step(x0, y0):
    # The integer state over D gives u = t1 + X p and w = 2 p + X q of
    # psw_step over Fraction, and T_n reduced once, to the numerator and
    # denominator.
    X = Fraction(x0) - 1
    for n, (t1, p, q) in enumerate(_fraction_states(x0, y0, 7)):
        assert _uw_at_point(n, x0, y0) == (t1 + X * p, 2 * p + X * q)
        value = eval_tutte_at_point(n, x0, y0)
        assert type(value) is Fraction
        assert _parts(value) == _parts(t1 + X * (3 * p + X * q))


@pytest.mark.parametrize("x0,y0", SCALED_POINTS)
def test_common_denominator_unrolls_its_recursion(x0, y0):
    # D_n, built by its recursion, clears the denominator of T_n.
    X, Y = Fraction(x0) - 1, Fraction(y0) - 1
    for n in range(9):
        assert (eval_tutte_at_point(n, x0, y0)
                * _denominator(n, X, Y)).denominator == 1


@pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(3, 8),
                               Fraction(1, 2), Fraction(7, 9),
                               Fraction(999, 1000)])
def test_reliability_point_denominator_cancels(p):
    # At x0 = 1, y0 = 1/(1-p): Y = r/(s-r), and D_n must be exactly the
    # (1-p)^(E-V+1) denominator that psw_rel_via_tutte cancels.
    r, s = p.numerator, p.denominator
    X, Y = Fraction(0), 1 / (1 - p) - 1
    assert Y == Fraction(r, s - r)
    for n in range(9):
        excess = psw_edge_count(n) - psw_vertex_count(n) + 1
        assert excess == (3 ** (n + 1) - 1) // 2
        assert _denominator(n, X, Y) == (s - r) ** excess


#: A 40-digit prime and two 20-digit primes, all far above the trial
#: division limit.
P40 = 10 ** 39 + 3
P20, Q20 = 10 ** 19 + 51, 3 * 10 ** 19 + 41


@pytest.mark.parametrize("N,powers", [
    (0, ((6, 5),)),
    (-(3 ** 7) * 11, ((3, 4), (2, 1))),
    (5 ** 30 * 13, ((5, 6),)),
    (123456789, ((1, 9),)),
    (-(2 ** 40) * 7, ((2, 12), (4, 3))),
    (2 ** 5 * 9, ((2, 12),)),
    (3 ** 9 * 5 ** 2 * 7 ** 4 * 11, ((3, 4), (25, 3), (49, 1))),
    (-(2 ** 9) * 3 ** 2 * 5 ** 40 * 7 * 11, ((210, 7), (6, 5), (35, 3))),
    # 4099 is found in 2*4099 and stays in the unfactored part 4099*P40.
    (4099 ** 5 * P40 * 3, ((2 * 4099, 3), (4099 * P40, 2))),
    (-(P20 ** 3) * 6, ((P20 * Q20 * 12, 2),)),
])
def test_lowest_terms_matches_fraction(N, powers):
    value = lowest_terms(N, powers)
    expected = Fraction(N, math.prod(b ** k for b, k in powers))
    assert type(value) is Fraction
    assert (value.numerator, value.denominator, hash(value)) == (
        expected.numerator, expected.denominator, hash(expected))


def test_lowest_terms_every_valuation_and_cap():
    # The ladder climbs and walks back across powers of two of v and K.
    for p in (2, 3):
        for v in range(34):
            for cap in range(34):
                value = lowest_terms(-(p ** v) * 7, ((p, cap),))
                assert _parts(value) == _parts(Fraction(-(p ** v) * 7,
                                                        p ** cap))


@pytest.mark.parametrize("base_exps,n_exps,unit", [
    ((7, 5, 3), (30, 2, 40), -7),
    ((61, 40, 29), (100, 300, 0), 11),
    ((0, 64, 2), (0, 63, 2), 1),
    ((5000, 0, 5000), (7000, 0, 3000), 3),  # 10^5000
    ((5000, 0, 5000), (4999, 0, 4999), -7),
])
def test_smooth_bases_reduce_by_one_ladder_per_prime(monkeypatch, base_exps,
                                                     n_exps, unit):
    # The base is 2^a 3^b 5^c and N is unit 2^a' 3^b' 5^c'.  Trial
    # division takes each prime out of the base by one ladder (cap
    # unbounded), not by one division per factor.
    base = math.prod(p ** k for p, k in zip((2, 3, 5), base_exps))
    N = unit * math.prod(p ** k for p, k in zip((2, 3, 5), n_exps))
    found = []
    divide_out = invariants._divide_out

    def spy(M, p, cap):
        if cap == math.inf:
            found.append(p)
        return divide_out(M, p, cap)

    monkeypatch.setattr(invariants, "_divide_out", spy)
    value = lowest_terms(N, ((base, 2),))
    monkeypatch.undo()
    assert _parts(value) == _parts(Fraction(N, base ** 2))
    assert found == [p for p, k in zip((2, 3, 5), base_exps) if k]


def test_composite_leftover_base_reduces_without_a_full_size_gcd(monkeypatch):
    # The base's part 12 = 2^2 * 3 is found by trial division; P20 * Q20 is
    # left whole, and N holds its primes unevenly (P20^2 but Q20^1).
    # Dividing the part out in rounds of gcd(N mod p, p) never needs a
    # gcd wider than the base.
    base = 12 * P20 * Q20
    N = 2 ** 5 * 3 * P20 ** 2 * Q20 * (2 ** 10000 + 1)
    widths = []
    gcd = math.gcd

    def recording(*args):
        widths.append(min(abs(a).bit_length() for a in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recording)
    value = lowest_terms(N, ((base, 3),))
    monkeypatch.undo()
    assert _parts(value) == _parts(Fraction(N, base ** 3))
    assert widths and max(widths) <= base.bit_length()


@pytest.mark.parametrize("x0,y0", [
    (Fraction(1, P40), Fraction(5, 6)),
    (Fraction(1, P20 * Q20), Fraction(5, 6)),
    (Fraction(1, P40), 1 + Fraction(1, 6 * P40)),
])
def test_eval_with_large_prime_denominators(x0, y0):
    # Trial division is bounded, so a large prime costs one gcd against
    # its own power of D instead of a search to its square root.
    start = time.perf_counter()
    value = eval_tutte_at_point(2, x0, y0)
    assert time.perf_counter() - start < 0.5
    X, Y = Fraction(x0) - 1, Fraction(y0) - 1
    U, W = _scaled_state(2, X, Y)
    expected = Fraction(U + X.numerator * W, _denominator(2, X, Y))
    assert type(value) is Fraction
    assert _parts(value) == _parts(expected)


#: The abscissae of the counts benchmark's rational points (x, x/(x-1)).
HYPERBOLA_X = tuple(Fraction(s) for s in (
    "-3/2", "5/2", "-2/3", "-1/3", "5/3", "-3/4", "-1/4", "1/4"))


def test_rational_points_reduce_without_a_full_size_gcd(monkeypatch):
    # Every prime of D divides d e (or s for p = r/s), so no gcd needs
    # two operands over 64 bits.
    widths = []
    gcd = math.gcd

    def recording(*args):
        widths.append(min((abs(a).bit_length() for a in args), default=0))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recording)
    points = [(n, x) for x in HYPERBOLA_X for n in range(10)]
    values = [eval_tutte_at_point(n, x, x / (x - 1)) for n, x in points]
    probs = (Fraction(1, 5), Fraction(3, 8), Fraction(5, 8))
    rel = [psw_rel_via_tutte(9, p) for p in probs]
    # A denominator prime above the trial division limit.
    big_prime = Fraction(1, 10 ** 9 + 7)
    beyond = eval_tutte_at_point(6, big_prime, 2)
    monkeypatch.undo()
    assert max(widths, default=0) <= 64
    X, Y = big_prime - 1, Fraction(1)
    U, W = _scaled_state(6, X, Y)
    assert _parts(beyond) == _parts(
        Fraction(U + X.numerator * W, _denominator(6, X, Y)))
    for (n, x), value in zip(points, values):
        nv, ne = psw_vertex_count(n), psw_edge_count(n)
        assert value == x ** ne * (x - 1) ** (nv - 1 - ne)
    for p, value in zip(probs, rel):
        r, s = p.numerator, p.denominator
        u, _ = psw_state(9, 0, r, 1, s - r)
        assert _parts(value) == _parts(Fraction(
            r ** (psw_vertex_count(9) - 1) * u, s ** psw_edge_count(9)))


def test_invariant_report_generation_zero():
    r = invariant_report(0)
    assert (r.spanning_trees, r.connected_spanning_subgraphs,
            r.spanning_forests, r.acyclic_orientations,
            r.all_subgraphs) == (3, 4, 7, 6, 8)


def test_invariant_report_generation_one():
    r = invariant_report(1)
    assert r.spanning_trees == 54
    assert r.connected_spanning_subgraphs == 160
    assert r.spanning_forests == 279
    assert r.acyclic_orientations == 162
    assert r.all_subgraphs == 512


def test_invariant_report_generation_two():
    r = invariant_report(2)
    assert r.spanning_trees == 209952
    assert r.all_subgraphs == 2 ** 27


@pytest.mark.parametrize("n", range(0, 11))
def test_invariant_inequalities(n):
    r = invariant_report(n)
    assert r.all_subgraphs == 2 ** psw_edge_count(n)
    assert r.spanning_trees <= r.connected_spanning_subgraphs <= r.all_subgraphs
    assert r.spanning_trees <= r.spanning_forests <= r.all_subgraphs
    assert r.acyclic_orientations % 2 == 0  # reversal pairs orientations


#: The report's points, in ``InvariantReport`` field order.
REPORT_POINTS = ((1, 1), (1, 2), (2, 1), (2, 0), (2, 2))


@pytest.mark.parametrize("n", range(0, 11))
def test_integer_points_have_denominator_one(n):
    # At an integer point d = e = 1, so D = 1: the report takes each value
    # as its numerator with no check of the denominator.
    for x0, y0 in REPORT_POINTS + ((-2, 3), (3, -1), (-1, -4), (0, -2)):
        assert eval_tutte_at_point(n, x0, y0).denominator == 1
    r = invariant_report(n)
    assert (r.spanning_trees, r.connected_spanning_subgraphs,
            r.spanning_forests, r.acyclic_orientations, r.all_subgraphs) == tuple(
        eval_tutte_at_point(n, x0, y0).numerator for x0, y0 in REPORT_POINTS)


def test_report_json_shape():
    d = invariant_report(1).to_json_dict()
    assert d["n"] == 1
    assert d["spanning_trees"] == "54"
    assert set(d) == {"n", "spanning_trees", "connected_spanning_subgraphs",
                      "spanning_forests", "acyclic_orientations",
                      "all_subgraphs"}


# -- spanning trees, three ways --------------------------------------------


@pytest.mark.parametrize("n", range(0, 13))
def test_tree_count_routes_agree(n):
    closed = spanning_trees_closed_form(n)
    assert closed == spanning_trees_recurrence(n)
    assert closed == eval_tutte_at_point(n, 1, 1)


def test_tree_count_exponents_are_nonnegative_integers():
    # spanning_trees_closed_form floors both exponents by 4.
    for n in range(0, 201):
        pow3 = 3 ** (n + 1)
        for numerator in (pow3 - 2 * n - 3, pow3 + 2 * n + 1):
            assert numerator >= 0 and numerator % 4 == 0


def test_tree_count_anchors():
    assert spanning_trees_closed_form(0) == 3
    assert spanning_trees_closed_form(1) == 54
    assert spanning_trees_closed_form(2) == 209952
    assert spanning_trees_closed_form(3) == 2 ** 18 * 3 ** 22


@pytest.mark.parametrize("n", range(0, 4))
def test_tree_count_matches_matrix_tree(n):
    g = build_psw_edge_expansion(n)
    assert matrix_tree_count(g) == spanning_trees_closed_form(n)


def test_tree_count_guards():
    with pytest.raises(SizeLimitExceeded):
        spanning_trees_closed_form(MAX_TREE_COUNT_GENERATION + 1)
    with pytest.raises(SizeLimitExceeded):
        spanning_trees_recurrence(MAX_TREE_COUNT_GENERATION + 1)
    with pytest.raises(DomainError):
        spanning_trees_closed_form(-2)


def test_eval_guard():
    with pytest.raises(SizeLimitExceeded):
        eval_tutte_at_point(MAX_EVAL_GENERATION + 1, 1, 1)
    with pytest.raises(DomainError):
        invariant_report(-1)


# -- exponent sequences from unrolling the tree recurrence ------------------


def test_exponent_sequence_first_rows():
    rows = exponent_sequences(2)
    assert (rows[0].k, rows[0].a, rows[0].b, rows[0].c, rows[0].d) == (
        1, 1, 0, 2, 1)
    assert rows[1].k == 2
    assert (rows[1].c, rows[1].d) == (5, 4)


def test_exponent_sequence_structure():
    rows = exponent_sequences(30)
    assert [r.k for r in rows] == list(range(1, 31))
    for r in rows:
        assert r.c + r.d == 3 ** r.k
        assert r.c - r.d == 1
        assert r.a >= r.b >= 0


@pytest.mark.parametrize("n", range(1, 13))
def test_full_unroll_reproduces_closed_form(n):
    row = exponent_sequences(n)[n - 1]
    # at k = n the remaining factors are N_ST(0) = 3 and P_0 = 1
    assert 6 ** row.a * 4 ** row.b * 3 ** row.c == spanning_trees_closed_form(n)


def test_partial_unroll_reproduces_count():
    # unroll k steps, then finish with the exact (N, P) pair at level n-k
    n, k = 6, 2
    trees, p = 3, 1
    for _ in range(n - k):
        trees, p = 6 * trees * trees * p, 4 * trees * p * p
    row = exponent_sequences(k)[k - 1]
    value = 6 ** row.a * 4 ** row.b * trees ** row.c * p ** row.d
    assert value == spanning_trees_closed_form(n)


def test_exponent_sequences_solve_their_recurrence():
    a, b, c, d = 1, 0, 2, 1
    for row in exponent_sequences(200):
        assert (row.a, row.b, row.c, row.d) == (a, b, c, d)
        a, b, c, d = a + c, b + d, 2 * c + d, c + 2 * d


def test_exponent_closed_forms_are_integral():
    # exponent_sequences floors a and b by 4 and c and d by 2.
    for k in range(1, 201):
        pow3 = 3 ** k
        assert (pow3 + 2 * k - 1) % 4 == 0 and (pow3 - 2 * k - 1) % 4 == 0
        assert (pow3 + 1) % 2 == 0 and (pow3 - 1) % 2 == 0


def test_exponent_sequence_rejects_bad_kmax():
    with pytest.raises(DomainError):
        exponent_sequences(0)


# -- printing big integers --------------------------------------------------


def _printer_cases():
    rng = random.Random(20240)
    values = [0, 1, -1, 2 ** 128 - 1, 2 ** 128, 2 ** 128 + 1, -(2 ** 128),
              -(10 ** 5000 + 3)]
    # A value of bit length w > _LEAF_BITS splits at h = w // 2; 2^bits + x
    # has bit length bits + 1, and x next to 2^h puts lo at the split.
    for bits in (_LEAF_BITS, 2 * _LEAF_BITS, 2 * _LEAF_BITS + 1,
                 4 * _LEAF_BITS + 3, 9 * _LEAF_BITS):
        h = (bits + 1) // 2
        values += [2 ** bits - 1, 2 ** bits, 2 ** bits + 1, -(2 ** bits)]
        values += [2 ** bits + 2 ** h + s for s in (-1, 0, 1)]
    values += [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 70000))
               for _ in range(40)]
    return values


def test_decimal_str_matches_decimal_format():
    for value in _printer_cases():
        assert decimal_str(value) == format(Decimal(value), "f")


def test_decimal_str_ignores_the_thread_context():
    # A 3-digit context that traps rounding would fail any operation that
    # read it; Decimal(int) itself is exact under every context.
    expected = [format(Decimal(v), "f") for v in _printer_cases()]
    trapping = decimal.Context(prec=3, traps=[decimal.Inexact,
                                              decimal.Rounded])
    with decimal.localcontext(trapping):
        assert [decimal_str(v) for v in _printer_cases()] == expected


def test_decimal_str_is_fast_at_half_a_million_digits():
    # T_12(2, 2) = 2^(3^13) has 479,940 digits, where the quadratic
    # Decimal(int) takes seconds.
    e = 3 ** 13
    start = time.perf_counter()
    text = decimal_str(2 ** e)
    assert time.perf_counter() - start < 1.0
    assert len(text) == math.floor(e * math.log10(2)) + 1 == 479940
    assert text[-30:] == "%030d" % pow(2, e, 10 ** 30)
    lead = 10 ** (e * math.log10(2) % 1)
    assert text[:6] == f"{lead:.10f}".replace(".", "")[:6]
