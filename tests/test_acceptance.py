"""Acceptance gate: one test per shipping criterion, each reporting a
single PASS/FAIL line on the terminal (bypassing capture) so a full run
reads as a checklist.

Every numeric bound and tolerance here is part of the package contract;
none of them may be loosened to make a failing build green.
"""

import math
import time
from fractions import Fraction

import pytest

from fractal_tutte.graphs import (
    build_psw_edge_expansion,
    psw_edge_count,
    psw_vertex_count,
)
from fractal_tutte.invariants import (
    eval_tutte_at_point,
    spanning_trees_closed_form,
    spanning_trees_recurrence,
)
from fractal_tutte.oracle import (
    matrix_tree_count,
    reliability_enumeration,
    tutte_subgraph_sum,
)
from fractal_tutte.recursion import tutte_psw
from fractal_tutte.reliability import (
    psw_rel_approx_log,
    psw_rel_via_tutte,
    reliability_state,
)

THIRDS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
GRID_99 = [Fraction(k, 100) for k in range(1, 100)]


def _report(capsys, number, title, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_oracle_equivalence(capsys):
    def body():
        start = time.perf_counter()
        for n in (0, 1):
            assert tutte_psw(n) == tutte_subgraph_sum(
                build_psw_edge_expansion(n))
        assert time.perf_counter() - start < 1.0

    _report(capsys, 1, "oracle equivalence n=0,1 under 1s", body)


@pytest.mark.slow
def test_criterion_1_gated_generation_two(capsys):
    def body():
        start = time.perf_counter()
        assert tutte_psw(2) == tutte_subgraph_sum(build_psw_edge_expansion(2))
        assert time.perf_counter() - start < 600.0

    _report(capsys, 1, "gated 2^27-subset oracle at n=2", body)


def test_criterion_2_spanning_trees(capsys):
    def body():
        for n in range(0, 13):
            closed = spanning_trees_closed_form(n)
            assert closed == spanning_trees_recurrence(n)
            assert closed == eval_tutte_at_point(n, 1, 1)
        for n in range(0, 4):
            assert spanning_trees_closed_form(n) == matrix_tree_count(
                build_psw_edge_expansion(n))
        assert spanning_trees_closed_form(0) == 3
        assert spanning_trees_closed_form(1) == 54
        assert spanning_trees_closed_form(2) == 209952

    _report(capsys, 2, "spanning trees: closed form, recurrence, "
                       "matrix-tree", body)


def test_criterion_3_structural_identities(capsys):
    def body():
        for n in range(0, 5):
            total = tutte_psw(n)
            nv, ne = psw_vertex_count(n), psw_edge_count(n)
            assert total.degrees() == (nv - 1, ne - nv + 1)
            assert all(c > 0 for c in total.terms().values())
            assert total.eval_exact(Fraction(2), Fraction(2)) == 2 ** ne

    _report(capsys, 3, "symbolic identities through n=4", body)


def test_criterion_4_reliability_bridge(capsys):
    def body():
        for n in range(0, 7):
            for p in THIRDS:
                assert psw_rel_via_tutte(n, p) \
                    == reliability_state("psw", n, p).r
        g1 = build_psw_edge_expansion(1)
        s = reliability_state("psw", 1, Fraction(1, 2))
        assert (s.r, s.b, s.t) \
            == (Fraction(5, 16), Fraction(1, 32), Fraction(1, 64))
        assert (s.r, s.b, s.t) == reliability_enumeration(g1, Fraction(1, 2))

    _report(capsys, 4, "reliability recursion = Tutte bridge = enumeration",
            body)


def test_criterion_5_comparison_theorem(capsys):
    def body():
        for p in THIRDS:
            assert reliability_state("sg", 1, p).r \
                == reliability_state("psw", 1, p).r
        for n in range(2, 5):
            for p in GRID_99:
                assert reliability_state("sg", n, p).r \
                    > reliability_state("psw", n, p).r
        for n in range(5, 9):
            for p in GRID_99:
                pf = float(p)
                assert reliability_state("sg", n, pf, "log").ln_r \
                    > reliability_state("psw", n, pf, "log").ln_r
        # stability claim alongside the ordering
        for n in range(0, 11):
            for p in GRID_99:
                s = reliability_state("psw", n, float(p), "float")
                assert s.r + 2 * s.b < 1

    _report(capsys, 5, "gasket beats web for n=2..8 on the 99-point grid",
            body)


def test_criterion_6_decay_approximation(capsys):
    mpmath = pytest.importorskip("mpmath")

    def body():
        # Adjacent relative errors differ by as little as ~1e-187 near
        # n=8, far below double precision, so the reference recursion
        # runs on 260-digit floats.
        mp = mpmath.mp
        old_dps = mp.dps
        mp.dps = 260
        try:
            for num, den in ((3, 10), (1, 2), (7, 10), (9, 10)):
                p = mpmath.mpf(num) / den
                decay = mpmath.log(p * (2 - p))
                r = p * p * (3 - 2 * p)
                b = p * (1 - p) ** 2
                errors = []
                for n in range(1, 9):
                    r, b = r ** 3 + 6 * r * r * b, 4 * r * b * b
                    if n >= 2:
                        approx = 3 ** (n - 1) * decay
                        errors.append(
                            abs(mpmath.log(r) - approx) / abs(mpmath.log(r)))
                assert all(a > b_ for a, b_ in zip(errors, errors[1:]))
                # the float implementation agrees with the reference
                f = psw_rel_approx_log(8, num / den)
                assert f == pytest.approx(float(3 ** 7 * decay), rel=1e-12)
        finally:
            mp.dps = old_dps

    _report(capsys, 6, "decay-law relative error shrinks with n", body)


def test_criterion_7_scalability(capsys):
    def body():
        start = time.perf_counter()
        trees_12 = eval_tutte_at_point(12, 1, 1)
        assert time.perf_counter() - start < 10.0
        assert trees_12 == spanning_trees_closed_form(12)

        start = time.perf_counter()
        rel_12 = psw_rel_via_tutte(12, Fraction(3, 8))
        assert time.perf_counter() - start < 10.0
        assert rel_12.denominator.bit_count() == 1
        assert math.log(rel_12.numerator) - math.log(rel_12.denominator) \
            == pytest.approx(
                reliability_state("psw", 12, 0.375, "log").ln_r, rel=1e-12)

        start = time.perf_counter()
        web = reliability_state("psw", 30, 0.5, "log")
        gasket = reliability_state("sg", 30, 0.5, "log")
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(web.ln_r) and web.ln_r < 0
        assert math.isfinite(gasket.ln_r) and gasket.ln_r < 0
        assert gasket.ln_r > web.ln_r

    _report(capsys, 7, "T_12(1,1) and Tutte-route R_12(3/8) under 10s; "
            "log-mode n=30 under 1s", body)
