"""Every public entry point that takes a generation refuses n = -1 with
DomainError and the generation one past its limit with SizeLimitExceeded,
before any costly work starts.
"""

import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fractal_tutte import invariants
from fractal_tutte.cli import MAX_GRID_POINTS
from fractal_tutte.bipoly import BiPoly
from fractal_tutte.errors import (DomainError, FractalTutteError,
                                  SizeLimitExceeded)
from fractal_tutte.graphs import (
    MAX_GENERATION,
    HubGraph,
    build_psw_copy_merge,
    build_psw_edge_expansion,
    build_sierpinski,
    from_edge_list,
    psw_edge_count,
    psw_vertex_count,
)
from fractal_tutte.invariants import (
    MAX_EVAL_GENERATION,
    MAX_POINT_REDUCTION,
    MAX_POINT_STATE_BITS,
    MAX_TREE_COUNT_GENERATION,
    bits,
    check_point_size,
    eval_tutte_at_point,
    invariant_report,
    spanning_trees_closed_form,
    spanning_trees_recurrence,
)
from fractal_tutte.oracle import (
    MAX_DC_EDGES,
    MAX_MATRIX_TREE_VERTICES,
    MAX_SUBSET_EDGES,
    matrix_tree_count,
)
from fractal_tutte.recursion import (
    MAX_SYMBOLIC_GENERATION,
    psw_state,
    psw_tutte,
    tutte_psw,
)
from fractal_tutte.reliability import (
    MAX_APPROX_GENERATION,
    compare_curves,
    psw_rel_via_tutte,
    reliability_state,
)
from fractal_tutte.scalars import (
    MAX_DENOMINATOR,
    MAX_EXACT_BITS,
    MAX_LOG_GENERATION,
    decimal_str,
    fraction_ln,
    ln,
)


def deepest_exact_generation(p: Fraction) -> int:
    """The deepest n whose exact reliability state at p fits the budget:
    3^(n+1) bits(d), with d = 1 counted as one bit."""
    width = max(bits(p.denominator), 1.0)
    return max(n for n in range(64) if 3 ** (n + 1) * width <= MAX_EXACT_BITS)


#: (entry point of n, its limit); None where no depth limit applies.
GUARDED = {
    "build_psw_edge_expansion": (build_psw_edge_expansion, MAX_GENERATION),
    "build_psw_copy_merge": (build_psw_copy_merge, MAX_GENERATION),
    "build_sierpinski": (build_sierpinski, MAX_GENERATION),
    "psw_vertex_count": (psw_vertex_count, None),
    "psw_edge_count": (psw_edge_count, None),
    "psw_state": (lambda n: psw_state(n, 1, 2), None),
    "psw_tutte": (lambda n: psw_tutte(n, 1, 2), None),
    "tutte_psw": (tutte_psw, MAX_SYMBOLIC_GENERATION),
    "eval_tutte_at_point": (lambda n: eval_tutte_at_point(n, 1, 1),
                            MAX_EVAL_GENERATION),
    "invariant_report": (invariant_report, MAX_EVAL_GENERATION),
    "spanning_trees_closed_form": (spanning_trees_closed_form,
                                   MAX_TREE_COUNT_GENERATION),
    "spanning_trees_recurrence": (spanning_trees_recurrence,
                                  MAX_TREE_COUNT_GENERATION),
    "psw_rel_via_tutte": (lambda n: psw_rel_via_tutte(n, Fraction(3, 8)),
                          MAX_EVAL_GENERATION),
    "psw_rel_via_tutte.p1": (lambda n: psw_rel_via_tutte(n, 1),
                             MAX_EVAL_GENERATION),
    "reliability_state.psw.exact": (
        lambda n: reliability_state("psw", n, Fraction(1, 3), "exact"),
        deepest_exact_generation(Fraction(1, 3))),
    "reliability_state.sg.exact": (
        lambda n: reliability_state("sg", n, Fraction(1, 3), "exact"),
        deepest_exact_generation(Fraction(1, 3))),
    # d = 1 counts as one bit, so p = 1 goes as deep as p = 1/2.
    "reliability_state.psw.exact.p1": (
        lambda n: reliability_state("psw", n, 1, "exact"),
        deepest_exact_generation(Fraction(1))),
    "reliability_state.psw.float": (
        lambda n: reliability_state("psw", n, 0.5, "float"),
        MAX_LOG_GENERATION),
    # Near p = 1 no value leaves Decimal's exponent range by n = 41.
    "reliability_state.sg.log": (
        lambda n: reliability_state("sg", n, 0.99, "log"),
        MAX_LOG_GENERATION),
    "compare_curves.exact": (
        lambda n: compare_curves(n, [0.5], "exact"),
        deepest_exact_generation(Fraction(1, 2))),
    "compare_curves.float": (
        lambda n: compare_curves(n, [0.5], "float"), MAX_LOG_GENERATION),
    "compare_curves.log": (
        lambda n: compare_curves(n, [0.99], "log"), MAX_LOG_GENERATION),
}


@pytest.mark.parametrize("name", GUARDED)
def test_negative_generation_is_a_domain_error(name):
    entry, _ = GUARDED[name]
    with pytest.raises(DomainError, match="generation must be nonnegative"):
        entry(-1)


@pytest.mark.parametrize(
    "name", [name for name, (_, limit) in GUARDED.items() if limit])
def test_generation_past_the_limit_is_refused(name):
    entry, limit = GUARDED[name]
    with pytest.raises(SizeLimitExceeded):
        entry(limit + 1)


#: README "Size guards" row -> the constant that enforces its limit.
README_GUARDS = {
    "graph builders": MAX_GENERATION,
    "symbolic `tutte_psw`": MAX_SYMBOLIC_GENERATION,
    "exact point evaluation / invariants / reliability via the Tutte bridge":
        MAX_EVAL_GENERATION,
    "exact point's predicted (U, W) state": MAX_POINT_STATE_BITS,
    "exact point's predicted denominator D_n": MAX_POINT_REDUCTION,
    "`exact`-mode reliability's denominator d^(3^(n+1)) at p = a/d":
        int(MAX_EXACT_BITS),
    "edge probability passed to the library": int(MAX_EXACT_BITS),
    "spanning-tree counts": MAX_TREE_COUNT_GENERATION,
    "decay approximation `psw_rel_approx_log`": MAX_APPROX_GENERATION,
    "subgraph-sum oracles and reliability enumeration": MAX_SUBSET_EDGES,
    "deletion-contraction oracle": MAX_DC_EDGES,
    "matrix-tree oracle": MAX_MATRIX_TREE_VERTICES,
    "`reliability --p-grid`": MAX_GRID_POINTS,
    "`reliability --p-grid` values": MAX_DENOMINATOR,
    "`log`- and `float`-mode reliability": MAX_LOG_GENERATION,
}


def _readme_guard_rows() -> dict[str, int]:
    """Operation -> the first number of its limit (10^6 read as a power)
    in README's "Size guards" table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Size guards", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or cells[0] == "operation" or set(cells[1]) <= {"-"}:
            continue
        base, power = re.search(r"(\d+)(?:\^(\d+))?", cells[1]).groups()
        rows[cells[0]] = int(base) ** int(power or 1)
    return rows


def test_readme_guard_table_matches_the_constants():
    assert _readme_guard_rows() == README_GUARDS


def _point_sizes(n, x0, y0):
    X, Y = Fraction(x0) - 1, Fraction(y0) - 1
    return n, *map(bits, (X.numerator, Y.numerator, X.denominator,
                          Y.denominator))


#: Exact points of README, the tests and the benchmark with the largest
#: predicted sizes; check_point_size must admit each.
ADMITTED = {
    "invariants --n 14": [(14, x, y) for x, y in
                          ((1, 1), (1, 2), (2, 1), (2, 0), (2, 2))],
    "eval --n 1 --x 1e-99999 --y 2": [(1, Fraction(1, 10 ** 99999), 2)],
    "eval --n 11 --x=-3/4 --y 3/7": [(11, Fraction(-3, 4), Fraction(3, 7))],
    "chromatic line at n = 12": [(12, Fraction(1, 3), 0), (12, -3, 0)],
    "x = 1/(10^9+7), y = 2 at n = 9": [(9, Fraction(1, 10 ** 9 + 7), 2)],
    # psw_rel_via_tutte at p = r/s is the point X = 0, Y = r/(s-r).
    "psw_rel_via_tutte(12, 3/8)": [(12, 1, Fraction(8, 5))],
    "psw_rel_via_tutte(10, 123456789/10^9)": [
        (10, 1, Fraction(10 ** 9, 10 ** 9 - 123456789))],
}

#: Points predicted slower than T_14(2, 2) (12 s), with the size each is
#: refused for; those timed before the guard took 9.9 s (n = 10) to 42 s.
REFUSED = {
    "x = 1/(10^9+7), y = 2 at n = 10": ((10, Fraction(1, 10 ** 9 + 7), 2),
                                        "denominator"),
    "x = 1/3, y = 2 at n = 13": ((13, Fraction(1, 3), 2), "denominator"),
    "x = 32768/3, y = 2 at n = 12": ((12, Fraction(32768, 3), 2),
                                     "denominator"),
    "x = 1e-300000, y = 2 at n = 1": ((1, Fraction(1, 10 ** 300000), 2),
                                      "denominator"),
    "T_14(3, 3)": ((14, 3, 3), "state"),
    "psw_rel_via_tutte(14, 3/8)": ((14, 1, Fraction(8, 5)), "state"),
}


@pytest.mark.parametrize("name", ADMITTED)
def test_exact_point_guard_admits_the_documented_points(name):
    for point in ADMITTED[name]:
        check_point_size(*_point_sizes(*point))


@pytest.mark.parametrize("name", REFUSED)
def test_exact_point_guard_refuses_by_predicted_size(name):
    point, what = REFUSED[name]
    with pytest.raises(SizeLimitExceeded,
                       match=f"{what}.* predicted at .* bits, over the budget"):
        check_point_size(*_point_sizes(*point))


def test_exact_limits_follow_from_the_budget():
    assert MAX_EXACT_BITS == 3 ** 11 * math.log2(MAX_DENOMINATOR)
    assert deepest_exact_generation(Fraction(1, 3)) == 12
    assert deepest_exact_generation(Fraction(1, 2)) == 13
    assert deepest_exact_generation(Fraction(0)) == 13
    assert deepest_exact_generation(Fraction(1, MAX_DENOMINATOR)) == 10


@pytest.mark.parametrize("n,d", [
    (6, 10 ** 1000), (4, 10 ** 10000), (10, MAX_DENOMINATOR + 1),
], ids=["1e-1000 at n = 6", "1e-10000 at n = 4", "1/(10^12 + 1) at n = 10"])
def test_exact_reliability_refuses_a_wide_denominator_at_once(n, d):
    # p = 1/10^1000 at n = 6 took 3.7 s, and at n = 10 it would carry
    # about 5.9e8 bits.
    p = Fraction(1, d)
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded, match=re.escape(
            f"exact reliability at n = {n}: its denominator d^(3^(n+1)) is "
            f"predicted at {3 ** (n + 1) * bits(d):.4g} bits, over the "
            f"budget of {MAX_EXACT_BITS:.4g} bits")):
        reliability_state("psw", n, p, "exact")
    assert time.perf_counter() - start < 0.1


@pytest.mark.slow
def test_exact_reliability_admits_the_widest_cli_denominator():
    # The CLI reads p with d <= MAX_DENOMINATOR; at n = 10 that is the
    # budget itself (about 3.4 s on a 2-vCPU VM).
    value = reliability_state("psw", 10, Fraction(1, MAX_DENOMINATOR),
                              "exact")
    assert 0 < value.r < 1


HUGE = 10 ** 18


@pytest.mark.parametrize("entry", [
    lambda: eval_tutte_at_point(HUGE, 1, 1),
    lambda: invariant_report(HUGE),
    lambda: psw_rel_via_tutte(HUGE, Fraction(1, 2)),
    lambda: psw_rel_via_tutte(HUGE, 1),
    lambda: reliability_state("sg", HUGE, Fraction(1, 2), "exact"),
    lambda: reliability_state("psw", HUGE, 0, "exact"),
    lambda: reliability_state("psw", HUGE, 1, "exact"),
    lambda: compare_curves(HUGE, [0.5], "exact"),
], ids=["eval_tutte_at_point", "invariant_report", "psw_rel_via_tutte",
        "psw_rel_via_tutte.p1", "reliability_state.p1/2",
        "reliability_state.p0", "reliability_state.p1", "compare_curves"])
def test_a_huge_generation_is_refused_at_once(entry):
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded):
        entry()
    assert time.perf_counter() - start < 0.1


#: Calls that refuse an integer v, given short (10^30) and past the
#: interpreter's 4300-digit int/str limit (10^5000).
REFUSING_AN_INTEGER = {
    "tutte_psw": tutte_psw,
    "eval_tutte_at_point": lambda v: eval_tutte_at_point(v, 1, 1),
    "reliability_state": lambda v: reliability_state("psw", v, 0.5),
    "build_psw_edge_expansion": build_psw_edge_expansion,
    "psw_vertex_count.negative": lambda v: psw_vertex_count(-v),
    "HubGraph.num_vertices": lambda v: HubGraph(
        v, [(0, 1), (1, 2), (0, 2)], (0, 1, 2)),
    "HubGraph.label": lambda v: HubGraph(
        3, [(0, 1), (1, 2), (0, v)], (0, 1, 2)),
    # Past int64, so the labels are read again from the text.
    "from_edge_list.label": lambda v: from_edge_list(
        f"3 3\nH 0 1 2\n0 1\n1 2\n0 {decimal_str(v)}\n"),
    "HubGraph.hubs": lambda v: HubGraph(
        3, [(0, 1), (1, 2), (0, 2)], (v, v, 0)),
    "HubGraph.hubs.list": lambda v: HubGraph(
        3, [(0, 1), (1, 2), (0, 2)], [v, v, 0]),
    "oracle.check_size": lambda v: matrix_tree_count((v, [(0, 1)])),
    "fraction_ln": lambda v: fraction_ln(Fraction(-1, v)),
    "ln": lambda v: ln(Fraction(-1, v)),
}


@pytest.mark.parametrize("name", REFUSING_AN_INTEGER)
def test_an_integer_past_the_int_string_limit_is_refused_as_a_short_one(
        name):
    entry = REFUSING_AN_INTEGER[name]
    with pytest.raises(FractalTutteError) as short:
        entry(10 ** 30)
    with pytest.raises(type(short.value)) as long:
        entry(10 ** 5000)
    # The same message, with the value's own digits in it.
    long_digits = max(re.findall(r"\d+", str(long.value)), key=len)
    assert len(long_digits) >= 5000
    assert (str(long.value).replace(long_digits, "N")
            == re.sub(r"\d{30,}", "N", str(short.value)))


def test_json_coefficients_past_the_int_string_limit_are_read():
    ones = (10 ** 5000 - 1) // 9
    for text, value in (("1" * 5000, ones), ("-" + "1" * 5000, -ones),
                        ("-12", -12), ("+7", 7)):
        poly = BiPoly.from_json_dict(
            {"terms": [{"dx": 1, "dy": 0, "coeff": text}]})
        assert poly.coefficient(1, 0) == value


def test_coefficients_past_the_int_string_limit_are_written():
    big = 10 ** 5000 + 7
    poly = BiPoly({(2, 1): -3 * big, (1, 0): 1, (0, 0): big})
    assert str(poly) == (f"-{decimal_str(3 * big)}*x^2*y + x + "
                         f"{decimal_str(big)}")
    assert [t["coeff"] for t in poly.to_json_dict()["terms"]] == [
        decimal_str(big), "1", decimal_str(-3 * big)]
    assert BiPoly.from_json_dict(
        json.loads(json.dumps(poly.to_json_dict()))) == poly


def test_eval_generation_follows_from_the_state_budget(monkeypatch):
    # T_n(1, 1) has the smallest predicted state of any point; lift the
    # generation check, and the state budget alone admits it to n = 14.
    monkeypatch.setattr(invariants, "MAX_EVAL_GENERATION", 64)
    check_point_size(*_point_sizes(MAX_EVAL_GENERATION, 1, 1))
    with pytest.raises(SizeLimitExceeded, match="state"):
        check_point_size(*_point_sizes(MAX_EVAL_GENERATION + 1, 1, 1))
    assert MAX_EVAL_GENERATION == 14


def test_exact_point_entry_points_refuse_before_the_recursion():
    with pytest.raises(SizeLimitExceeded, match="denominator D_n"):
        eval_tutte_at_point(13, Fraction(1, 3), 2)
    with pytest.raises(SizeLimitExceeded, match="state"):
        psw_rel_via_tutte(14, Fraction(3, 8))
