"""All-terminal reliability recursions for both families, their link to
the hub-together Tutte class, and the CSV formatting layer.
"""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import build_psw_edge_expansion, build_sierpinski
from fractal_tutte.oracle import (
    HubPattern,
    classify_edge_subset,
    reliability_enumeration,
)
from fractal_tutte.reliability import (
    MAX_VIA_TUTTE_GENERATION,
    compare_curves,
    curves_to_csv,
    format_probability,
    psw_rel_approx_log,
    psw_rel_init,
    psw_rel_step,
    psw_rel_via_tutte,
    psw_reliability,
    sg_rel_init,
    sg_rel_step,
    sg_reliability,
)
from fractal_tutte.recursion import psw_step
from fractal_tutte.scalars import MAX_LOG_GENERATION, fraction_ln

HALF = Fraction(1, 2)
PROBS = (Fraction(1, 3), HALF, Fraction(2, 3))


# -- initial conditions -----------------------------------------------------


def test_psw_init_values():
    s = psw_rel_init(HALF)
    assert s.level == 0
    assert s.r == HALF
    assert s.b == Fraction(1, 8)


def test_sg_init_values():
    s = sg_rel_init(HALF)
    assert (s.rs, s.bs, s.ts) == (HALF, Fraction(1, 8), Fraction(1, 8))


def test_init_matches_enumeration_on_triangle():
    tri = build_psw_edge_expansion(0)
    for p in PROBS:
        s = psw_rel_init(p)
        assert (s.r, s.b) == reliability_enumeration(tri, p)


def test_fixed_points():
    s = psw_rel_init(Fraction(1))
    assert (s.r, s.b) == (1, 0)
    s = psw_rel_step(s)
    assert (s.r, s.b) == (1, 0)
    dead = psw_rel_init(Fraction(0))
    assert (dead.r, dead.b) == (0, 0)


def test_probability_validation():
    with pytest.raises(DomainError):
        psw_rel_init(Fraction(3, 2))
    with pytest.raises(DomainError):
        sg_rel_init(Fraction(-1, 10))
    # log mode cannot represent the endpoint values
    with pytest.raises(DomainError):
        psw_rel_init(Fraction(1), mode="log")
    with pytest.raises(DomainError):
        psw_rel_init(Fraction(0), mode="log")


# -- one step equals exhaustive enumeration --------------------------------


def test_psw_level_one_matches_enumeration():
    g = build_psw_edge_expansion(1)
    for p in PROBS:
        s = psw_reliability(1, p)
        assert (s.r, s.b) == reliability_enumeration(g, p)


def test_psw_level_one_half_values():
    s = psw_reliability(1, HALF)
    assert s.r == Fraction(5, 16)
    assert s.b == Fraction(1, 32)


def test_sg_level_one_matches_enumeration():
    g = build_sierpinski(1)
    for p in PROBS:
        s = sg_reliability(1, p)
        r_enum, b_enum = reliability_enumeration(g, p)
        assert s.rs == r_enum
        assert s.bs == b_enum


def test_sg_level_one_half_values():
    s = sg_reliability(1, HALF)
    assert s.rs == Fraction(5, 16)
    assert s.bs == Fraction(15, 128)
    assert s.ts == Fraction(37, 256)


def test_sg_three_component_class_matches_enumeration():
    # Ts is the probability that the corners sit in three different
    # components and the subgraph has exactly three components in total.
    g = build_sierpinski(1)
    ne = len(g.edges)
    for p in PROBS:
        q = 1 - p
        total = Fraction(0)
        for mask in range(1 << ne):
            c = classify_edge_subset(g, mask)
            if c.pattern == HubPattern.ALL_APART and c.components == 3:
                m = bin(mask).count("1")
                total += p ** m * q ** (ne - m)
        assert sg_reliability(1, p).ts == total


# -- bridge to the hub-together Tutte class ---------------------------------


@pytest.mark.parametrize("n", range(0, 7))
def test_via_tutte_equals_recursion(n):
    for p in PROBS:
        assert psw_rel_via_tutte(n, p) == psw_reliability(n, p).r


def test_via_tutte_endpoints_and_guard():
    assert psw_rel_via_tutte(2, Fraction(1)) == 1
    assert psw_rel_via_tutte(2, Fraction(0)) == 0
    with pytest.raises(SizeLimitExceeded):
        psw_rel_via_tutte(MAX_VIA_TUTTE_GENERATION + 1, HALF)


# -- structural inequalities ------------------------------------------------


def test_r_plus_2b_stays_below_one_exact():
    for n in range(0, 7):
        for p in PROBS:
            s = psw_reliability(n, p)
            assert 0 < s.r < 1 and 0 <= s.b
            assert s.r + 2 * s.b < 1


def test_r_plus_2b_stays_below_one_float_grid():
    for n in (8, 10):
        for k in range(1, 100):
            s = psw_reliability(n, k / 100, mode="float")
            assert s.r + 2 * s.b < 1


def test_reliability_decreases_with_generation():
    for p in PROBS:
        prev = psw_reliability(0, p).r
        for n in range(1, 8):
            cur = psw_reliability(n, p).r
            assert cur < prev
            prev = cur


def test_sg_state_components_stay_in_unit_interval():
    for p in PROBS:
        for n in range(0, 7):
            s = sg_reliability(n, p)
            assert 0 < s.rs < 1
            assert 0 < s.bs < 1
            assert 0 < s.ts < 1


def test_gasket_is_at_least_as_reliable():
    # equality through level 1, then strictly better
    for p in PROBS:
        assert sg_reliability(0, p).rs == psw_reliability(0, p).r
        assert sg_reliability(1, p).rs == psw_reliability(1, p).r
    for n in (2, 3, 4):
        for k in range(1, 20):
            p = Fraction(k, 20)
            assert sg_reliability(n, p).rs > psw_reliability(n, p).r


def test_gasket_strictly_better_in_log_mode():
    for n in (5, 8):
        for k in range(1, 100):
            p = k / 100
            assert sg_reliability(n, p, "log").ln_rs \
                > psw_reliability(n, p, "log").ln_r


# -- scalar modes agree -----------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_log_mode_tracks_exact_mode(n):
    for p in PROBS:
        exact_ln = fraction_ln(psw_reliability(n, p).r)
        log_ln = psw_reliability(n, p, "log").ln_r
        assert abs(log_ln - exact_ln) <= 1e-10 * abs(exact_ln)
        exact_ln = fraction_ln(sg_reliability(n, p).rs)
        log_ln = sg_reliability(n, p, "log").ln_rs
        assert abs(log_ln - exact_ln) <= 1e-10 * abs(exact_ln)


def test_log_mode_survives_deep_generations():
    s = psw_reliability(30, 0.5, mode="log")
    assert math.isfinite(s.ln_r)
    assert s.ln_r < -(3 ** 20)  # far below float underflow as a probability


def test_float_mode_matches_exact_shallow():
    for n in (1, 3):
        exact = psw_reliability(n, HALF).r
        approx = psw_reliability(n, 0.5, mode="float").r
        assert approx == pytest.approx(float(exact), rel=1e-12)


# -- decay approximation ----------------------------------------------------


def test_approx_log_values():
    assert psw_rel_approx_log(1, 0.5) == pytest.approx(math.log(0.75))
    assert psw_rel_approx_log(6, 0.5) == pytest.approx(243 * math.log(0.75))
    assert psw_rel_approx_log(3, 1.0) == 0.0


def test_approx_log_validation():
    with pytest.raises(DomainError):
        psw_rel_approx_log(0, 0.5)
    with pytest.raises(DomainError):
        psw_rel_approx_log(3, 0.0)
    with pytest.raises(DomainError):
        psw_rel_approx_log(3, 1.5)


def test_approx_log_tracks_true_value():
    # the closed form captures the 3^n decay rate; its prefactor
    # underestimates |ln R| by a roughly constant factor, so pin the ratio
    # to a band.  The monotone-improvement statement lives in the
    # acceptance suite with high-precision arithmetic.
    for p in (0.3, 0.5, 0.7):
        true_ln = psw_reliability(8, p, "log").ln_r
        approx = psw_rel_approx_log(8, p)
        assert true_ln < approx < 0  # same sign, smaller magnitude
        assert 0.2 < approx / true_ln < 0.5


# -- grid and CSV formatting ------------------------------------------------


def test_compare_curves_sorts_and_validates():
    pts = compare_curves(2, [HALF, Fraction(1, 4), Fraction(3, 4)], "exact")
    assert [pt.p for pt in pts] == [Fraction(1, 4), HALF, Fraction(3, 4)]
    with pytest.raises(DomainError):
        compare_curves(2, [Fraction(0)], "exact")
    with pytest.raises(DomainError):
        compare_curves(2, [Fraction(11, 10)], "exact")


def test_curves_csv_golden():
    pts = compare_curves(
        2, [Fraction(1, 4), HALF, Fraction(3, 4)], "exact")
    assert curves_to_csv(pts) == (
        "p,R_psw,R_sg,lnR_psw,lnR_sg\n"
        "0.2500,5.87533577345e-05,1.41017153510e-04,-9.742162,-8.866629\n"
        "0.5000,4.88281250000e-02,9.91821289062e-02,-3.019449,-2.310797\n"
        "0.7500,5.42277241558e-01,7.34928366848e-01,-0.611978,-0.307982\n"
    )


def test_csv_modes_agree_to_printed_precision():
    grid = [Fraction(1, 4), HALF, Fraction(3, 4)]
    exact_rows = curves_to_csv(compare_curves(3, grid, "exact")).splitlines()
    log_rows = curves_to_csv(compare_curves(3, [float(p) for p in grid],
                                            "log")).splitlines()
    for e_row, l_row in zip(exact_rows[1:], log_rows[1:]):
        e_cells, l_cells = e_row.split(","), l_row.split(",")
        assert e_cells[0] == l_cells[0]
        # ln columns must agree exactly at 6 decimals
        assert e_cells[3:] == l_cells[3:]


def test_format_probability_exact_vs_float():
    assert format_probability(Fraction(1, 32), "exact") == "3.12500000000e-02"
    assert format_probability(1 / 32, "float") == "3.12500000000e-02"
    assert format_probability(Fraction(1), "exact") == "1.00000000000e+00"


def test_sci_from_ln():
    # log mode holds Decimals; they print correctly rounded
    assert format_probability(Decimal("0.03125"), "log") == "3.12500000000e-02"
    assert format_probability(Decimal("0.123456789012499"), "log") \
        == "1.23456789012e-01"
    # magnitudes far below float underflow must still format
    text = format_probability(Decimal("1e-3000"), "log")
    mantissa, exp = text.split("e")
    assert exp == "-3000"
    assert float(mantissa) == pytest.approx(1.0)


def test_exponent_always_signed_and_padded():
    assert format_probability(Fraction(1, 2), "exact").endswith("e-01")
    assert format_probability(Fraction(99, 100), "exact").endswith("e-01")
    assert format_probability(Fraction(1, 10 ** 12), "exact").endswith("e-12")


# -- each step is plain arithmetic, written once ----------------------------


def test_psw_rel_step_is_the_tutte_step_at_x1_y2():
    for p in PROBS:
        s = psw_reliability(2, p)
        r, b = s.r, s.b
        nxt = psw_rel_step(s)
        assert (nxt.r, nxt.b) == (r ** 3 + 6 * r ** 2 * b, 4 * r * b * b)
        assert (nxt.r, nxt.b) == psw_step(r, b, 0, 0, 1)[:2]


def test_sg_rel_step_matches_expanded_form():
    for p in PROBS:
        s = sg_reliability(2, p)
        rs, bs, ts = s.rs, s.bs, s.ts
        nxt = sg_rel_step(s)
        assert nxt.rs == rs ** 3 + 6 * rs ** 2 * bs
        assert nxt.bs == rs ** 2 * bs + rs ** 2 * ts + 7 * rs * bs ** 2
        assert nxt.ts == 3 * rs * bs ** 2 + 12 * rs * bs * ts + 14 * bs ** 3


def test_modes_hold_their_number_types():
    for mode, kind in (("exact", Fraction), ("float", float),
                       ("log", Decimal)):
        s = sg_reliability(3, HALF, mode)
        assert all(isinstance(v, kind) for v in (s.rs, s.bs, s.ts))
        assert isinstance(psw_reliability(3, HALF, mode).r, kind)


# -- log mode prints honest digits ------------------------------------------


def _enclosure(n: int, p: Fraction, rounding) -> tuple[Decimal, Decimal]:
    """(R_psw, R_sg) after n steps, every operation rounded one way.

    Both recursions only add and multiply positive numbers, so rounding
    every operation down (up) gives a lower (upper) bound on the exact
    value.
    """
    ctx = decimal.Context(prec=60, rounding=rounding,
                          Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    with decimal.localcontext(ctx):
        p = Decimal(p.numerator) / p.denominator
        r = rs = p * p * (3 - 2 * p)
        b = bs = p * (1 - p) ** 2
        ts = (1 - p) ** 3
        for _ in range(n):
            r, b = r * r * r + 6 * r * r * b, 4 * r * b * b
            rs, bs, ts = (rs * rs * rs + 6 * rs * rs * bs,
                          rs * rs * bs + rs * rs * ts + 7 * rs * bs * bs,
                          3 * rs * bs * bs + 12 * rs * bs * ts
                          + 14 * bs * bs * bs)
    return r, rs


def _rounded_12(value: Decimal) -> Decimal:
    return decimal.Context(prec=12, Emin=decimal.MIN_EMIN,
                           Emax=decimal.MAX_EMAX).plus(value)


@pytest.mark.parametrize("n", range(1, 13))
def test_log_mode_prints_correctly_rounded_digits(n):
    grid = [Fraction(k, 16) for k in range(1, 16)]
    rows = curves_to_csv(
        compare_curves(n, [float(p) for p in grid], "log")).splitlines()
    for p, row in zip(grid, rows[1:]):
        lows = _enclosure(n, p, decimal.ROUND_FLOOR)
        highs = _enclosure(n, p, decimal.ROUND_CEILING)
        for printed, low, high in zip(row.split(",")[1:3], lows, highs):
            # the exact value lies in [low, high]; when both ends round to
            # the same 12 digits, those are its correctly rounded digits
            assert _rounded_12(low) == _rounded_12(high)
            assert Decimal(printed) == _rounded_12(low), (p, printed)


def test_log_mode_ln_column_is_right_at_n30():
    grid = [Fraction(k, 16) for k in (1, 5, 8, 11, 15)]
    rows = curves_to_csv(
        compare_curves(30, [float(p) for p in grid], "log")).splitlines()
    ctx = decimal.Context(prec=60, Emin=decimal.MIN_EMIN,
                          Emax=decimal.MAX_EMAX)
    for p, row in zip(grid, rows[1:]):
        low, _ = _enclosure(30, p, decimal.ROUND_FLOOR)
        high, _ = _enclosure(30, p, decimal.ROUND_CEILING)
        printed = row.split(",")[3]
        assert f"{low.ln(ctx):.6f}" == f"{high.ln(ctx):.6f}" == printed


def test_deep_log_input_names_the_limit():
    with pytest.raises(SizeLimitExceeded, match="Decimal's exponent range"):
        psw_reliability(100, 0.5, "log")
    with pytest.raises(SizeLimitExceeded, match="exponent range"):
        sg_reliability(100, Fraction(1, 10 ** 12), "log")
    # near p = 1 nothing underflows, and the generation limit applies
    with pytest.raises(SizeLimitExceeded, match=f"n <= {MAX_LOG_GENERATION}"):
        psw_reliability(MAX_LOG_GENERATION + 1, 0.99, "log")
    deepest = psw_reliability(MAX_LOG_GENERATION, 0.99, "log")
    assert 0 < deepest.r < 1 and math.isfinite(deepest.ln_r)


def test_compare_curves_steps_only_the_families_asked_for(monkeypatch):
    from fractal_tutte import reliability

    def no_sg(state):
        raise AssertionError("sg stepped for a psw-only curve")

    monkeypatch.setattr(reliability, "sg_rel_step", no_sg)
    pts = compare_curves(2, [HALF], "exact", families=("psw",))
    assert pts[0].r_sg is None
    assert curves_to_csv(pts, ("psw",)) == (
        "p,R_psw,lnR_psw\n0.5000,4.88281250000e-02,-3.019449\n")
    with pytest.raises(DomainError):
        compare_curves(2, [HALF], "exact", families=("psw", "tree"))
