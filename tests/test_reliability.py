"""All-terminal reliability recursions for both families, their link to
the hub-together Tutte class, and the CSV formatting layer.
"""

import decimal
import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_tutte import reliability
from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import build_psw_edge_expansion, build_sierpinski
from fractal_tutte.invariants import MAX_EVAL_GENERATION, lowest_terms
from fractal_tutte.oracle import (
    partition_subgraph_sum,
    reliability_enumeration,
)
from fractal_tutte.reliability import (
    FAMILIES,
    MAX_APPROX_GENERATION,
    STEPS,
    compare_curves,
    curves_to_csv,
    format_probability,
    psw_rel_approx_log,
    psw_rel_via_tutte,
    reliability_state,
)
from fractal_tutte.recursion import psw_step
from fractal_tutte.scalars import MAX_LOG_GENERATION, fraction_ln
from helpers import div_exact_xminus1, reference_reliability_states

HALF = Fraction(1, 2)
PROBS = (Fraction(1, 3), HALF, Fraction(2, 3))
BUILDERS = {"psw": build_psw_edge_expansion, "sg": build_sierpinski}


# -- initial conditions -----------------------------------------------------


def test_psw_init_values():
    s = reliability_state("psw", 0, HALF)
    assert (s.family, s.level, s.mode) == ("psw", 0, "exact")
    assert (s.r, s.b, s.t) == (HALF, Fraction(1, 8), Fraction(1, 8))


def test_sg_init_values():
    s = reliability_state("sg", 0, HALF)
    assert (s.r, s.b, s.t) == (HALF, Fraction(1, 8), Fraction(1, 8))


def test_init_matches_enumeration_on_triangle():
    tri = build_psw_edge_expansion(0)
    for p in PROBS:
        s = reliability_state("psw", 0, p)
        assert (s.r, s.b, s.t) == reliability_enumeration(tri, p)


def test_fixed_points():
    for family in FAMILIES:
        for n in (0, 1, 2):
            s = reliability_state(family, n, Fraction(1))
            assert (s.r, s.b, s.t) == (1, 0, 0)
            dead = reliability_state(family, n, Fraction(0))
            assert (dead.r, dead.b) == (0, 0)


def test_probability_validation():
    with pytest.raises(DomainError):
        reliability_state("psw", 0, Fraction(3, 2))
    with pytest.raises(DomainError):
        reliability_state("sg", 0, Fraction(-1, 10))
    # log mode cannot represent the endpoint values
    with pytest.raises(DomainError):
        reliability_state("psw", 0, Fraction(1), mode="log")
    with pytest.raises(DomainError):
        reliability_state("psw", 0, Fraction(0), mode="log")
    with pytest.raises(DomainError, match="unknown family"):
        reliability_state("tree", 0, HALF)


def test_float_probability_is_read_as_its_nearest_small_fraction():
    # every entry point reads 0.1 as 1/10, not as the binary double
    tenth = Fraction(1, 10)
    assert reliability_state("psw", 2, 0.1).r \
        == reliability_state("psw", 2, tenth).r \
        == compare_curves(2, [0.1])[0].r["psw"]
    assert psw_rel_via_tutte(2, 0.1) == psw_rel_via_tutte(2, tenth)


# -- one step equals exhaustive enumeration --------------------------------


def test_psw_level_one_matches_enumeration():
    g = build_psw_edge_expansion(1)
    for p in PROBS:
        s = reliability_state("psw", 1, p)
        assert (s.r, s.b, s.t) == reliability_enumeration(g, p)


def test_psw_level_one_half_values():
    s = reliability_state("psw", 1, HALF)
    assert s.r == Fraction(5, 16)
    assert s.b == Fraction(1, 32)
    assert s.t == Fraction(1, 64)


def test_sg_level_one_matches_enumeration():
    g = build_sierpinski(1)
    for p in PROBS:
        s = reliability_state("sg", 1, p)
        assert (s.r, s.b, s.t) == reliability_enumeration(g, p)


def test_sg_level_one_half_values():
    s = reliability_state("sg", 1, HALF)
    assert s.r == Fraction(5, 16)
    assert s.b == Fraction(15, 128)
    assert s.t == Fraction(37, 256)


@pytest.mark.parametrize("family", FAMILIES)
def test_enumeration_reads_a_float_p_as_the_recursion_does(family):
    # Both read 0.1 as 1/10, not as the binary double next to it.
    s = reliability_state(family, 1, 0.1)
    assert (s.r, s.b, s.t) == reliability_enumeration(BUILDERS[family](1), 0.1)
    assert s.r == reliability_state(family, 1, Fraction(1, 10)).r


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("family", FAMILIES)
def test_three_component_class_matches_enumeration(family, n):
    # T is the probability that the hubs sit in three different
    # components and the subgraph has exactly three components in total.
    g = BUILDERS[family](n)
    for p in PROBS:
        assert reliability_state(family, n, p).t \
            == reliability_enumeration(g, p)[2]


# -- integer stepping equals Fraction stepping ------------------------------

EXACT_PROBS = [Fraction(k, 1024) for k in (1, 8, 337, 512, 1023)] + [
    Fraction(1, 3), Fraction(123456789, 10 ** 9), Fraction(1, 10 ** 9 + 7),
    Fraction(0), Fraction(1)]


@pytest.mark.parametrize("p", EXACT_PROBS, ids=str)
@pytest.mark.parametrize("family", FAMILIES)
def test_exact_states_equal_the_steps_on_fraction(family, p):
    # numerators over d^(3^(n+1)), reduced once, are the Fraction values
    for n, reference in enumerate(
            reference_reliability_states(family, 6, p)):
        s = reliability_state(family, n, p)
        assert (s.r, s.b, s.t) == reference


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_state_at_generation_seven_equals_the_steps_on_fraction(
        family):
    p = Fraction(123456789, 10 ** 9)
    s = reliability_state(family, 7, p)
    assert (s.r, s.b, s.t) == reference_reliability_states(family, 7, p)[7]


# -- bridge to the hub-together Tutte class ---------------------------------


@pytest.mark.parametrize("n", range(0, 7))
def test_via_tutte_equals_recursion(n):
    for p in PROBS:
        assert psw_rel_via_tutte(n, p) == reliability_state("psw", n, p).r


def test_via_tutte_endpoints_and_guard():
    assert psw_rel_via_tutte(2, Fraction(1)) == 1
    assert psw_rel_via_tutte(2, Fraction(0)) == 0
    for p in (Fraction(0), HALF, Fraction(1)):
        with pytest.raises(SizeLimitExceeded):
            psw_rel_via_tutte(MAX_EVAL_GENERATION + 1, p)


@pytest.mark.parametrize("n", [11, 12, 13])
def test_exact_mode_past_generation_ten_equals_the_tutte_route(n):
    # At p = 1/2 the bit budget admits exact mode to n = 13 (0.3 s there,
    # and 0.4 s for the Tutte route).
    assert reliability_state("psw", n, HALF).r == psw_rel_via_tutte(n, HALF)


@pytest.mark.parametrize("n", [11, 12])
def test_sg_exact_mode_past_generation_ten_prints_the_log_digits(n):
    # n = 13 (8.42110993517e-114040) is the CLI test's.
    exact, log = (reliability_state("sg", n, HALF, mode).r
                  for mode in ("exact", "log"))
    assert format_probability(exact, "exact") == format_probability(log, "log")


@pytest.mark.parametrize("mode", ["exact", "float", "log"])
def test_a_too_wide_probability_is_refused_at_once_in_every_mode(mode):
    # float mode took 32.6 s at 1e-3000000 before p was sized.
    for p in ("1e-3000000", "1e-99999999"):
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded, match="denominator is at least"):
            reliability_state("psw", 1, p, mode)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("entry", [
    lambda p: reliability_state("psw", 1, p, "float"),
    lambda p: reliability_state("sg", 1, p, "exact"),
    lambda p: reliability_enumeration(build_psw_edge_expansion(0), p),
], ids=["reliability_state.float", "reliability_state.exact",
        "reliability_enumeration"])
@pytest.mark.parametrize("p", ["1e99999999", Decimal("1e99999999"),
                               "-1e99999999"], ids=repr)
def test_a_huge_probability_is_outside_at_once(entry, p):
    # Its numerator is past every exact budget, so it is not built:
    # 10^99999999 was still being built after 20 s.
    start = time.perf_counter()
    with pytest.raises(DomainError, match=re.escape("outside [0, 1]")):
        entry(p)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p", [Fraction(10 ** 5000), Fraction(-1, 10 ** 5000)],
                         ids=["10^5000", "-10^-5000"])
def test_an_out_of_range_probability_is_named_by_sign_and_size(p):
    # str(p) is past int's 4300-digit limit; it once raised ValueError.
    for entry in (lambda: reliability_state("psw", 1, p, "float"),
                  lambda: psw_rel_via_tutte(1, p)):
        with pytest.raises(DomainError, match=re.escape(
                f"edge probability of about {'-' if p < 0 else ''}2^"
                f"{'' if p > 1 else '-'}1.661e+04 outside [0, 1]")):
            entry()


@pytest.mark.slow
@pytest.mark.parametrize("family", ["psw", "sg"])
def test_generation_two_states_match_the_hub_class_sums(family):
    # The 2^27-subset census of the generation-2 graph.  With V vertices
    # and E edges, the class of j hub components gives the state value
    # p^(V-j) (1-p)^(E-V+j) (T_j / (x-1)^(j-1))(1, 1/(1-p)), where T_1 = T1,
    # T_2 = T2C (A and B together) and T_3 = T3.
    p = Fraction(1, 3)
    g = BUILDERS[family](2)
    s = reliability_state(family, 2, p)
    t1, _, _, t2c, t3 = partition_subgraph_sum(g)
    classes = (t1, div_exact_xminus1(t2c, 1), div_exact_xminus1(t3, 2))
    nv, ne = g.num_vertices, len(g.edges)
    for j, (state, cls) in enumerate(zip((s.r, s.b, s.t), classes),
                                      start=1):
        weight = p ** (nv - j) * (1 - p) ** (ne - nv + j)
        assert state == weight * cls.eval_exact(1, 1 / (1 - p))


# -- structural inequalities ------------------------------------------------


def test_r_plus_2b_stays_below_one_exact():
    for n in range(0, 7):
        for p in PROBS:
            s = reliability_state("psw", n, p)
            assert 0 < s.r < 1 and 0 <= s.b
            assert s.r + 2 * s.b < 1


def test_r_plus_2b_stays_below_one_float_grid():
    for n in (8, 10):
        for k in range(1, 100):
            s = reliability_state("psw", n, k / 100, mode="float")
            assert s.r + 2 * s.b < 1


def test_reliability_decreases_with_generation():
    for p in PROBS:
        prev = reliability_state("psw", 0, p).r
        for n in range(1, 8):
            cur = reliability_state("psw", n, p).r
            assert cur < prev
            prev = cur


def test_sg_state_components_stay_in_unit_interval():
    for p in PROBS:
        for n in range(0, 7):
            s = reliability_state("sg", n, p)
            assert 0 < s.r < 1
            assert 0 < s.b < 1
            assert 0 < s.t < 1


def test_gasket_is_at_least_as_reliable():
    # equality through level 1, then strictly better
    def r(family, n, p):
        return reliability_state(family, n, p).r

    for p in PROBS:
        assert r("sg", 0, p) == r("psw", 0, p)
        assert r("sg", 1, p) == r("psw", 1, p)
    for n in (2, 3, 4):
        for k in range(1, 20):
            p = Fraction(k, 20)
            assert r("sg", n, p) > r("psw", n, p)


def test_gasket_strictly_better_in_log_mode():
    for n in (5, 8):
        for k in range(1, 100):
            p = k / 100
            assert reliability_state("sg", n, p, "log").ln_r \
                > reliability_state("psw", n, p, "log").ln_r


# -- scalar modes agree -----------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_log_mode_tracks_exact_mode(n):
    for family in FAMILIES:
        for p in PROBS:
            exact_ln = fraction_ln(reliability_state(family, n, p).r)
            log_ln = reliability_state(family, n, p, "log").ln_r
            assert abs(log_ln - exact_ln) <= 1e-10 * abs(exact_ln)


def test_log_mode_survives_deep_generations():
    s = reliability_state("psw", 30, 0.5, mode="log")
    assert math.isfinite(s.ln_r)
    assert s.ln_r < -(3 ** 20)  # far below float underflow as a probability


def test_float_mode_matches_exact_shallow():
    for n in (1, 3):
        exact = reliability_state("psw", n, HALF).r
        approx = reliability_state("psw", n, 0.5, mode="float").r
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


def test_approx_log_past_the_float_range_is_refused():
    assert psw_rel_approx_log(MAX_APPROX_GENERATION, 0.5) < -1e307
    with pytest.raises(SizeLimitExceeded, match="must fit a float"):
        psw_rel_approx_log(10**4, 0.5)


@pytest.mark.parametrize("n", [MAX_APPROX_GENERATION + 1, 10**4, 10**12])
def test_approx_log_at_p_one_is_zero_at_any_n(n):
    assert psw_rel_approx_log(n, 1.0) == 0.0


def test_approx_log_reads_p_exactly():
    # A float of p overflowed, failed to parse, or rounded to 0.0.
    with pytest.raises(DomainError):
        psw_rel_approx_log(3, Fraction(10 ** 5000))
    with pytest.raises(DomainError):
        psw_rel_approx_log(3, "abc")
    # ln(p (2-p)) = ln 2 - 5000 ln 10 to within p/2
    tiny = psw_rel_approx_log(3, Fraction(1, 10 ** 5000))
    assert math.isfinite(tiny)
    assert tiny == pytest.approx(9 * (math.log(2) - 5000 * math.log(10)))


def test_approx_log_tracks_true_value():
    # the closed form captures the 3^n decay rate; its prefactor
    # underestimates |ln R| by a roughly constant factor, so pin the ratio
    # to a band.  The monotone-improvement statement lives in the
    # acceptance suite with high-precision arithmetic.
    for p in (0.3, 0.5, 0.7):
        true_ln = reliability_state("psw", 8, p, "log").ln_r
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


@pytest.mark.slow
def test_generation_ten_prints_alike_in_exact_and_log_mode():
    # about 13 s: the exact states of both families and the Tutte route
    p = Fraction(123456789, 10 ** 9)
    exact, log = (compare_curves(10, [p], mode) for mode in ("exact", "log"))

    def r_cells(points):
        header, row = curves_to_csv(points).splitlines()
        return [cell for name, cell in zip(header.split(","), row.split(","))
                if name.startswith("R_")]

    assert r_cells(exact) == r_cells(log)
    assert r_cells(exact)[0] == format_probability(
        psw_rel_via_tutte(10, p), "exact")


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


def test_exact_printing_corrects_a_low_exponent_estimate():
    # num / den = 10^j exactly, but the float estimate of log10 can fall
    # below j, and then the quotient's range moves the exponent back up.
    rng = random.Random(5)
    corrected = 0
    for _ in range(200):
        den = rng.randrange(10 ** 59, 10 ** 60)
        j = rng.randrange(-20, 5)
        num, den = (den * 10 ** j, den) if j >= 0 else (den, den * 10 ** -j)
        corrected += math.floor(math.log10(num) - math.log10(den)) == j - 1
        assert reliability._fraction_sci(num, den) == ("1.00000000000", j)
    assert corrected


def _decimal_route(fr: Fraction) -> str:
    """How exact values printed before: num and den as Decimal, divided
    to 12 significant digits, half-even."""
    ctx = decimal.Context(prec=12, Emin=decimal.MIN_EMIN,
                          Emax=decimal.MAX_EMAX)
    _, digits, exp = ctx.divide(Decimal(fr.numerator),
                                Decimal(fr.denominator)).as_tuple()
    text = "".join(map(str, digits)).ljust(12, "0")
    return f"{text[0]}.{text[1:]}e{exp + len(digits) - 1:+03d}"


_DIGITS = st.integers(1, 60).flatmap(
    lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))


@settings(max_examples=150, deadline=None)
@given(_DIGITS, _DIGITS)
def test_exact_printing_equals_the_decimal_route(num, den):
    fr = Fraction(num, den)
    assert format_probability(fr, "exact") == _decimal_route(fr)


@pytest.mark.parametrize("fr,text", [
    # a tie at the 13th digit goes to the even 12th digit
    (Fraction(1000000000025, 10 ** 12), "1.00000000002e+00"),
    (Fraction(1000000000035, 10 ** 12), "1.00000000004e+00"),
    (Fraction(1234567890125, 10 ** 20), "1.23456789012e-08"),
    (Fraction(1234567890115, 10 ** 20), "1.23456789012e-08"),
    # rounding up carries into the exponent
    (Fraction(9999999999995, 10 ** 13), "1.00000000000e+00"),
    (Fraction(9999999999994, 10 ** 13), "9.99999999999e-01"),
    (Fraction(10 ** 40 - 1, 10 ** 40), "1.00000000000e+00"),
    (Fraction(10 ** 40 + 1, 10 ** 40), "1.00000000000e+00"),
    (Fraction(1), "1.00000000000e+00"),
    (Fraction(0), "0.00000000000e+00"),
    (Fraction(1, 10 ** 3000), "1.00000000000e-3000"),
    (Fraction(1, 3 * 10 ** 3000), "3.33333333333e-3001"),
] + [(Fraction(10) ** k, f"1.00000000000e{k:+03d}") for k in range(-30, 31)])
def test_exact_printing_rounds_half_even_in_integers(fr, text):
    assert format_probability(fr, "exact") == _decimal_route(fr) == text


def test_exponent_always_signed_and_padded():
    assert format_probability(Fraction(1, 2), "exact").endswith("e-01")
    assert format_probability(Fraction(99, 100), "exact").endswith("e-01")
    assert format_probability(Fraction(1, 10 ** 12), "exact").endswith("e-12")


# -- each step is plain arithmetic, written once ----------------------------


def test_psw_rel_step_is_the_tutte_step_at_x1_y2():
    for p in PROBS:
        s = reliability_state("psw", 2, p)
        r, b = s.r, s.b
        nxt = reliability_state("psw", 3, p)
        assert (nxt.r, nxt.b, nxt.t) \
            == (r ** 3 + 6 * r ** 2 * b, 4 * r * b * b, 8 * b ** 3)
        assert (nxt.r, nxt.b, nxt.t) == psw_step(r, b, 0, 0, 1)


def test_sg_rel_step_matches_expanded_form():
    for p in PROBS:
        s = reliability_state("sg", 2, p)
        r, b, t = s.r, s.b, s.t
        nxt = reliability_state("sg", 3, p)
        assert nxt.r == r ** 3 + 6 * r ** 2 * b
        assert nxt.b == r ** 2 * b + r ** 2 * t + 7 * r * b ** 2
        assert nxt.t == 3 * r * b ** 2 + 12 * r * b * t + 14 * b ** 3


def test_modes_hold_their_number_types():
    for mode, kind in (("exact", Fraction), ("float", float),
                       ("log", Decimal)):
        for family in FAMILIES:
            s = reliability_state(family, 3, HALF, mode)
            assert all(isinstance(v, kind) for v in (s.r, s.b, s.t))


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
        reliability_state("psw", 100, 0.5, "log")
    with pytest.raises(SizeLimitExceeded, match="exponent range"):
        reliability_state("sg", 100, Fraction(1, 10 ** 12), "log")
    # near p = 1 nothing underflows, and the generation limit applies
    with pytest.raises(SizeLimitExceeded, match=f"n <= {MAX_LOG_GENERATION}"):
        reliability_state("psw", MAX_LOG_GENERATION + 1, 0.99, "log")
    deepest = reliability_state("psw", MAX_LOG_GENERATION, 0.99, "log")
    assert 0 < deepest.r < 1 and math.isfinite(deepest.ln_r)


def test_deep_float_input_is_refused_before_any_step(monkeypatch):
    # n = 10^5 once stepped for 0.11 s, and n = 10^9 would have stepped
    # for about half an hour, only to print 0 and -inf.
    steps = []
    for family in FAMILIES:
        monkeypatch.setitem(STEPS, family,
                            lambda *rbt: steps.append(rbt) or rbt)
    limit = f"float mode is limited to n <= {MAX_LOG_GENERATION}"
    for n in (MAX_LOG_GENERATION + 1, 10 ** 9):
        with pytest.raises(SizeLimitExceeded, match=limit):
            reliability_state("psw", n, 0.5, "float")
        with pytest.raises(SizeLimitExceeded, match=limit):
            compare_curves(n, [0.5], "float")
    assert steps == []
    reliability_state("sg", MAX_LOG_GENERATION, 0.5, "float")
    assert len(steps) == MAX_LOG_GENERATION


@pytest.mark.parametrize("family,p,last,n", [
    ("psw", 0.5, 39, 40),
    ("psw", Fraction(1, 10 ** 12), 35, 36),
    ("psw", Fraction(1, 10 ** 12), 35, MAX_LOG_GENERATION + 1),
    ("sg", Fraction(1, 10 ** 12), 35, 36),
    ("sg", Fraction(1, 10 ** 12), 35, MAX_LOG_GENERATION + 1),
])
def test_log_underflow_names_its_generation(family, p, last, n):
    # Generation `last` is still inside Decimal's exponent range; the
    # next one is named, also when n is past the depth limit.
    assert math.isfinite(reliability_state(family, last, p, "log").ln_r)
    with pytest.raises(SizeLimitExceeded,
                       match=f"log mode: generation {last + 1} holds"):
        reliability_state(family, n, p, "log")


@pytest.mark.parametrize("mode", ["exact", "float", "log"])
def test_reliability_state_builds_one_state_per_call(monkeypatch, mode):
    built = []

    class Counting(reliability.RelState):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.level)

    monkeypatch.setattr(reliability, "RelState", Counting)
    for family in FAMILIES:
        s = reliability_state(family, 5, HALF, mode)
        assert type(s) is Counting and s.level == 5
    assert built == [5, 5]


def test_compare_curves_steps_only_the_families_asked_for(monkeypatch):
    def no_sg(r, b, t):
        raise AssertionError("sg stepped for a psw-only curve")

    monkeypatch.setitem(STEPS, "sg", no_sg)
    pts = compare_curves(2, [HALF], "exact", families=("psw",))
    assert pts[0].r.keys() == {"psw"}
    assert curves_to_csv(pts, ("psw",)) == (
        "p,R_psw,lnR_psw\n0.5000,4.88281250000e-02,-3.019449\n")
    with pytest.raises(DomainError):
        compare_curves(2, [HALF], "exact", families=("psw", "tree"))


# -- one pass over the grid -------------------------------------------------

PASS_GRID = [Fraction(15, 16), Fraction(1, 16), HALF, 0.3, Fraction(5, 7)]


@pytest.mark.parametrize("families", [FAMILIES, ("psw",)], ids="-".join)
@pytest.mark.parametrize("mode, n", [("exact", 5), ("float", 7), ("log", 12)])
def test_compare_curves_equals_reliability_state_at_every_point(
        mode, n, families):
    points = compare_curves(n, PASS_GRID, mode, families)
    assert [pt.p for pt in points] == sorted(map(float, PASS_GRID))
    for pt, p in zip(points, sorted(PASS_GRID)):
        assert pt.mode == mode and pt.r.keys() == set(families)
        for f in families:
            # repr tells a float, Fraction or Decimal and all its digits
            assert repr(pt.r[f]) == repr(reliability_state(f, n, p, mode).r)


@pytest.mark.parametrize("families", [FAMILIES, ("psw",)], ids="-".join)
@pytest.mark.parametrize("n, grid, mode, refused, match", [
    # 12 digits of denominator are too many past n = 10
    (11, [Fraction(1, 4), Fraction(533043954779, 533043954780), HALF],
     "exact", Fraction(533043954779, 533043954780), "over the budget"),
    # near p = 1 no value leaves the exponent range by n = 41
    (41, [Fraction(999, 1000), Fraction(99, 100)], "log", Fraction(99, 100),
     "limited to n <= 40"),
    (40, [HALF, 1e-12], "log", 1e-12,
     r"generation \d+ holds a value below"),
], ids=["exact budget", "log depth", "log underflow"])
def test_compare_curves_refuses_the_first_point_as_reliability_state_does(
        n, grid, mode, refused, match, families):
    with pytest.raises(SizeLimitExceeded, match=match) as expected:
        reliability_state(families[0], n, refused, mode)
    with pytest.raises(SizeLimitExceeded) as got:
        compare_curves(n, grid, mode, families)
    assert str(got.value) == str(expected.value)


def test_exact_curves_reduce_only_r(monkeypatch):
    calls = []

    def spy(N, powers):
        calls.append(powers)
        return lowest_terms(N, powers)

    monkeypatch.setattr(reliability, "lowest_terms", spy)
    grid = [Fraction(1, 3), HALF, Fraction(3, 4)]
    for families in (FAMILIES, ("psw",)):
        calls.clear()
        compare_curves(4, grid, "exact", families)
        assert len(calls) == len(grid) * len(families)
    calls.clear()
    reliability_state("sg", 4, HALF)
    assert len(calls) == 3
