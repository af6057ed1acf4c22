"""End-to-end coverage of the command-line interface: output formats,
exit codes, grid parsing, idempotent file writes, and the no-partial-file
guarantee.
"""

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from fractal_tutte import cli, oracle, reliability, scalars
from fractal_tutte.bipoly import BiPoly
from fractal_tutte.cli import MAX_GRID_POINTS, _parse_grid, main
from fractal_tutte.cli import UsageError
from fractal_tutte.errors import SizeLimitExceeded
from fractal_tutte.graphs import (
    BYTES_PER_EDGE,
    build_psw_edge_expansion,
    from_edge_list,
    psw_edge_count,
    to_edge_list,
)
from fractal_tutte.invariants import (
    decimal_str,
    eval_tutte_at_point,
    spanning_trees_closed_form,
)
from fractal_tutte.recursion import tutte_psw
from fractal_tutte.scalars import MAX_DENOMINATOR, bits
from helpers import P61, json_terms_mod, psw_tutte_mod, tutte_json

ROOT = Path(__file__).resolve().parent.parent

#: SHA-256 of ``tutte --n k`` on stdout, recorded from an earlier,
#: independently written (expanded 20-term) form of the recursion step.
TUTTE_SHA256 = {
    (0, "json"): "0fec1f8c06984f61412d93aa2df4d44ec4988668348823941631e2a333264231",
    (0, "text"): "bd00431a465454605ca9e4f9102f59aa98644223ac48b82792a0f43b457dfb88",
    (1, "json"): "3b863453b84121f58c0808e4a86556df9bf4b7e3ee8a78fae676cef014b746f4",
    (1, "text"): "42b4a8370b752b053f7214fae6699acb86742bf7c8dc3f38283ae774b0075ad7",
    (2, "json"): "06fff70272984cc433d9dd44ea123658666fa3fc4074a1ec62046b391d5ac361",
    (2, "text"): "568aa7d05731c4c01c998c68d3577b7eddd81943d0807a211accfe2e6ec1b6ba",
    (3, "json"): "b6e56590063d99f4844ff0782e13635d5b005a5f30c4d91d6092461b31328a96",
    (3, "text"): "f80000662db24ba0ca5108cef47d70fc3bcfccdcd7c0af413c1de68782bbaa6a",
    (4, "json"): "8543d825936437d48724f982a87b7bfae86f4c70e54aff39b11c29649872c823",
    (4, "text"): "0095022ce4ad65e9965cebb56872d2944b592a034a8d971025656c4a0cc36307",
    (5, "json"): "7fb044b93299a46ebdb0802f4dafc8c19f21559003c58706091d44dee70345e8",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- generate ---------------------------------------------------------------


def test_generate_psw_stdout(capsys):
    code, out, err = run(capsys, "generate", "--family", "psw", "--n", "1")
    assert code == 0
    assert err == ""
    assert out == to_edge_list(build_psw_edge_expansion(1))


def test_generate_sg_round_trips(capsys):
    code, out, _ = run(capsys, "generate", "--family", "sg", "--n", "2")
    assert code == 0
    g = from_edge_list(out)
    degs = g.degrees()
    assert [degs[h] for h in g.hubs] == [2, 2, 2]
    assert len(g.edges) == 27


def test_generate_to_file_is_idempotent(tmp_path, capsys):
    target = tmp_path / "g1.txt"
    code, out, _ = run(capsys, "generate", "--family", "psw", "--n", "1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    first = target.read_bytes()
    code, _, _ = run(capsys, "generate", "--family", "psw", "--n", "1",
                     "--out", str(target))
    assert code == 0
    assert target.read_bytes() == first
    assert first.decode() == to_edge_list(build_psw_edge_expansion(1))


def test_out_file_has_the_mode_of_a_plain_write(tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        target = tmp_path / "g.txt"
        run(capsys, "generate", "--family", "psw", "--n", "1",
            "--out", str(target))
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(umask)
    assert (target.stat().st_mode
            == (tmp_path / "plain.txt").stat().st_mode == 0o100644)


def test_failed_out_names_the_path_given(tmp_path, capsys):
    # The error names --out, not the temporary file beside it.
    target = str(tmp_path / "no-such-dir" / "x")
    code, out, err = run(capsys, "generate", "--family", "psw", "--n", "1",
                         "--out", target)
    assert code == 1
    assert out == ""
    assert repr(target) in err
    assert ".fractal-tutte-" not in err


def test_out_naming_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    code, out, err = run(capsys, "generate", "--family", "psw", "--n", "1",
                         "--out", str(target))
    assert code == 1
    assert out == ""
    assert repr(str(target)) in err
    assert os.listdir(tmp_path) == ["dir"]
    assert os.listdir(target) == []


@pytest.mark.parametrize("key", ["generate.psw.9", "generate.sg.9",
                                 "generate.psw.10"])
def test_generate_matches_the_benchmark_golden_digest(tmp_path, capsys, key):
    # perfbench/golden.json holds the SHA-256 of "generate.<family>.<n>".
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    _, family, n = key.split(".")
    target = tmp_path / key
    code, _, _ = run(capsys, "generate", "--family", family, "--n", n,
                     "--out", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == golden[key]


@pytest.mark.slow
@pytest.mark.parametrize("family", ["psw", "sg"])
def test_generate_12_peak_bytes_per_edge(tmp_path, family):
    # The child's peak (VmHWM) above its RSS once the package and numpy
    # are loaded, per edge of G(12), is held to the builders' estimate.
    script = ("import re, sys\n"
              "from fractal_tutte import graphs\n"
              "from fractal_tutte.cli import main\n"
              "graphs.build_psw_edge_expansion(0)  # loads numpy\n"
              "def kib(field):\n"
              "    status = open('/proc/self/status').read()\n"
              "    return re.search(field + r':\\s*(\\d+) kB', status)[1]\n"
              "base = kib('VmRSS')\n"
              "code = main(['generate', '--family', sys.argv[1], '--n', '12',\n"
              "             '--out', sys.argv[2]])\n"
              "print(code, base, kib('VmHWM'))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "g12.txt"
    done = subprocess.run([sys.executable, "-c", script, family, str(out)],
                          env=env, capture_output=True, text=True, check=True)
    code, base, peak = map(int, done.stdout.split())
    assert code == 0
    edges = psw_edge_count(12)
    assert out.read_bytes().count(b"\n") == edges + 2
    assert (peak - base) * 1024 / edges <= BYTES_PER_EDGE


# -- tutte ------------------------------------------------------------------


def test_tutte_json(capsys):
    code, out, _ = run(capsys, "tutte", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "psw"
    assert doc["n"] == 1
    assert BiPoly.from_json_dict(doc["polynomial"]) == tutte_psw(1)


def test_tutte_text(capsys):
    code, out, _ = run(capsys, "tutte", "--n", "0", "--format", "text")
    assert code == 0
    assert out.strip() == "x^2 + x + y"


@pytest.mark.parametrize("n,fmt", list(TUTTE_SHA256))
def test_tutte_output_digest(capsys, n, fmt):
    code, out, _ = run(capsys, "tutte", "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TUTTE_SHA256[n, fmt]


@pytest.mark.parametrize("n", range(5))
def test_tutte_json_is_the_json_module_text(capsys, n):
    # The JSON is written directly from the terms, in json.dumps' bytes.
    code, out, _ = run(capsys, "tutte", "--n", str(n))
    assert code == 0
    assert out == tutte_json(n, tutte_psw(n))


def _check_printed_tutte_mod_p(capsys, n):
    """The printed terms of ``tutte --n n`` at seeded points mod 2^61 - 1,
    against the (u, w) step run on ints mod p, which shares no product
    code with BiPoly; and a copy with one coefficient raised by 1, which
    moves each value by x^dx y^dy, never 0, against the same values."""
    code, out, _ = run(capsys, "tutte", "--n", str(n))
    assert code == 0
    terms = json.loads(out)["polynomial"]["terms"]
    rng = random.Random(2024)
    points = [(rng.randrange(2, P61), rng.randrange(2, P61)) for _ in range(3)]
    values = [psw_tutte_mod(n, x, y) for x, y in points]
    assert [json_terms_mod(terms, x, y) for x, y in points] == values
    bumped = [dict(t) for t in terms]
    term = bumped[rng.randrange(len(bumped))]
    term["coeff"] = str(int(term["coeff"]) + 1)
    for (x, y), value in zip(points, values):
        assert json_terms_mod(bumped, x, y) != value


def test_printed_tutte_4_is_the_recursion_mod_p(capsys):
    _check_printed_tutte_mod_p(capsys, 4)


@pytest.mark.slow
def test_printed_tutte_5_is_the_recursion_mod_p(capsys):
    _check_printed_tutte_mod_p(capsys, 5)


def test_tutte_json_of_the_zero_polynomial():
    assert cli._tutte_json(3, BiPoly.zero()) == tutte_json(3, BiPoly.zero())


#: Bound on the peak RSS of ``tutte --n 5 --format json``, which is 106 MB
#: on CPython 3.11 (117 MB when products were read back through whole-string
#: copies).  A whole copy of the largest product's digits as bytes and a
#: bool per digit, both alive while the product is read, reach 122 MB.
TUTTE_5_MAX_RSS_MB = 115

#: SHA-256 of ``tutte --n 6 --format json``, the symbolic limit, and a
#: bound on its peak RSS, which is 1,535 MB on CPython 3.11.
TUTTE_6_JSON_SHA256 = (
    "dd4f52fcfa874ac44688ea82c62a7602d9e3b1ef2d2ddea5d45632b77acda400")
TUTTE_6_MAX_RSS_MB = 1600


def _tutte_json_in_child(tmp_path, n):
    """(SHA-256 of ``tutte --n n --format json``, its peak RSS in MB).

    The child reports its own peak, VmHWM: its ru_maxrss would also
    count this process's size when it forked, kept across the exec.
    """
    script = ("import re, sys\n"
              "from fractal_tutte.cli import main\n"
              "code = main(['tutte', '--n', sys.argv[1], '--format', 'json',\n"
              "             '--out', sys.argv[2]])\n"
              "status = open('/proc/self/status').read()\n"
              "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / f"t{n}.json"
    done = subprocess.run([sys.executable, "-c", script, str(n), str(out)],
                          env=env, capture_output=True, text=True, check=True)
    code, kib = map(int, done.stdout.split())
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest(), kib / 1024


@pytest.mark.slow
def test_tutte_5_peak_memory(tmp_path):
    digest, mb = _tutte_json_in_child(tmp_path, 5)
    assert digest == TUTTE_SHA256[5, "json"]
    assert mb < TUTTE_5_MAX_RSS_MB


@pytest.mark.slow
def test_tutte_6_digest_and_peak_memory(tmp_path):
    # About two minutes and 1.5 GB.
    digest, mb = _tutte_json_in_child(tmp_path, 6)
    assert digest == TUTTE_6_JSON_SHA256
    assert mb < TUTTE_6_MAX_RSS_MB


def test_tutte_beyond_guard_fails_cleanly(capsys):
    code, out, err = run(capsys, "tutte", "--n", "12")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_console_script_runs_main():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, _, name = project["scripts"]["fractal-tutte"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


# -- eval -------------------------------------------------------------------


def test_eval_integer_point(capsys):
    code, out, _ = run(capsys, "eval", "--n", "2", "--x", "1", "--y", "1")
    assert code == 0
    assert out.strip() == "209952"


def test_eval_rational_point(capsys):
    code, out, _ = run(capsys, "eval", "--n", "1", "--x", "1/3", "--y", "2")
    assert code == 0
    expected = tutte_psw(1).eval_exact(Fraction(1, 3), Fraction(2))
    assert out.strip() == str(expected) == "17176/243"


def test_eval_has_no_mode_option(capsys):
    # eval is exact only; float and log modes belong to reliability.
    with pytest.raises(SystemExit) as info:
        main(["eval", "--n", "1", "--x", "1", "--y", "1", "--mode", "exact"])
    assert info.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_eval_prints_values_beyond_int_str_limit(capsys):
    # T_10(1,1) has about 34k digits, past Python's 4300-digit
    # int-to-str default.
    code, out, _ = run(capsys, "eval", "--n", "10", "--x", "1", "--y", "1")
    assert code == 0
    assert Decimal(out) == spanning_trees_closed_form(10)
    code, out, _ = run(capsys, "eval", "--n", "9", "--x", "1/3", "--y", "2")
    assert code == 0
    value = eval_tutte_at_point(9, Fraction(1, 3), 2)
    num, den = out.split("/")
    assert len(num) > 4300 and len(den) > 4300
    assert (Decimal(num), Decimal(den)) == (value.numerator, value.denominator)


def test_eval_rejects_malformed_rational():
    with pytest.raises(SystemExit) as info:
        main(["eval", "--n", "1", "--x", "one", "--y", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("x", ["1e-999999999", "1e999999999",
                               "-2.5e-999999999"])
def test_eval_refuses_a_huge_exponent_before_building_it(capsys, x):
    # 10^999999999 would take minutes to build; the sizes read from the
    # exponent are refused at once.
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--n", "1", f"--x={x}", "--y", "2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "predicted at" in err and "bits, over the budget" in err


@pytest.mark.parametrize("x,y", [("1e-2000", "2"), ("2.5e-1500", "7e3"),
                                 ("-4e2", "1e-40"), ("0.125", "1/3")])
def test_eval_reads_decimal_notation_exactly(capsys, x, y):
    code, out, _ = run(capsys, "eval", "--n", "1", f"--x={x}", f"--y={y}")
    value = eval_tutte_at_point(1, Fraction(x), Fraction(y))
    num, _, den = out.partition("/")
    assert code == 0
    assert (Decimal(num), Decimal(den or 1)) == (value.numerator,
                                                 value.denominator)


#: Long coefficients: 1.11...1 = (10^5001 - 1) / (9 10^5000) and
#: 33...3 = (10^5000 - 1) / 3, written without int(str)'s 4300-digit limit.
LONG_COORDINATES = {
    "1." + "1" * 5000: Fraction(10 ** 5001 - 1, 9 * 10 ** 5000),
    "1/" + "3" * 5000: Fraction(3, 10 ** 5000 - 1),
    "-" + "7" * 5000 + "e-4990": Fraction(-7 * (10 ** 5000 - 1), 9 * 10 ** 4990),
    "0.5" + "0" * 5000: Fraction(1, 2),
}


@pytest.mark.parametrize("text", [
    "1", "2", "0", "-1", "1e0", "3e1", "-7e5", "0.5", "1e-9", "2.5e-40",
    "1024e-10", "-0.0001", "125e-3", "1000000e-6", "1/3", "-22/7",
    *LONG_COORDINATES], ids=lambda text: text[:12])
def test_shifted_bits_bound_the_exact_sizes(text):
    # The sizes read_exact predicts from the digits of a typed coordinate,
    # before it builds one integer, never exceed those of the number: at
    # a budget of its exact width it is read, and a bit less refuses it.
    value = LONG_COORDINATES.get(text) or Fraction(text)
    width = max(bits(value.numerator), bits(value.denominator))
    assert scalars.read_exact(cli._rational(text), width, "x") == value
    if width > 0:
        with pytest.raises(SizeLimitExceeded, match="over the budget"):
            scalars.read_exact(cli._rational(text), width - 1e-9, "x")


@pytest.mark.parametrize("x", list(LONG_COORDINATES)[:2], ids=["1.1...1",
                                                               "1/3...3"])
def test_eval_reads_long_coefficients(capsys, x):
    # The first once ended in int(str)'s traceback, the second in exit 2.
    code, out, _ = run(capsys, "eval", "--n", "1", "--x", x, "--y", "2")
    value = eval_tutte_at_point(1, LONG_COORDINATES[x], 2)
    assert (code, out) == (0, f"{decimal_str(value.numerator)}/"
                              f"{decimal_str(value.denominator)}\n")


@pytest.mark.parametrize("args", [
    ("eval", "--n", "1", "--x", "x" * 5000, "--y", "2"),
    ("reliability", "--n", "2", "--p-grid", "0." + "3" * 5000),
    ("reliability", "--n", "2", "--p-grid", "0.5:" + "9" * 5000 + ":0.1"),
    ("reliability", "--families", "tree" * 1000, "--n", "2", "--p-grid", "0.5"),
], ids=["rational", "grid value", "grid range", "families"])
def test_errors_quote_a_long_argument_in_part(capsys, args):
    try:
        code, out, err = run(capsys, *args)
    except SystemExit as exc:
        code, err = exc.code, capsys.readouterr().err
    assert code == 2
    assert f"... ({len(max(args, key=len))} characters)" in err
    assert len(err.splitlines()[-1]) < 200


# -- invariants -------------------------------------------------------------


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "n": 1,
        "spanning_trees": "54",
        "connected_spanning_subgraphs": "160",
        "spanning_forests": "279",
        "acyclic_orientations": "162",
        "all_subgraphs": "512",
    }


# -- reliability ------------------------------------------------------------


def test_reliability_both_families(capsys):
    code, out, _ = run(capsys, "reliability", "--n", "2",
                       "--p-grid", "0.25:0.75:0.25")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,R_psw,R_sg,lnR_psw,lnR_sg"
    assert len(lines) == 4
    assert lines[1].startswith("0.2500,")


def test_reliability_single_family(capsys):
    code, out, _ = run(capsys, "reliability", "--families", "psw", "--n", "2",
                       "--p-grid", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,R_psw,lnR_psw"
    assert lines[1] == "0.5000,4.88281250000e-02,-3.019449"


def test_reliability_log_mode_deep(capsys):
    code, out, _ = run(capsys, "reliability", "--n", "12",
                       "--p-grid", "0.5", "--mode", "log")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[3]) < -50000  # ln R far beyond double underflow


def test_reliability_exact_mode_runs_to_its_budget(capsys):
    # At p = 1/2 the denominator's bit budget admits n = 13 (about 2 s for
    # both families), and the output equals log mode's.
    args = ("reliability", "--n", "13", "--p-grid", "0.5", "--mode")
    code, out, _ = run(capsys, *args, "exact")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "8.42110993517e-114040"
    assert run(capsys, *args, "log") == (0, out, "")
    code, out, err = run(capsys, "reliability", "--n", "14", "--p-grid",
                         "0.5", "--mode", "exact")
    assert (code, out) == (1, "")
    assert "over the budget" in err


def test_reliability_file_idempotent(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    args = ("reliability", "--n", "3", "--p-grid", "0.1:0.9:0.1",
            "--out", str(target))
    assert run(capsys, *args)[0] == 0
    first = target.read_bytes()
    assert run(capsys, *args)[0] == 0
    assert target.read_bytes() == first
    assert len(first.decode().splitlines()) == 10


def test_reliability_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "reliability", "--families", "psw,tree",
                       "--n", "2", "--p-grid", "0.5")
    assert code == 2
    assert "tree" in err


def test_reliability_out_of_range_grid_value(capsys):
    # A single value outside (0, 1) is a usage error, as a range is.
    for value in ("0", "1", "1.5", "-0.2"):
        code, out, err = run(capsys, "reliability", "--n", "2",
                             "--p-grid", value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "strictly inside (0, 1)" in err


@pytest.mark.parametrize("n", ["100", "700"])
def test_reliability_deep_log_mode_exits_1_naming_the_limit(capsys, n):
    code, out, err = run(capsys, "reliability", "--n", n, "--mode", "log",
                         "--p-grid", "0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: log mode")
    assert "exponent range" in err


def test_reliability_log_mode_generation_limit(capsys):
    code, out, err = run(capsys, "reliability", "--n", "41", "--mode", "log",
                         "--p-grid", "0.99")
    assert code == 1
    assert out == ""
    assert "n <= 40" in err


def test_reliability_deep_float_mode_exits_1_naming_the_limit(capsys):
    code, out, err = run(capsys, "reliability", "--n", "1000000000",
                         "--mode", "float", "--p-grid", "0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: float mode is limited to n <= 40")


def test_reliability_single_family_output_matches_both_family_columns(capsys):
    _, both, _ = run(capsys, "reliability", "--n", "3", "--p-grid",
                     "0.1:0.9:0.2", "--mode", "log")
    _, sg, _ = run(capsys, "reliability", "--families", "sg,sg", "--n", "3",
                   "--p-grid", "0.1:0.9:0.2", "--mode", "log")
    for row, sg_row in zip(both.splitlines(), sg.splitlines()):
        cells = row.split(",")
        assert sg_row.split(",") == [cells[0], cells[2], cells[4]]


# -- grid parsing -----------------------------------------------------------


def test_parse_grid_single_value():
    assert _parse_grid("0.5") == [Fraction(1, 2)]


def test_parse_grid_inclusive_endpoints():
    assert _parse_grid("0.1:0.3:0.1") == [Fraction(1, 10), Fraction(2, 10),
                                          Fraction(3, 10)]


def test_parse_grid_reads_typed_decimals_exactly():
    # Not the nearest fraction to a double: 0.123456789 once ran at
    # 65807895053/533043954780.
    assert _parse_grid("0.123456789") == [Fraction(123456789, 10**9)]
    # 13 decimals that reduce to 1/8192, within the denominator bound.
    assert _parse_grid("0.0001220703125") == [Fraction(1, 8192)]
    assert _parse_grid("0.25:0.5:1e-1") == [Fraction(1, 4), Fraction(7, 20),
                                            Fraction(9, 20)]


def test_parse_grid_ninety_nine_points():
    assert len(_parse_grid("0.01:0.99:0.01")) == 99


def test_parse_grid_makes_the_points_it_counts():
    # A step of 1e-12 reaches stop after ten steps; a tolerance test on
    # the float sum once added a hundred copies of stop.
    grid = _parse_grid("0.3:0.30000000001:0.000000000001")
    assert grid == [Fraction(3, 10) + Fraction(k, 10**12) for k in range(11)]


def test_parse_grid_rejects_malformed():
    with pytest.raises(UsageError):
        _parse_grid("1:2")
    with pytest.raises(UsageError):
        _parse_grid("0.1:0.9:0")
    with pytest.raises(UsageError):
        _parse_grid("0.1:0.9:-0.1")


@pytest.mark.parametrize("grid", ["0:1:0.5", "0.5:1:0.25", "abc",
                                  "0.1:0.9:x", "nan", "0.1:inf:0.1",
                                  "0.5:0.2:0.1"])
def test_cli_bad_grid_arguments_exit_2(capsys, grid):
    code, out, err = run(capsys, "reliability", "--n", "2", "--p-grid", grid)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("grid,count", [("0.1:0.9:1e-12", "8.00e+11"),
                                        ("0.1:0.9:8e-7", "1.00e+6")])
def test_cli_grid_point_cap_exits_2(capsys, grid, count):
    # Refused before a single point is made, so asking is cheap.
    code, out, err = run(capsys, "reliability", "--n", "2", "--p-grid", grid)
    assert code == 2
    assert out == ""
    assert f"about {count} points" in err
    assert f"limit of {MAX_GRID_POINTS}" in err


def _grid_refused_at_once(capsys, grid):
    start = time.perf_counter()
    code, out, err = run(capsys, "reliability", "--n", "2", "--p-grid", grid)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"denominator at most {MAX_DENOMINATOR}" in err


def test_cli_subnormal_grid_ends_at_once(capsys):
    # Refused by the denominator bound before any point is made; counting
    # by a tolerance test on the float sum once never stopped, and a float
    # reading once ended in exit 1 from compare_curves.
    _grid_refused_at_once(capsys, "1e-320:1e-319:1e-320")


@pytest.mark.parametrize("grid", ["1e-999999999", "0.5:0.6:1e-999999999"])
def test_cli_tiny_grid_exponent_ends_at_once(capsys, grid):
    # Refused before 10^999999999 is built.
    _grid_refused_at_once(capsys, grid)


@pytest.mark.parametrize("value", ["1e-13", "0.9999999999999"])
def test_cli_grid_value_past_the_denominator_bound_exits_2(capsys, value):
    # Once read through a float, each ran at a neighbour with a smaller
    # denominator, or was refused as outside (0, 1) with exit 1.
    code, out, err = run(capsys, "reliability", "--n", "2", "--p-grid", value)
    assert code == 2
    assert out == ""
    assert f"grid value {value!r} is not a fraction" in err
    assert f"denominator at most {MAX_DENOMINATOR}" in err


def test_cli_grid_errors_exit_2(capsys):
    code, _, err = run(capsys, "reliability", "--n", "2", "--p-grid", "1:2")
    assert code == 2
    assert err.startswith("error:")


# -- oracle -----------------------------------------------------------------


def test_oracle_text_psw(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


def test_oracle_json_sg_skips_recursion(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "sg", "--n", "1",
                       "--format", "json")
    assert code == 0
    entries = json.loads(out)
    by_name = {e["check"]: e for e in entries}
    assert by_name["recursion"]["status"] == "skip"
    assert by_name["partition"]["status"] == "pass"
    assert by_name["matrix-tree"]["status"] == "pass"
    assert set(entries[0]) == {"check", "status", "detail"}


def test_oracle_subset_of_checks(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "0",
                       "--check", "matrix-tree,partition")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_oracle_skips_oversized_checks(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "3",
                       "--check", "deletion-contraction,reliability")
    assert code == 0
    assert out.splitlines() == [
        "SKIP deletion-contraction: 81 edges exceed the recursion limit 12",
        "SKIP reliability: 81 edges exceed the enumeration limit 27"]


#: ``oracle --n 2``'s T(1,1) and R at p = 1/2 by family.
GENERATION_TWO = {"psw": ("209952", "25/512"), "sg": ("524880", "1625/16384")}


@pytest.mark.slow
@pytest.mark.parametrize("family", ["psw", "sg"])
def test_oracle_reliability_at_generation_two(capsys, family):
    # 27 edges: within the one subset-enumeration limit.
    code, out, _ = run(capsys, "oracle", "--family", family, "--n", "2",
                       "--check", "all")
    assert code == 0
    trees, r = GENERATION_TWO[family]
    assert out.splitlines() == [
        "PASS recursion: subgraph sum over 2^27 subsets matches the "
        "recursion polynomial" if family == "psw" else
        "SKIP recursion: no Tutte recursion is implemented for sg",
        "PASS partition: class sums recombine and the three two-hub classes "
        "are equal",
        "SKIP deletion-contraction: 27 edges exceed the recursion limit 12",
        f"PASS matrix-tree: Laplacian cofactor = T(1,1) = {trees}",
        f"PASS reliability: enumeration equals the Tutte bridge at p=1/2 "
        f"(R = {r})"]


@pytest.mark.parametrize("family", ["psw", "sg"])
def test_oracle_counts_the_subsets_once(capsys, monkeypatch, family):
    calls = []
    census = oracle._census

    def counted(*args):
        calls.append(args)
        return census(*args)

    monkeypatch.setattr(oracle, "_census", counted)
    code, out, _ = run(capsys, "oracle", "--family", family, "--n", "1")
    assert code == 0
    assert out.count("PASS") == (5 if family == "psw" else 4)
    assert len(calls) == 1


@pytest.mark.parametrize("family", ["psw", "sg"])
def test_oracle_beyond_enumeration_limits_skips(capsys, family):
    code, out, _ = run(capsys, "oracle", "--family", family, "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("SKIP") for line in lines)
    by_name = {line.split()[1].rstrip(":"): line for line in lines}
    for name in ("partition", "matrix-tree"):
        assert "81 edges exceed the enumeration limit 27" in by_name[name]
    if family == "psw":
        assert "81 edges" in by_name["recursion"]


def test_oracle_matrix_tree_vertex_limit_skips(capsys):
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "4",
                       "--check", "matrix-tree")
    assert code == 0
    assert out == ("SKIP matrix-tree: 123 vertices exceed the "
                   "matrix-tree limit 64\n")


@pytest.mark.parametrize("family", ["psw", "sg"])
def test_oracle_refuses_by_size_before_building(capsys, monkeypatch, family):
    # 3^14 edges: every check is refused by the closed-form sizes, so the
    # graph is never built.
    def refuse(args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "_build", refuse)
    code, out, _ = run(capsys, "oracle", "--family", family, "--n", "13")
    assert code == 0
    assert out.splitlines() == [
        "SKIP recursion: 4782969 edges exceed the enumeration limit 27"
        if family == "psw" else
        "SKIP recursion: no Tutte recursion is implemented for sg",
        "SKIP partition: 4782969 edges exceed the enumeration limit 27",
        "SKIP deletion-contraction: 4782969 edges exceed the recursion "
        "limit 12",
        "SKIP matrix-tree: 2391486 vertices exceed the matrix-tree limit 64",
        "SKIP reliability: 4782969 edges exceed the enumeration limit 27"]


def test_oracle_builds_only_for_a_check_that_fits(capsys, monkeypatch):
    built = []
    build = cli._build
    monkeypatch.setattr(cli, "_build", lambda args: built.append(args.n)
                        or build(args))
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "3",
                       "--check", "deletion-contraction,reliability")
    assert code == 0 and built == []
    # 42 vertices fit the matrix-tree limit: the graph is built, and then
    # its census is refused.
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "3",
                       "--check", "matrix-tree")
    assert out == "SKIP matrix-tree: 81 edges exceed the enumeration limit 27\n"
    assert built == [3]


def test_oracle_past_the_build_limit_exits_1(capsys):
    code, out, err = run(capsys, "oracle", "--family", "sg", "--n", "14")
    assert code == 1
    assert out == ""
    with pytest.raises(SizeLimitExceeded) as info:
        build_psw_edge_expansion(14)
    assert err == f"error: {info.value}\n"


def _refusal(oracle_fn, *args) -> str:
    with pytest.raises(SizeLimitExceeded) as info:
        oracle_fn(*args)
    return str(info.value)


def test_oracle_skip_details_are_the_oracle_guards_messages(capsys):
    g3 = build_psw_edge_expansion(3)
    census = _refusal(oracle.tutte_subgraph_sum, g3)
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "3",
                       "--format", "json")
    assert code == 0
    assert {e["check"]: (e["status"], e["detail"])
            for e in json.loads(out)} == {
        "recursion": ("skip", census),
        "partition": ("skip", _refusal(oracle.partition_subgraph_sum, g3)),
        "deletion-contraction":
            ("skip", _refusal(oracle.tutte_deletion_contraction, g3)),
        # 42 vertices pass the matrix-tree guard; its T(1,1) census does not.
        "matrix-tree": ("skip", census),
        "reliability": ("skip", _refusal(oracle.reliability_enumeration,
                                         g3, Fraction(1, 2))),
    }
    code, out, _ = run(capsys, "oracle", "--family", "psw", "--n", "4",
                       "--check", "matrix-tree")
    assert code == 0
    assert out == ("SKIP matrix-tree: " + _refusal(
        oracle.matrix_tree_count, build_psw_edge_expansion(4)) + "\n")


def test_readme_examples_run(tmp_path, monkeypatch):
    # The README checker is shared with the benchmark, which re-runs the
    # same examples.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from readme import readme_failures

    ran, failures = readme_failures(cli, ROOT / "README.md", tmp_path)
    assert ran > 0
    assert failures == []


def test_oracle_unknown_check(capsys):
    code, _, err = run(capsys, "oracle", "--family", "psw", "--n", "1",
                       "--check", "chromatic")
    assert code == 2
    assert "chromatic" in err


@pytest.mark.parametrize("checks", [",", " "])
def test_oracle_empty_check_list(capsys, checks):
    code, out, err = run(capsys, "oracle", "--family", "psw", "--n", "1",
                         "--check", checks)
    assert code == 2
    assert out == ""
    assert "--check" in err


def test_oracle_unknown_family_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--family", "kagome", "--n", "1"])
    assert info.value.code == 2


# -- failure hygiene --------------------------------------------------------


def test_negative_generation_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["tutte", "--n", "-1"])
    assert info.value.code == 2


def test_failed_run_leaves_no_partial_file(tmp_path, capsys):
    target = tmp_path / "never.json"
    code, _, err = run(capsys, "tutte", "--n", "12", "--out", str(target))
    assert code == 1
    assert err.startswith("error:")
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_unwritable_output_reports_one_line(capsys):
    code, _, err = run(capsys, "tutte", "--n", "1",
                       "--out", "/nonexistent-dir/out.json")
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1


# -- start-up: numpy runs only where arrays are built -------------------------

#: Runs each argv of sys.argv[1] (JSON) through ``main`` in order and
#: prints, per argv, its output and the numpy submodules loaded after it;
#: the first entry is the state after the imports alone.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from fractions import Fraction
import fractal_tutte
from fractal_tutte import cli, reliability

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

report = [("import", numpy_modules())]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if argv[0] == "psw_rel_via_tutte":
            print(reliability.psw_rel_via_tutte(4, Fraction(1, 3)))
        else:
            assert cli.main(argv) == 0
    report.append((out.getvalue(), numpy_modules()))
print(json.dumps(report))
"""

_SCALAR_ARGVS = [
    ["eval", "--n", "5", "--x", "2", "--y", "2"],
    ["eval", "--n", "3", "--x", "1/3", "--y", "2/5"],
    ["invariants", "--n", "4"],
    *(["reliability", "--n", "3", "--p-grid", "0.25:0.75:0.25", "--mode", m]
      for m in ("exact", "float", "log")),
    ["psw_rel_via_tutte"],
]


def _in_child(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    argvs = [["reliability", "--n", "2"],  # no --p-grid: a usage error
             ["reliability", "--n", "3", "--p-grid", "0.1:0.9:0.2"],
             ["tutte", "--n", "1"],
             ["reliability", "--n", "2"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    alone = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(outcome(argv))
    assert [code for code, _, _ in alone] == [2, 0, 0, 2]
    build, built = cli._build_parser, []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: built.append(1) or build())
    assert [outcome(argv) for argv in argvs] == alone
    assert len(built) == 1


def test_scalar_commands_run_no_numpy(capsys):
    array_argvs = [["tutte", "--n", "3"],
                   ["generate", "--family", "psw", "--n", "2"]]
    report = _in_child(_NUMPY_PROBE, json.dumps(_SCALAR_ARGVS + array_argvs))
    # No numpy code ran: numpy is at most a lazy module not yet loaded.
    assert [loaded for _, loaded in report[:-2]] == [[]] * (1 + len(_SCALAR_ARGVS))
    outputs = [out for out, _ in report[1:]]
    for argv, out in zip(_SCALAR_ARGVS[:-1], outputs):
        assert run(capsys, *argv) == (0, out, "")
    assert outputs[0] == f"{2 ** 729}\n"  # T(2, 2) = 2^E, E_5 = 3^6
    assert outputs[len(_SCALAR_ARGVS) - 1] == (
        f"{reliability.psw_rel_via_tutte(4, Fraction(1, 3))}\n")
    # The first Kronecker product of tutte loads numpy.
    tutte, generate = report[-2:]
    assert tutte[1]
    assert hashlib.sha256(tutte[0].encode()).hexdigest() == TUTTE_SHA256[3, "json"]
    assert run(capsys, *array_argvs[1]) == (0, generate[0], "")


def test_numpy_imported_first_is_the_array_handle():
    script = ("import json, sys, types\n"
              "import numpy\n"
              "from fractal_tutte._arrays import np\n"
              "print(json.dumps([np is numpy is sys.modules['numpy'],\n"
              "                  type(np) is types.ModuleType]))\n")
    assert _in_child(script) == [True, True]
