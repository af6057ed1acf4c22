"""Command-line frontend.

Subcommands: generate, tutte, eval, invariants, reliability, oracle.
Exit codes: 0 on success, 1 when a computation guard or check fails,
2 on argument errors.  File outputs are written to a temporary file and
renamed into place, so an interrupted run never leaves partial output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import graphs, invariants, oracle, recursion, reliability
from .errors import FractalTutteError, SizeLimitExceeded
from .scalars import MAX_DENOMINATOR

#: Most points a --p-grid range may expand to; checked before any is made.
MAX_GRID_POINTS = 10 ** 6


class UsageError(Exception):
    """Argument combinations argparse cannot catch by itself."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FractalTutteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal-tutte",
        description=(
            "Exact Tutte polynomials, counting invariants, and "
            "all-terminal reliability of the pseudofractal scale-free "
            "web (psw) and the Sierpinski gasket (sg)."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="write a graph as an edge list")
    gen.add_argument("--family", choices=("psw", "sg"), required=True)
    gen.add_argument("--n", type=_generation, required=True, help="generation")
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(func=_run_generate)

    tut = sub.add_parser("tutte", help="full symbolic Tutte polynomial of psw")
    tut.add_argument("--n", type=_generation, required=True)
    tut.add_argument("--format", choices=("json", "text"), default="json")
    tut.add_argument("--out", help="output file (default: stdout)")
    tut.set_defaults(func=_run_tutte)

    eva = sub.add_parser("eval", help="exact T_n(x, y) at a rational point")
    eva.add_argument("--n", type=_generation, required=True)
    eva.add_argument("--x", type=_rational, required=True,
                     help="rational: 2, 1/3, or 0.25")
    eva.add_argument("--y", type=_rational, required=True)
    eva.set_defaults(func=_run_eval)

    inv = sub.add_parser("invariants", help="counting invariants of psw")
    inv.add_argument("--n", type=_generation, required=True)
    inv.add_argument("--out", help="output file (default: stdout)")
    inv.set_defaults(func=_run_invariants)

    rel = sub.add_parser("reliability",
                         help="all-terminal reliability curves as CSV")
    rel.add_argument("--families", default="psw,sg",
                     help="comma list from {psw, sg} (default: psw,sg)")
    rel.add_argument("--n", type=_generation, required=True)
    rel.add_argument("--p-grid", required=True,
                     help="start:stop:step (inclusive) or a single value")
    rel.add_argument("--mode", choices=("exact", "float", "log"),
                     default="exact")
    rel.add_argument("--out", help="output file (default: stdout)")
    rel.set_defaults(func=_run_reliability)

    orc = sub.add_parser("oracle",
                         help="brute-force cross-checks on one generation")
    orc.add_argument("--family", choices=("psw", "sg"), required=True)
    orc.add_argument("--n", type=_generation, required=True)
    orc.add_argument("--check", default="all",
                     help="comma list of checks, or 'all' (default)")
    orc.add_argument("--format", choices=("text", "json"), default="text")
    orc.add_argument("--out", help="output file (default: stdout)")
    orc.set_defaults(func=_run_oracle)

    return parser


def _generation(text: str) -> int:
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")


def _rational(text: str) -> Fraction | Decimal:
    """A rational number: a finite Decimal for decimal notation, whose
    exponent ``_run_eval`` checks before 10^exponent is built, else a
    Fraction such as 1/3."""
    try:
        if (value := Decimal(text)).is_finite():
            return value
    except InvalidOperation:
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None


def _shifted_bits(v: Fraction | Decimal) -> tuple[float, float]:
    """Lower bounds on bits() of the numerator and denominator of v - 1,
    for a Decimal c 10^q read from c and q without building 10^|q|: an
    integer c 10^q >= 2 less 1 keeps all but one bit, and the denominator
    of c / 10^-q is at least 10^-q / c."""
    if isinstance(v, Fraction):
        v -= 1
        return invariants.bits(v.numerator), invariants.bits(v.denominator)
    _, digits, q = v.as_tuple()
    c = int("".join(map(str, digits)))
    if q >= 0:
        return (invariants.bits(c) + q * math.log2(10) - 1
                if c >= 2 or c and q else -math.inf), 0.0
    return -math.inf, max(0.0, -q * math.log2(10) - invariants.bits(c))


def _parse_grid(text: str) -> list[Fraction]:
    """The points start, start + step, ... up to stop, or the one value,
    each read exactly from its decimal text."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(
            f"grid must be 'start:stop:step' or a single value, got {text!r}")
    try:
        numbers = [Decimal(s) for s in parts]
    except InvalidOperation:
        raise UsageError(f"grid values must be numbers, got {text!r}") from None
    if not all(v.is_finite() for v in numbers):
        raise UsageError(f"grid values must be finite, got {text!r}")
    start, stop, step = numbers if len(parts) == 3 else numbers * 2 + [1]
    if step <= 0:
        raise UsageError(f"grid step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"grid stop {stop} precedes start {start}")
    if not (0 < start and stop < 1):
        raise UsageError(f"grid {text!r} must lie strictly inside (0, 1)")
    for s, v in zip(parts, numbers):
        # Below 10^-13 the denominator exceeds 10^12 however the digits
        # reduce, so such a value is refused before 10^-exponent is built.
        if v.as_tuple().exponent < 0 and (
                v.adjusted() < -len(str(MAX_DENOMINATOR))
                or Fraction(v).denominator > MAX_DENOMINATOR):
            raise UsageError(f"grid value {s!r} is not a fraction with "
                             f"denominator at most {MAX_DENOMINATOR}")
    # The points as integers over one denominator; a step past 1 makes
    # the one point that a step of 1 makes, without building its integer.
    start, stop, step = map(Fraction, (start, stop, min(step, 1)))
    den = math.lcm(start.denominator, stop.denominator, step.denominator)
    s0, s1, st = (int(v * den) for v in (start, stop, step))
    count = (s1 - s0) // st + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid {text!r} would have about {Decimal(count):.3g}"
                         f" points, over the limit of {MAX_GRID_POINTS}")
    return [Fraction(s, den) for s in range(s0, s1 + 1, st)]


def _emit(text: str, out: str | None) -> None:
    """Print to stdout, or write atomically (temp file, then rename)."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fractal-tutte-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, out) from None


def _build(args) -> graphs.HubGraph:
    return (graphs.build_psw_edge_expansion if args.family == "psw"
            else graphs.build_sierpinski)(args.n)


def _run_generate(args) -> int:
    _emit(graphs.to_edge_list(_build(args)), args.out)
    return 0


def _run_tutte(args) -> int:
    poly = recursion.tutte_psw(args.n)
    _emit(_tutte_json(args.n, poly) if args.format == "json"
          else str(poly) + "\n", args.out)
    return 0


#: One entry of ``polynomial.terms``, {"dx": ..., "dy": ..., "coeff": "..."}
#: with the coefficient as a string, as ``json.dumps(indent=2)`` prints it
#: at that depth.
_JSON_TERM = ('      {{\n        "dx": {},\n        "dy": {},\n'
              '        "coeff": "{}"\n      }}')


def _tutte_json(n: int, poly) -> str:
    """The ``tutte`` JSON: {"family": "psw", "n": n, "polynomial":
    {"terms": [...]}} with the terms sorted by (dx, dy), in the bytes of
    ``json.dumps(..., indent=2)`` plus a newline, written from the sorted
    terms without building a dict per term."""
    terms = ",\n".join(_JSON_TERM.format(dx, dy, c) for (dx, dy), c in poly)
    terms = f"[\n{terms}\n    ]" if terms else "[]"
    return (f'{{\n  "family": "psw",\n  "n": {n},\n  "polynomial": {{\n'
            f'    "terms": {terms}\n  }}\n}}\n')


def _run_eval(args) -> int:
    (a, d), (b, e) = map(_shifted_bits, (args.x, args.y))
    invariants.check_point_size(args.n, a, b, d, e)
    value = invariants.eval_tutte_at_point(args.n, Fraction(args.x),
                                           Fraction(args.y))
    text = invariants.decimal_str(value.numerator)
    if value.denominator != 1:
        text += "/" + invariants.decimal_str(value.denominator)
    print(text)
    return 0


def _run_invariants(args) -> int:
    report = invariants.invariant_report(args.n)
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def _run_reliability(args) -> int:
    requested = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = set(requested) - set(reliability.FAMILIES)
    if unknown or not requested:
        raise UsageError(
            f"--families must name psw and/or sg, got {args.families!r}")
    families = [f for f in reliability.FAMILIES if f in requested]
    grid = _parse_grid(args.p_grid)
    points = reliability.compare_curves(args.n, grid, args.mode, families)
    _emit(reliability.curves_to_csv(points, families), args.out)
    return 0


# -- oracle checks ---------------------------------------------------------

def _run_oracle(args) -> int:
    graphs.check_build_generation(args.n)
    available = _ORACLE_CHECKS
    if args.check == "all":
        names = list(available)
    else:
        names = [c.strip() for c in args.check.split(",") if c.strip()]
        bad = [c for c in names if c not in available]
        if bad or not names:
            raise UsageError(
                f"--check must name checks from {', '.join(available)} "
                f"or all, got {args.check!r}")
    sizes = graphs.psw_vertex_count(args.n), graphs.psw_edge_count(args.n)
    built = functools.cache(lambda: _build(args))

    def graph(limit: str) -> graphs.HubGraph:
        # Both families have these sizes, so an oracle refuses a graph
        # too large for it before the graph is built.
        oracle.check_size(limit, *sizes)
        return built()

    # One census serves every check, taken when the first asks for it.
    census = functools.cache(lambda: oracle.census(graph("enumeration")))
    entries = []
    for name in names:
        try:
            status, detail = available[name](args.family, args.n, graph,
                                             census)
        except SizeLimitExceeded as exc:
            status, detail = "skip", str(exc)
        entries.append({"check": name, "status": status, "detail": detail})
    if args.format == "json":
        _emit(json.dumps(entries, indent=2) + "\n", args.out)
    else:
        lines = [
            "{:4s} {}: {}".format(e["status"].upper(), e["check"], e["detail"])
            for e in entries
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(e["status"] != "fail" for e in entries) else 1


def _check_recursion(family, n, graph, census) -> tuple[str, str]:
    if family != "psw":
        return "skip", "no Tutte recursion is implemented for sg"
    # The census refuses an oversized graph at once, where the symbolic
    # recursion would first run for minutes.
    if oracle.tutte_subgraph_sum(census()) == recursion.tutte_psw(n):
        return "pass", (f"subgraph sum over 2^{census().num_edges} subsets "
                        f"matches the recursion polynomial")
    return "fail", "subgraph sum differs from recursion"


def _check_partition(family, n, graph, census) -> tuple[str, str]:
    parts = oracle.partition_subgraph_sum(census())
    total = oracle.tutte_subgraph_sum(census())
    if sum(parts[1:], parts[0]) == total and parts[1] == parts[2] == parts[3]:
        return "pass", ("class sums recombine and the three two-hub classes "
                        "are equal")
    return "fail", "partition sums inconsistent"


def _check_deletion_contraction(family, n, graph, census) -> tuple[str, str]:
    if (oracle.tutte_deletion_contraction(graph("recursion"))
            == oracle.tutte_subgraph_sum(census())):
        return "pass", "agrees with the subgraph sum"
    return "fail", "differs from the subgraph sum"


def _check_matrix_tree(family, n, graph, census) -> tuple[str, str]:
    trees = oracle.matrix_tree_count(graph("matrix-tree"))
    reference = oracle.tutte_subgraph_sum(census()).eval_exact(1, 1)
    if trees == reference:
        return "pass", f"Laplacian cofactor = T(1,1) = {trees}"
    return "fail", f"cofactor {trees} != T(1,1) = {reference}"


def _check_reliability(family, n, graph, census) -> tuple[str, str]:
    p = Fraction(1, 2)
    r_enum = oracle.reliability_enumeration(census(), p)[0]
    t1 = oracle.partition_subgraph_sum(census())[0]
    nv, ne = census().num_vertices, census().num_edges
    bridged = (p ** (nv - 1) * (1 - p) ** (ne - nv + 1)
               * t1.eval_exact(1, 1 / (1 - p)))
    if r_enum == bridged:
        return "pass", (f"enumeration equals the Tutte bridge at p=1/2 "
                        f"(R = {r_enum})")
    return "fail", f"enumeration {r_enum} != Tutte bridge {bridged}"


_ORACLE_CHECKS = {
    "recursion": _check_recursion,
    "partition": _check_partition,
    "deletion-contraction": _check_deletion_contraction,
    "matrix-tree": _check_matrix_tree,
    "reliability": _check_reliability,
}


if __name__ == "__main__":
    sys.exit(main())
