"""Command-line frontend.

Subcommands: generate, tutte, eval, invariants, reliability, oracle.
Exit codes: 0 on success, 1 when a computation guard or check fails,
2 on argument errors.  File outputs are written to a temporary file and
renamed into place, so an interrupted run never leaves partial output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import graphs, invariants, oracle, recursion, reliability
from .errors import FractalTutteError

GRID_TOLERANCE = 1e-12


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
    except FractalTutteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
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
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("generation must be nonnegative")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(
            f"grid must be 'start:stop:step' or a single value, got {text!r}")
    try:
        numbers = [float(s) for s in parts]
    except ValueError:
        raise UsageError(f"grid values must be numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in numbers):
        raise UsageError(f"grid values must be finite, got {text!r}")
    if len(parts) == 1:
        return numbers
    start, stop, step = numbers
    if step <= 0:
        raise UsageError(f"grid step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"grid stop {stop} precedes start {start}")
    if not (0 < start and stop < 1):
        raise UsageError(
            f"grid range {start}:{stop} must lie strictly inside (0, 1)")
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + GRID_TOLERANCE:
            break
        values.append(min(v, stop))
        i += 1
    return values


def _emit(text: str, out: str | None) -> None:
    """Print to stdout, or write atomically (temp file, then rename)."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fractal-tutte-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _run_generate(args) -> int:
    if args.family == "psw":
        g = graphs.build_psw_edge_expansion(args.n)
    else:
        g = graphs.build_sierpinski(args.n)
    _emit(graphs.to_edge_list(g), args.out)
    return 0


def _run_tutte(args) -> int:
    if args.format == "json":
        payload = recursion.tutte_psw_json(args.n)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = str(recursion.tutte_psw(args.n)) + "\n"
    _emit(text, args.out)
    return 0


def _run_eval(args) -> int:
    value = invariants.eval_tutte_at_point(args.n, args.x, args.y)
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
    g = (graphs.build_psw_edge_expansion(args.n) if args.family == "psw"
         else graphs.build_sierpinski(args.n))
    available = _ORACLE_CHECKS
    if args.check == "all":
        names = list(available)
    else:
        names = [c.strip() for c in args.check.split(",") if c.strip()]
        bad = [c for c in names if c not in available]
        if bad:
            raise UsageError(
                f"unknown check(s) {', '.join(bad)}; "
                f"available: {', '.join(available)}, all")
    entries = [available[name](args.family, args.n, g) for name in names]
    if args.format == "json":
        _emit(json.dumps(entries, indent=2) + "\n", args.out)
    else:
        lines = [
            "{:4s} {}: {}".format(e["status"].upper(), e["check"], e["detail"])
            for e in entries
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(e["status"] != "fail" for e in entries) else 1


def _entry(name: str, status: str, detail: str) -> dict:
    return {"check": name, "status": status, "detail": detail}


def _check_recursion(family, n, g) -> dict:
    name = "recursion"
    if family != "psw":
        return _entry(name, "skip",
                      "no Tutte recursion is implemented for sg")
    if n > recursion.MAX_SYMBOLIC_GENERATION:
        return _entry(name, "skip", f"n={n} beyond symbolic limit")
    if g.num_edges > oracle.MAX_SUBSET_EDGES:
        return _subset_limit_skip(name, g)
    expected = recursion.tutte_psw(n)
    actual = oracle.tutte_subgraph_sum(g)
    if actual == expected:
        return _entry(name, "pass",
                      f"subgraph sum over 2^{g.num_edges} subsets matches "
                      f"the recursion polynomial")
    return _entry(name, "fail", "subgraph sum differs from recursion")


def _check_partition(family, n, g) -> dict:
    name = "partition"
    if g.num_edges > oracle.MAX_SUBSET_EDGES:
        return _subset_limit_skip(name, g)
    parts = oracle.partition_subgraph_sum(g)
    total = oracle.tutte_subgraph_sum(g)
    recombined = parts[0]
    for part in parts[1:]:
        recombined = recombined + part
    if recombined == total and parts[1] == parts[2] == parts[3]:
        return _entry(name, "pass",
                      "class sums recombine and the three two-hub classes "
                      "are equal")
    return _entry(name, "fail", "partition sums inconsistent")


def _subset_limit_skip(name: str, g) -> dict:
    return _entry(name, "skip",
                  f"{g.num_edges} edges exceed the enumeration limit "
                  f"{oracle.MAX_SUBSET_EDGES}")


def _check_deletion_contraction(family, n, g) -> dict:
    name = "deletion-contraction"
    if g.num_edges > oracle.MAX_DC_EDGES:
        return _entry(name, "skip",
                      f"{g.num_edges} edges exceed the recursion limit "
                      f"{oracle.MAX_DC_EDGES}")
    if oracle.tutte_deletion_contraction(g) == oracle.tutte_subgraph_sum(g):
        return _entry(name, "pass", "agrees with the subgraph sum")
    return _entry(name, "fail", "differs from the subgraph sum")


def _check_matrix_tree(family, n, g) -> dict:
    name = "matrix-tree"
    if g.num_vertices > oracle.MAX_MATRIX_TREE_VERTICES:
        return _entry(name, "skip",
                      f"{g.num_vertices} vertices exceed the matrix-tree "
                      f"limit {oracle.MAX_MATRIX_TREE_VERTICES}")
    if g.num_edges > oracle.MAX_SUBSET_EDGES:
        return _subset_limit_skip(name, g)
    trees = oracle.matrix_tree_count(g)
    reference = oracle.tutte_subgraph_sum(g).eval_exact(1, 1)
    if trees == reference:
        return _entry(name, "pass",
                      f"Laplacian cofactor = T(1,1) = {trees}")
    return _entry(name, "fail",
                  f"cofactor {trees} != T(1,1) = {reference}")


def _check_reliability(family, n, g) -> dict:
    name = "reliability"
    if g.num_edges > oracle.MAX_RELIABILITY_EDGES:
        return _entry(name, "skip",
                      f"{g.num_edges} edges exceed the enumeration limit "
                      f"{oracle.MAX_RELIABILITY_EDGES}")
    p = Fraction(1, 2)
    r_enum, _ = oracle.reliability_enumeration(g, p)
    t1 = oracle.partition_subgraph_sum(g)[0]
    nv, ne = g.num_vertices, g.num_edges
    bridged = (p ** (nv - 1) * (1 - p) ** (ne - nv + 1)
               * t1.eval_exact(1, 1 / (1 - p)))
    if r_enum == bridged:
        return _entry(name, "pass",
                      f"enumeration equals the Tutte bridge at p=1/2 "
                      f"(R = {r_enum})")
    return _entry(name, "fail",
                  f"enumeration {r_enum} != Tutte bridge {bridged}")


_ORACLE_CHECKS = {
    "recursion": _check_recursion,
    "partition": _check_partition,
    "deletion-contraction": _check_deletion_contraction,
    "matrix-tree": _check_matrix_tree,
    "reliability": _check_reliability,
}


if __name__ == "__main__":
    sys.exit(main())
