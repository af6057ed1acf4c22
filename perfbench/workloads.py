"""The four workloads: seeded inputs, the ops that consume them, and checks.

Each workload is a pool of ops built from the seed during set-up.  The
runner issues them in order, one at a time, until its time is up (a closed
loop with one caller).  Every op's output is checked after its timed
region; a wrong output or an exception counts as a failed op.  Outputs of
fixed inputs must also match SHA-256 digests recorded in ``golden.json``.

Which layers each workload stresses, and which it bypasses, is stated on
each class: a change to one layer should move the workloads that stress
it and leave the others unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import witness

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())

#: Fixed-input commands whose output bytes are pinned by a digest.
GOLDEN_COMMANDS = {
    "tutte.4.json": ["tutte", "--n", "4", "--format", "json"],
    "tutte.4.text": ["tutte", "--n", "4", "--format", "text"],
    "reliability.exact.6": ["reliability", "--n", "6", "--p-grid",
                            "0.1:0.9:0.1", "--mode", "exact"],
    "oracle.psw.1": ["oracle", "--family", "psw", "--n", "1"],
    "oracle.sg.1": ["oracle", "--family", "sg", "--n", "1"],
    "generate.psw.9": ["generate", "--family", "psw", "--n", "9"],
    "generate.sg.9": ["generate", "--family", "sg", "--n", "9"],
    "generate.psw.10": ["generate", "--family", "psw", "--n", "10"],
}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    #: Reliability families the op asks for (curves only).
    families: tuple[str, ...] = ()


def call(module, name: str, *args) -> Callable[[], object]:
    """module.name(*args), looked up at call time so tracing can wrap it."""
    return lambda: getattr(module, name)(*args)


def _cli_op(cli, key: str, argv: list[str], tmp: Path, check,
            families=()) -> Op:
    out = tmp / key
    return Op(key.split(".")[0], call(cli, "main", argv + ["--out", str(out)]),
              lambda code: code == 0 and check(out.read_bytes()), families)


def _golden_op(cli, key: str, tmp: Path, check=lambda data: True) -> Op:
    def checked(data: bytes) -> bool:
        return witness.sha256(data) == GOLDEN[key] and check(data)
    return _cli_op(cli, key, GOLDEN_COMMANDS[key], tmp, checked)


class Workload:
    name = ""
    #: Nearest-rank quantile reported as op_tail_s.  Chosen so that, at
    #: the rate measured when the benchmark was defined, at least ten
    #: samples of a run lie beyond it (symbolic has too few; see there).
    tail_quantile = 0.9
    ops: list[Op]

    def golden_failures(self) -> list[str]:
        """Untimed fixed-input checks made once per run."""
        return []

    def digits_min(self) -> int:
        """Fewest correct significant digits among printed rounded values.

        Workloads that print only exact values report the CSV's full 12.
        """
        return witness.PRINTED_DIGITS

    def layer_metrics(self) -> dict[str, float]:
        """Workload-specific per-layer metrics (same convention as above)."""
        return {"reliability.log_n30.digits_min": witness.PRINTED_DIGITS}


class Symbolic(Workload):
    """``tutte --n 4``, alternating JSON and text output.

    Stresses bipoly (about 95% of an op is in Kronecker products) and
    recursion, plus cli output formatting.  Bypasses invariants,
    reliability, scalars, oracle and graphs.  The input is fixed: n=5 costs
    minutes per op, too long for a run.  The seed only orders the formats.
    A 1.3-2 s op leaves 12-20 samples per run, so op_tail_s is the 75th
    percentile, with fewer than ten samples beyond it.
    """

    name = "symbolic"
    tail_quantile = 0.75

    def __init__(self, rng: random.Random, tmp: Path):
        from fractal_tutte import cli
        formats = ["json", "text"]
        rng.shuffle(formats)
        self.ops = [_golden_op(cli, f"tutte.4.{fmt}", tmp,
                               partial(_check_tutte4, fmt))
                    for fmt in formats]


def _check_tutte4(fmt: str, data: bytes) -> bool:
    if fmt == "json":
        terms = witness.json_polynomial(json.loads(data)["polynomial"])
    else:
        terms = witness.parse_text_polynomial(data.decode())
    return (witness.evaluate(terms, 1, 1) == witness.spanning_trees(4)
            and witness.evaluate(terms, 2, 2) == 2 ** witness.psw_edges(4))


#: Classical points (trees, connected spanning subgraphs, forests, acyclic
#: orientations, all subgraphs), evaluated one per op.
INT_POINTS = ((1, 1), (1, 2), (2, 1), (2, 0), (2, 2))
INT_N = 11
#: Rational x whose hyperbola point costs 0.65-0.95 s at n=9 on the machine
#: that defined the benchmark, so a run's rational ops cost the same
#: whatever the seed draws.
RATIONAL_X = tuple(Fraction(s) for s in (
    "-3/2", "5/2", "-2/3", "-1/3", "5/3", "-3/4", "-1/4", "1/4"))
RATIONAL_N = 9
PROBABILITIES = tuple(Fraction(s) for s in (
    "1/5", "2/5", "3/5", "1/8", "3/8", "5/8"))
RELIABILITY_N = 9
COUNTS_CYCLE = ("int", "rational", "int", "rel", "int", "rational", "int",
                "rel", "int", "rational")


class Counts(Workload):
    """Exact scalar evaluation through invariants, no polynomials.

    Integer-point ops run on ints, rational-point ops on Fractions
    (T at (x, x/(x-1)), 10-60x slower than an integer point), and
    ``psw_rel_via_tutte`` is a rational point too.  The two kinds separate
    an integer-arithmetic change from a rational one.  Stresses invariants;
    bypasses bipoly, recursion's polynomial step, oracle, graphs and cli.
    Generations are 11 (int) and 9 (rational) so that a run holds about
    sixty ops; at the ROADMAP's 12 and 10 an op takes up to 9 s.
    """

    name = "counts"
    tail_quantile = 0.8

    def __init__(self, rng: random.Random, tmp: Path):
        from fractal_tutte import invariants, reliability
        self.ops = []
        points = iter(INT_POINTS * 40)
        for _ in range(40):
            for kind in COUNTS_CYCLE:
                if kind == "int":
                    x0, y0 = next(points)
                    self.ops.append(Op(
                        "int", call(invariants, "eval_tutte_at_point",
                                    INT_N, x0, y0),
                        partial(_check_int_point, INT_N, (x0, y0))))
                elif kind == "rational":
                    x = rng.choice(RATIONAL_X)
                    self.ops.append(Op(
                        "rational", call(invariants, "eval_tutte_at_point",
                                         RATIONAL_N, x, x / (x - 1)),
                        partial(_check_hyperbola, RATIONAL_N, x)))
                else:
                    p = rng.choice(PROBABILITIES)
                    self.ops.append(Op(
                        "rel", call(reliability, "psw_rel_via_tutte",
                                    RELIABILITY_N, p),
                        partial(_check_rel, RELIABILITY_N, p)))


def int_point_key(n: int, point) -> str:
    return f"invariants.{n}.T{point[0]}{point[1]}"


def _check_int_point(n: int, point, value: Fraction) -> bool:
    if value.denominator != 1:
        return False
    value = value.numerator
    if point == (1, 1) and value != witness.spanning_trees(n):
        return False
    if point == (2, 2) and value != 2 ** witness.psw_edges(n):
        return False
    return witness.int_digest(value) == GOLDEN[int_point_key(n, point)]


def _check_hyperbola(n: int, x: Fraction, value: Fraction) -> bool:
    return value == witness.hyperbola_value(
        x, witness.psw_vertices(n), witness.psw_edges(n))


def _check_rel(n: int, p: Fraction, value: Fraction) -> bool:
    return value == witness.psw_reliability_exact(n, p)


#: p-grids lie on multiples of 1/1024: binary floats hold them exactly, so
#: the p the program computes at is known exactly.
LATTICE = 1024
#: (mode, n, grid points): the point counts give each mode a similar
#: share of the run.  Float mode runs at n=4 with p >= 8/1024, where every
#: value stays inside the double range.
CURVE_SLOTS = (("log", 30, 120), ("log", 8, 350), ("float", 4, 750),
               ("exact", 6, 4))
FLOAT_LOW = 8


class Curves(Workload):
    """``reliability`` CSV in exact, float and log arithmetic.

    The same reliability step runs in three arithmetics, so a change that
    helps one mode at the cost of another shows.  Half the ops ask for
    ``--families psw`` only.  Stresses reliability, scalars (log mode) and
    cli CSV output; bypasses bipoly, big Tutte states, oracle and graphs.
    ``digits_min`` compares log (n=8) and float (n=4) output with a
    60-digit reference; exact output must be correctly rounded.  At n=30
    only sg >= psw and monotonicity in p are required; its digits are a
    per-layer metric.
    """

    name = "curves"

    def __init__(self, rng: random.Random, tmp: Path):
        from fractal_tutte import cli
        self.cli, self.tmp = cli, tmp
        self.references: dict[tuple[int, Fraction], tuple] = {}
        self.digits = {"low_n": witness.PRINTED_DIGITS,
                       "n30": witness.PRINTED_DIGITS}
        self.ops = []
        for _ in range(80):
            for families in (("psw", "sg"), ("psw",)):
                for mode, n, points in CURVE_SLOTS:
                    self.ops.append(self._op(rng, mode, n, points, families))

    def _op(self, rng, mode, n, points, families) -> Op:
        low = FLOAT_LOW if mode == "float" else 1
        step = rng.randint(1, (LATTICE - 1 - low) // (points - 1))
        start = rng.randint(low, LATTICE - 1 - (points - 1) * step)
        stop = start + (points - 1) * step
        argv = ["reliability", "--n", str(n), "--mode", mode, "--p-grid",
                f"{start / LATTICE!r}:{stop / LATTICE!r}:{step / LATTICE!r}"]
        if families == ("psw",):
            argv += ["--families", "psw"]
        numerators = range(start, stop + 1, step)
        return _cli_op(self.cli, f"reliability.{mode}", argv, self.tmp,
                       partial(self._check, mode, n, numerators, families),
                       families)

    def _reference(self, n: int, p: Fraction):
        key = (n, p)
        if key not in self.references:
            self.references[key] = witness.reliability_refs(n, p)
        return self.references[key]

    def _check(self, mode, n, numerators, families, data: bytes) -> bool:
        ps = [Fraction(k, LATTICE) for k in numerators]
        lines = data.decode().splitlines()
        header = ["p"] + [f"R_{f}" for f in families] + [
            f"lnR_{f}" for f in families]
        if lines[0] != ",".join(header) or len(lines) != len(ps) + 1:
            return False
        k = len(families)
        previous = [float("-inf")] * k
        digits = witness.PRINTED_DIGITS
        for p, line in zip(ps, lines[1:]):
            cells = line.split(",")
            if cells[0] != f"{float(p):.4f}":
                return False
            logs = [float(c) for c in cells[1 + k:]]
            if any(a < b for a, b in zip(logs, previous)):
                return False
            if k == 2 and logs[1] < logs[0]:
                return False
            previous = logs
            refs = self._reference(n, p)
            for printed, ref in zip(cells[1:1 + k], refs):
                digits = min(digits, witness.correct_digits(printed, ref))
        if mode == "exact":
            return digits == witness.PRINTED_DIGITS
        slot = "n30" if n == 30 else "low_n"
        self.digits[slot] = min(self.digits[slot], digits)
        return True

    def golden_failures(self) -> list[str]:
        op = _golden_op(self.cli, "reliability.exact.6", self.tmp)
        return [] if op.check(op.run()) else ["reliability.exact.6"]

    def digits_min(self) -> int:
        return self.digits["low_n"]

    def layer_metrics(self) -> dict[str, float]:
        return {"reliability.log_n30.digits_min": self.digits["n30"]}


#: (op, family, size): generation for generate, edge count for subgraph.
ORACLE_CYCLE = (("oracle", "psw", 1), ("generate", "psw", 9),
                ("subgraph", "psw", 12), ("oracle", "sg", 1),
                ("generate", "sg", 9), ("subgraph", "sg", 12),
                ("generate", "psw", 10), ("subgraph", "psw", 14),
                ("subgraph", "sg", 14))


class Oracle(Workload):
    """Brute-force oracles and the graph builders.

    Sub-graph ops take a seeded connected sub-graph of psw(2) or sg(2)
    that keeps the three hubs and make the public oracle calls that
    ``oracle --check all`` makes, census repeats included.  At 12 edges
    deletion-contraction runs too.  Each run starts with one census of a
    fixed 21-edge graph, on the numpy side of the 20-edge switch: at about
    5 s it is a fifth of a run, so its input is fixed rather than seeded to
    keep runs comparable, and it makes one census call, not the seven of
    the check set.  Stresses oracle, graphs and cli generate/oracle;
    bypasses recursion beyond n=1, invariants and reliability.
    """

    name = "oracle"
    tail_quantile = 0.8

    def __init__(self, rng: random.Random, tmp: Path):
        from fractal_tutte import cli, graphs, oracle
        bases = {"psw": graphs.build_psw_edge_expansion(2),
                 "sg": graphs.build_sierpinski(2)}
        big = census_graph(graphs)
        self.ops = [Op("census21", partial(_census_op, oracle, big),
                       partial(_check_census, big))]
        for _ in range(25):
            for kind, family, size in ORACLE_CYCLE:
                if kind == "subgraph":
                    g = connected_subgraph(graphs.HubGraph, bases[family],
                                           size, rng)
                    self.ops.append(Op("subgraph",
                                       partial(_check_all_calls, oracle, g),
                                       partial(_check_subgraph, g)))
                else:
                    self.ops.append(_golden_op(
                        cli, f"{kind}.{family}.{size}", tmp,
                        partial(_check_header, size) if kind == "generate"
                        else lambda data: True))


def census_graph(graphs):
    """psw(2) without the three degree-2 vertices joined to two hubs."""
    g = graphs.build_psw_edge_expansion(2)
    degree = g.degrees()
    neighbours = {v: set() for v in range(g.num_vertices)}
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    drop = {v for v in range(g.num_vertices)
            if degree[v] == 2 and neighbours[v] <= set(g.hubs)}
    keep = [v for v in range(g.num_vertices) if v not in drop]
    label = {v: i for i, v in enumerate(keep)}
    return graphs.HubGraph(
        len(keep),
        tuple((label[u], label[v]) for u, v in g.edges
              if u in label and v in label),
        tuple(label[h] for h in g.hubs))


def connected_subgraph(HubGraph, g, k: int, rng: random.Random):
    """k edges grown from hub A, retried until all three hubs are reached."""
    while True:
        reached, chosen = {g.hubs[0]}, []
        while len(chosen) < k:
            frontier = [e for e in g.edges if e not in chosen
                        and (e[0] in reached or e[1] in reached)]
            edge = rng.choice(frontier)
            chosen.append(edge)
            reached.update(edge)
        if reached.issuperset(g.hubs):
            label = {v: i for i, v in enumerate(sorted(reached))}
            return HubGraph(len(label),
                            tuple((label[u], label[v]) for u, v in chosen),
                            tuple(label[h] for h in g.hubs))


def _check_all_calls(oracle, g) -> dict:
    """The public oracle calls of ``oracle --check all``, in its order."""
    out = {"total": oracle.tutte_subgraph_sum(g)}
    out["parts"] = oracle.partition_subgraph_sum(g)
    oracle.tutte_subgraph_sum(g)
    if g.num_edges <= oracle.MAX_DC_EDGES:
        out["dc"] = oracle.tutte_deletion_contraction(g)
        oracle.tutte_subgraph_sum(g)
    out["trees"] = oracle.matrix_tree_count(g)
    oracle.tutte_subgraph_sum(g)
    out["rel"] = oracle.reliability_enumeration(g, Fraction(1, 2))[0]
    oracle.partition_subgraph_sum(g)
    return out


def _check_subgraph(g, out: dict) -> bool:
    total = out["total"].terms()
    summed: dict = {}
    for part in out["parts"]:
        for key, c in part.terms().items():
            summed[key] = summed.get(key, 0) + c
    summed = {key: c for key, c in summed.items() if c}
    nv, ne = g.num_vertices, g.num_edges
    p = Fraction(1, 2)
    bridge = (p ** (nv - 1) * (1 - p) ** (ne - nv + 1)
              * witness.evaluate(out["parts"][0].terms(), 1, 1 / (1 - p)))
    return (summed == total
            and ("dc" not in out or out["dc"].terms() == total)
            and witness.evaluate(total, 1, 1) == out["trees"]
            and witness.evaluate(total, 2, 2) == 2 ** ne
            and out["rel"] == bridge)


def _census_op(oracle, g):
    return oracle.tutte_subgraph_sum(g), oracle.matrix_tree_count(g)


def poly_digest(terms: dict) -> str:
    return witness.sha256(repr(sorted(terms.items())).encode())


def _check_census(g, result) -> bool:
    poly, trees = result
    terms = poly.terms()
    return (poly_digest(terms) == GOLDEN["oracle.census21"]
            and witness.evaluate(terms, 1, 1) == trees
            and witness.evaluate(terms, 2, 2) == 2 ** g.num_edges)


def _check_header(n: int, data: bytes) -> bool:
    header = data[:data.index(b"\n")].decode()
    return header == f"{witness.psw_vertices(n)} {witness.psw_edges(n)}"


WORKLOADS = {cls.name: cls for cls in (Symbolic, Counts, Curves, Oracle)}
