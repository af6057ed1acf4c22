"""Benchmark of fractal-tutte: one workload, one closed loop, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before
it is a JSON report with the machine, the code size, tail sample counts
and any failures.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import readme
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
#: Used by no run while the benchmark was defined; check claims on it.
HELD_OUT_SEED = 9001
#: Time metrics are corrected for the machine's momentary speed.  Shared
#: CPUs here drift by 30% or more over tens of seconds, in interpreted and
#: big-integer code alike.  A fixed unit of both kinds of work is timed
#: between ops (every CALIBRATION_EVERY_S), and each time metric is scaled
#: by CALIBRATION_REFERENCE_S over the unit's median in the run: seconds at
#: the speed of the quiet 2-vCPU machine that defined the benchmark, where
#: the unit took 4.9 ms.  The report line keeps the raw values.
CALIBRATION_REFERENCE_S = 0.005
CALIBRATION_EVERY_S = 0.5
_BIG_A, _BIG_B = 3 ** 40_000, 7 ** 30_000
MODES = ("exact", "float", "log")
SUBCOMMANDS = ("generate", "tutte", "eval", "invariants", "reliability",
               "oracle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    sys.path.insert(0, str(SRC))
    import fractal_tutte
    origin = Path(fractal_tutte.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"fractal_tutte imported from {origin}, not {SRC}")
    return fractal_tutte


def set_up(name: str, seed: int, tmp: Path):
    """Import the package and build the workload's inputs from the seed."""
    import_package()
    return workloads.WORKLOADS[name](random.Random(seed), tmp)


def calibration_unit() -> float:
    """Best of two timings of a fixed interpreted and big-integer job."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        _BIG_A * _BIG_B
        best = min(best, time.perf_counter() - start)
    return best


def speed(calibration: list[float]) -> float:
    """How much slower than the reference the machine ran (1.0 = as fast)."""
    return statistics.median(calibration) / CALIBRATION_REFERENCE_S


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times in fresh interpreters, as a CLI user pays them, and
    the calibration timed before each."""
    times, calibration = [], []
    for _ in range(SETUP_REPEATS):
        calibration.append(calibration_unit())
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times, calibration


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    busy: float = 0.0
    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def p50(self) -> float:
        return statistics.median(self.latencies) if self.latencies else 0.0


def run_loop(workload, seconds: float, tracer=None) -> Phase:
    """Issue the workload's ops in order, one at a time, until time is up."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    next_calibration = 0.0
    for op in itertools.cycle(workload.ops):
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_calibration:
            phase.calibration.append(calibration_unit())
            next_calibration = time.perf_counter() + CALIBRATION_EVERY_S
        if tracer:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raising op is a failed op
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer:
            count_steps(tracer, tracer.end_op(), op.families)
        phase.attempted += 1
        phase.busy += elapsed
        if error is None:
            try:
                ok = op.check(result)
            except Exception as exc:  # an unreadable output is a wrong one
                ok, error = False, exc
        if error is None and ok:
            phase.latencies.append(elapsed)
        else:
            phase.failed.append(f"{op.kind}: {error or 'wrong output'}")
    return phase


def count_steps(tracer, op_counts, families) -> None:
    """Reliability steps run, and those for the families asked for."""
    for family in ("psw", "sg"):
        steps = sum(op_counts[f"reliability.step.{m}.{family}.calls"]
                    for m in MODES)
        tracer.counts["reliability.steps_run"] += steps
        if family in families:
            tracer.counts["reliability.steps_useful"] += steps


def tail(latencies: list[float], quantile: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def raw_times(workload, phase: Phase, setups: list[float]) -> dict:
    """The time metrics as measured, before the speed correction."""
    tail_value, _ = tail(phase.latencies or [0.0], workload.tail_quantile)
    return {
        "ops_per_s": len(phase.latencies) / max(phase.busy, 1e-9),
        "op_p50_s": phase.p50(),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setups),
    }


def end_to_end(workload, phase: Phase, raw: dict,
               setup_speed: float) -> dict:
    run_speed = speed(phase.calibration)
    return {
        "ops_per_s": raw["ops_per_s"] * run_speed,
        "op_p50_s": raw["op_p50_s"] / run_speed,
        "op_tail_s": raw["op_tail_s"] / run_speed,
        "ok_frac": len(phase.latencies) / max(phase.attempted, 1),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": raw["setup_s"] / setup_speed,
        "digits_min": workload.digits_min(),
    }


def per_layer(workload, tracer, untraced: Phase, traced: Phase,
              readme_failed: int) -> dict:
    ops = max(tracer.ops, 1)
    inc, own, counts, maxima = (tracer.inclusive, tracer.self_time,
                                tracer.counts, tracer.maxima)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "bipoly.mul.calls": counts["bipoly.mul.calls"] / ops,
        "bipoly.mul.s": inc["bipoly.mul"] / ops,
        "bipoly.mul.max_operand_terms":
            maxima["bipoly.mul.max_operand_terms"],
        "bipoly.mul.max_coeff_bits": maxima["bipoly.mul.max_coeff_bits"],
        "bipoly.add.s": inc["bipoly.add"] / ops,
        "bipoly.to_json_dict.s": inc["bipoly.to_json_dict"] / ops,
        "recursion.assemble_tutte.s": inc["recursion.assemble_tutte"] / ops,
        "invariants.eval_state_at_point.result_bits":
            maxima["invariants.eval_state_at_point.result_bits"],
        "reliability.useful_step_ratio": ratio(
            counts["reliability.steps_useful"],
            counts["reliability.steps_run"]),
        "scalars.logsumexp.calls": counts["scalars.logsumexp.calls"] / ops,
        "scalars.fraction_ln.calls": counts["scalars.fraction_ln.calls"] / ops,
        "oracle.subsets": counts["oracle.subsets"] / ops,
        "oracle.census_runs": counts["oracle.census_runs"] / ops,
        "oracle.census_reuse": ratio(counts["oracle.census_distinct"],
                                     counts["oracle.census_runs"]),
        "graphs.build.s": inc["graphs.build"] / ops,
        "graphs.build.edges": counts["graphs.build.edges"] / ops,
        "graphs.to_edge_list.s": inc["graphs.to_edge_list"] / ops,
        "cli.readme_failed": readme_failed,
        "trace.overhead_s": traced.p50() - untraced.p50(),
        "trace.ops": tracer.ops,
    }
    for g in range(1, 5):
        name = f"recursion.step_state.g{g}"
        m[f"{name}.s"] = inc[name] / ops
        m[f"{name}.terms"] = maxima[f"{name}.terms"]
        m[f"{name}.max_coeff_bits"] = maxima[f"{name}.max_coeff_bits"]
    for kind in ("int", "rational"):
        m[f"invariants.eval_state_at_point.{kind}.s"] = inc[
            f"invariants.eval_state_at_point.{kind}"] / ops
    for family in ("psw", "sg"):
        m[f"reliability.{family}_rel_step.calls"] = sum(
            counts[f"reliability.step.{mode}.{family}.calls"]
            for mode in MODES) / ops
    for mode in MODES:
        m[f"reliability.step.{mode}.s"] = sum(
            inc[f"reliability.step.{mode}.{family}"]
            for family in ("psw", "sg")) / ops
        m[f"reliability.format.{mode}.s"] = inc[
            f"reliability.format.{mode}"] / ops
    for fn in ("tutte_subgraph_sum", "partition_subgraph_sum",
               "tutte_deletion_contraction", "matrix_tree_count",
               "reliability_enumeration"):
        m[f"oracle.{fn}.s"] = inc[f"oracle.{fn}"] / ops
    for side in ("le20", "gt20"):
        m[f"oracle.subsets_per_s.{side}"] = ratio(
            counts[f"oracle.subsets.{side}"],
            counts[f"oracle.census_us.{side}"] / 1e6)
    for sub in SUBCOMMANDS:
        m[f"cli.main.{sub}.self_s"] = own[f"cli.main.{sub}"] / ops
    m.update(workload.layer_metrics())
    return m


def machine_and_code() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": {
            path.name: len(path.read_text().splitlines())
            for path in sorted((SRC / "fractal_tutte").glob("*.py"))},
    }


def emit(declared: list[dict], values: dict) -> dict:
    names = [spec["name"] for spec in declared]
    if set(names) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}")
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fractal_tutte" / "__init__.py").is_file():
        print(f"error: no fractal_tutte package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        start = time.perf_counter()
        set_up(args.workload, args.seed, ROOT / ".perfbench-probe")
        print(time.perf_counter() - start)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setups, setup_calibration = setup_seconds(args.workload, args.seed)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = set_up(args.workload, args.seed, tmp)
        golden_failed = workload.golden_failures()
        if args.trace:
            untraced = run_loop(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = run_loop(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            phases = [run_loop(workload, args.seconds)]
        from fractal_tutte import cli
        readme_ran, readme_failed = readme.readme_failures(
            cli, ROOT / "README.md", tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = [f for p in phases for f in p.failed]
    main_phase = phases[-1]
    raw = raw_times(workload, main_phase, setups)
    if args.trace:
        values = per_layer(workload, tracer, untraced, traced,
                           len(readme_failed))
        metrics = emit(spec["per_layer"], values)
    else:
        metrics = emit(spec["end_to_end"], end_to_end(
            workload, main_phase, raw, speed(setup_calibration)))
    _, beyond = tail(main_phase.latencies or [0.0], workload.tail_quantile)
    report = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "tail": {"quantile": workload.tail_quantile,
                 "samples": len(main_phase.latencies),
                 "beyond": beyond},
        "raw": raw,
        "speed": {"run": speed(main_phase.calibration),
                  "setup": speed(setup_calibration)},
        "setup_s": setups,
        "readme": {"ran": readme_ran, "failed": readme_failed},
        "golden_failed": golden_failed,
        "failed_ops": failed[:10],
        "spans": len(tracer.span_name) if args.trace else 0,
        "machine": machine_and_code(),
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failed and not golden_failed and attempted > 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
