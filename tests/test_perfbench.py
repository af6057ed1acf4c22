"""The benchmark's tracer finds its hooks in the package by name
(``scalars.logsumexp``, ``scalars.fraction_ln``, the mode argument of
``reliability.format_probability``, ``Census.edges``), so a rename in
``src/`` that breaks them fails here: in-process in a fraction of a
second, and (with --run-slow) in a one-second traced run of every
workload.
"""

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fractal_tutte import cli, invariants

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_tracer_hooks_find_their_names(capsys):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer, main = tracing.Tracer(), cli.main
    try:
        tracing.install(tracer)
        tracer.begin_op()
        for argv in (["oracle", "--family", "psw", "--n", "1"],
                     ["reliability", "--n", "2", "--mode", "log",
                      "--p-grid", "0.5"],
                     ["tutte", "--n", "1"]):
            assert cli.main(argv) == 0
        invariants.eval_tutte_at_point(2, Fraction(1, 3), 2)
        counts = tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("cli.main.oracle.calls", "cli.main.reliability.calls",
                 "cli.main.tutte.calls", "reliability.format.log.calls",
                 "invariants.eval_tutte_at_point.calls", "bipoly.mul.calls",
                 "oracle.census_runs"):
        assert counts[name] > 0, name
    # Every census of the one oracle graph is seen as the same edges.
    assert tracer.counts["oracle.census_distinct"] == 1
    assert cli.main is main


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
