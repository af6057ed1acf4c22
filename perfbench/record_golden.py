"""Write golden.json: SHA-256 digests of the benchmark's fixed-input outputs.

Run from the repository root, only at a commit whose outputs are known to
be right (the digests were first recorded at the commit that added the
benchmark).  Every output must stay byte-identical afterwards:

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import run
import witness
import workloads


def main() -> None:
    run.import_package()
    from fractal_tutte import cli, graphs, invariants, oracle
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for key, argv in workloads.GOLDEN_COMMANDS.items():
            out = Path(tmp) / key
            if cli.main(argv + ["--out", str(out)]) != 0:
                raise SystemExit(f"{key}: nonzero exit")
            digests[key] = witness.sha256(out.read_bytes())
    for point in workloads.INT_POINTS:
        value = invariants.eval_tutte_at_point(workloads.INT_N, *point)
        digests[workloads.int_point_key(workloads.INT_N, point)] = (
            witness.int_digest(int(value)))
    poly = oracle.tutte_subgraph_sum(workloads.census_graph(graphs))
    digests["oracle.census21"] = workloads.poly_digest(poly.terms())
    path = Path(workloads.__file__).with_name("golden.json")
    path.write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    main()
