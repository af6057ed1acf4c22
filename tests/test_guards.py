"""Every public entry point that takes a generation refuses n = -1 with
DomainError and the generation one past its limit with SizeLimitExceeded,
before any costly work starts.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from fractal_tutte.cli import MAX_GRID_POINTS
from fractal_tutte.errors import DomainError, SizeLimitExceeded
from fractal_tutte.graphs import (
    MAX_GENERATION,
    build_psw_copy_merge,
    build_psw_edge_expansion,
    build_sierpinski,
    psw_edge_count,
    psw_vertex_count,
)
from fractal_tutte.invariants import (
    MAX_EVAL_GENERATION,
    MAX_TREE_COUNT_GENERATION,
    eval_tutte_at_point,
    invariant_report,
    spanning_trees_closed_form,
    spanning_trees_recurrence,
)
from fractal_tutte.oracle import (
    MAX_DC_EDGES,
    MAX_MATRIX_TREE_VERTICES,
    MAX_SUBSET_EDGES,
)
from fractal_tutte.recursion import (
    MAX_SYMBOLIC_GENERATION,
    psw_state,
    tutte_psw,
)
from fractal_tutte.reliability import (
    MAX_APPROX_GENERATION,
    MAX_EXACT_GENERATION,
    compare_curves,
    psw_rel_via_tutte,
    reliability_state,
)
from fractal_tutte.scalars import MAX_LOG_GENERATION

#: (entry point of n, its limit); None where no depth limit applies.
GUARDED = {
    "build_psw_edge_expansion": (build_psw_edge_expansion, MAX_GENERATION),
    "build_psw_copy_merge": (build_psw_copy_merge, MAX_GENERATION),
    "build_sierpinski": (build_sierpinski, MAX_GENERATION),
    "psw_vertex_count": (psw_vertex_count, None),
    "psw_edge_count": (psw_edge_count, None),
    "psw_state": (lambda n: psw_state(n, 1, 2), None),
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
        MAX_EXACT_GENERATION),
    "reliability_state.sg.exact": (
        lambda n: reliability_state("sg", n, Fraction(1, 3), "exact"),
        MAX_EXACT_GENERATION),
    "reliability_state.psw.float": (
        lambda n: reliability_state("psw", n, 0.5, "float"), None),
    # Near p = 1 no value leaves Decimal's exponent range by n = 41.
    "reliability_state.sg.log": (
        lambda n: reliability_state("sg", n, 0.99, "log"),
        MAX_LOG_GENERATION),
    "compare_curves.exact": (
        lambda n: compare_curves(n, [0.5], "exact"), MAX_EXACT_GENERATION),
    "compare_curves.float": (
        lambda n: compare_curves(n, [0.5], "float"), None),
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
    "`exact`-mode reliability": MAX_EXACT_GENERATION,
    "spanning-tree counts": MAX_TREE_COUNT_GENERATION,
    "decay approximation `psw_rel_approx_log`": MAX_APPROX_GENERATION,
    "subgraph-sum oracles and reliability enumeration": MAX_SUBSET_EDGES,
    "deletion-contraction oracle": MAX_DC_EDGES,
    "matrix-tree oracle": MAX_MATRIX_TREE_VERTICES,
    "`reliability --p-grid`": MAX_GRID_POINTS,
    "`log`-mode reliability": MAX_LOG_GENERATION,
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
