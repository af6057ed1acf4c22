"""Exact Tutte polynomials and reliability of two self-similar graph families.

The pseudofractal scale-free web and the Sierpinski gasket grow by
merging three copies of the previous generation, which collapses the
(generally intractable) Tutte polynomial into a three-component
polynomial recursion, one step per generation.  This package implements
that recursion exactly, together with the numeric invariants it unlocks
(spanning trees, forests, connected spanning subgraphs, acyclic
orientations) and all-terminal reliability on exact rationals, floats,
or high-precision decimals, all validated against brute-force oracles.
"""

from .bipoly import BiPoly
from .errors import (
    DomainError,
    FractalTutteError,
    SizeLimitExceeded,
    ZeroPolynomial,
)
from .graphs import (
    HubGraph,
    build_psw_copy_merge,
    build_psw_edge_expansion,
    build_sierpinski,
    degree_histogram,
    from_edge_list,
    psw_edge_count,
    psw_vertex_count,
    to_edge_list,
)
from .invariants import (
    ExponentSeq,
    InvariantReport,
    eval_tutte_at_point,
    exponent_sequences,
    invariant_report,
    spanning_trees_closed_form,
    spanning_trees_recurrence,
)
from .oracle import (
    Census,
    HubPattern,
    census,
    matrix_tree_count,
    partition_subgraph_sum,
    reliability_enumeration,
    tutte_deletion_contraction,
    tutte_subgraph_sum,
)
from .recursion import tutte_psw
from .reliability import (
    CurvePoint,
    RelState,
    compare_curves,
    curves_to_csv,
    psw_rel_approx_log,
    psw_rel_via_tutte,
    reliability_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
