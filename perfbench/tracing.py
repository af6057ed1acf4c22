"""Per-layer tracing of fractal_tutte from outside the package.

The tracer replaces public functions and ``BiPoly`` operators with
wrappers, in every module namespace that holds them, so calls through
``from .x import f`` imports are seen too.  Each wrapped call records a
span (name, start, end, parent) in compact arrays; self time (duration
minus the time of child spans) and inclusive time are summed per name as
spans close.  Hot scalar helpers are counted, not timed.

Nothing is patched unless ``install`` is called, so untraced runs execute
the package unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.names: dict[str, int] = {}
        # One entry per span, in the order spans open: name id, start, end,
        # parent span index (-1 at the top of an op).
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.ops = 0
        self.op_counts: Counter = Counter()
        self.op_graphs: set = set()
        self._stack: list[list] = []
        self._on_stack: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- op boundaries -------------------------------------------------------

    def begin_op(self) -> None:
        self.op_counts = Counter()
        self.op_graphs = set()
        self.active = True

    def end_op(self) -> Counter:
        """Stop recording; fold this op's counts into the totals."""
        self.active = False
        self.ops += 1
        self.counts.update(self.op_counts)
        self.counts["oracle.census_distinct"] += len(self.op_graphs)
        return self.op_counts

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn, name, namer=None, observe=None):
        """A span-recording wrapper around fn.

        namer(args) may refine the span name from the arguments;
        observe(tracer, args, result, seconds) records counts after the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = namer(args) if namer else name
            entry = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(entry, end)
            if observe:
                observe(tracer, args, result, end - entry[1])
            return result

        return wrapper

    def counter(self, fn, name):
        """A wrapper that only counts calls (for per-value hot paths)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.op_counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _open(self, label: str) -> list:
        """Start a span; the entry is [label, start, child time, index]."""
        index = len(self.span_name)
        start = perf_counter()
        self.span_name.append(self.names.setdefault(label, len(self.names)))
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        entry = [label, start, 0.0, index]
        self._stack.append(entry)
        self._on_stack[label] += 1
        return entry

    def _close(self, entry, end):
        label, start, child, index = entry
        self._stack.pop()
        self._on_stack[label] -= 1
        self.span_end[index] = end
        duration = end - start
        if self._on_stack[label] == 0:
            self.inclusive[label] += duration
        self.self_time[label] += duration - child
        self.op_counts[label + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def patch(self, package: str, original, wrapper) -> None:
        """Replace original with wrapper in every module of the package."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                    mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value


# -- what to wrap, layer by layer --------------------------------------------

def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms().values()), default=0)


def _observe_mul(tracer, args, result, seconds):
    for operand in args:
        if hasattr(operand, "num_terms"):
            tracer.note_max("bipoly.mul.max_operand_terms", operand.num_terms())
            tracer.note_max("bipoly.mul.max_coeff_bits", _coeff_bits(operand))


def _observe_step(tracer, args, result, seconds):
    g = f"g{result.level}"
    terms = sum(p.num_terms() for p in (result.t1, result.p, result.q))
    bits = max(_coeff_bits(p) for p in (result.t1, result.p, result.q))
    tracer.note_max(f"recursion.step_state.{g}.terms", terms)
    tracer.note_max(f"recursion.step_state.{g}.max_coeff_bits", bits)


def _point_kind(args) -> str:
    _, x0, y0 = args[:3]
    integral = all(getattr(v, "denominator", 1) == 1 for v in (x0, y0))
    return "int" if integral else "rational"


def _observe_eval(tracer, args, result, seconds):
    bits = max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for v in result)
    tracer.note_max("invariants.eval_state_at_point.result_bits", bits)


def _census_edges(graph) -> int:
    return graph.num_edges if hasattr(graph, "num_edges") else len(graph[1])


def _observe_census(tracer, args, result, seconds):
    graph = args[0]
    edges = _census_edges(graph)
    side = "le20" if edges <= 20 else "gt20"
    tracer.op_counts["oracle.census_runs"] += 1
    tracer.op_counts["oracle.subsets"] += 1 << edges
    tracer.op_counts[f"oracle.subsets.{side}"] += 1 << edges
    tracer.op_counts[f"oracle.census_us.{side}"] += round(seconds * 1e6)
    if hasattr(graph, "edges"):
        tracer.op_graphs.add((graph.num_vertices, graph.edges))
    else:
        tracer.op_graphs.add((graph[0], tuple(map(tuple, graph[1]))))


def _observe_build(tracer, args, result, seconds):
    tracer.op_counts["graphs.build.edges"] += result.num_edges


#: Public oracle functions that enumerate all 2^E edge subsets.
CENSUS_FUNCTIONS = (
    "tutte_subgraph_sum", "partition_subgraph_sum", "reliability_enumeration")


def install(tracer: Tracer) -> None:
    """Wrap the public layers of fractal_tutte (not unionfind)."""
    from fractal_tutte import (bipoly, cli, graphs, invariants, oracle,
                               recursion, reliability, scalars)

    BiPoly = bipoly.BiPoly
    mul = tracer.wrap(BiPoly.__mul__, "bipoly.mul", observe=_observe_mul)
    tracer.patch_attr(BiPoly, "__mul__", mul)
    tracer.patch_attr(BiPoly, "__rmul__", mul)
    tracer.patch_attr(BiPoly, "__add__",
                      tracer.wrap(BiPoly.__add__, "bipoly.add"))
    tracer.patch_attr(BiPoly, "to_json_dict",
                      tracer.wrap(BiPoly.to_json_dict, "bipoly.to_json_dict"))

    def wrap_module(module, short, namers=None, observers=None):
        namers = namers or {}
        observers = observers or {}
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != module.__name__):
                continue
            wrapper = tracer.wrap(value, f"{short}.{attr}",
                                  namer=namers.get(attr),
                                  observe=observers.get(attr))
            tracer.patch("fractal_tutte", value, wrapper)

    wrap_module(recursion, "recursion",
                namers={"step_state":
                        lambda a: f"recursion.step_state.g{a[0].level + 1}"},
                observers={"step_state": _observe_step})
    wrap_module(invariants, "invariants",
                namers={"eval_state_at_point": lambda a:
                        f"invariants.eval_state_at_point.{_point_kind(a)}"},
                observers={"eval_state_at_point": _observe_eval})
    wrap_module(reliability, "reliability",
                namers={
                    "psw_rel_step":
                        lambda a: f"reliability.step.{a[0].mode}.psw",
                    "sg_rel_step":
                        lambda a: f"reliability.step.{a[0].mode}.sg",
                    "format_probability":
                        lambda a: f"reliability.format.{a[1]}",
                })
    wrap_module(oracle, "oracle",
                observers={name: _observe_census
                           for name in CENSUS_FUNCTIONS})
    wrap_module(graphs, "graphs",
                namers={name: (lambda a: "graphs.build")
                        for name in ("build_psw_edge_expansion",
                                     "build_sierpinski",
                                     "build_psw_copy_merge")},
                observers={name: _observe_build
                           for name in ("build_psw_edge_expansion",
                                        "build_sierpinski",
                                        "build_psw_copy_merge")})
    for name in ("logsumexp", "fraction_ln"):
        original = getattr(scalars, name)
        tracer.patch("fractal_tutte", original,
                     tracer.counter(original, f"scalars.{name}.calls"))
    tracer.patch("fractal_tutte", cli.main,
                 tracer.wrap(cli.main, "cli.main",
                             namer=lambda a: f"cli.main.{a[0][0]}"))
