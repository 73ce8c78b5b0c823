"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces the public functions of every layer module
of ``conesing`` with timing wrappers, in every module that holds a
reference to them (``from .resolution import build_graph`` in
``catalog`` binds its own name, so that binding is replaced too).  A
few private or method entry points that carry most of the work are
wrapped by name as well.  Spans nest through a parent index, carry the
id of the CLI command that caused them, and stay in memory until
``write_spans``; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "jsonio", "divisors", "quotient", "resolution", "sections",
          "linalg", "toric", "catalog", "counterexamples")

# (module, owner attribute path, span name): entry points that are not
# public module functions
EXTRA_ENTRY_POINTS = (
    ("catalog", "_evaluate_candidate", "catalog.evaluate"),
    ("sections", "SectionSpace.multiply", "sections.multiply"),
    ("linalg", "RowSpan.add", "linalg.rowspan_add"),
)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.commands = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.command = -1
        self.errors: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.candidates: List[Tuple[int, bool, bool]] = []  # span, accepted, klt
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              observe: Optional[Callable] = None) -> Callable:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]
        tracer = self
        name_ids, parents, commands = self.name_ids, self.parents, self.commands
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = tracer.current
            name_ids.append(nid)
            parents.append(parent)
            commands.append(tracer.command)
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                tracer.current = parent
                tracer.errors[layer] += 1
                raise
            ends[idx] = perf_counter()
            tracer.current = parent
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced

    def _observers(self) -> Dict[str, Callable]:
        c = self.counters

        def evaluate(idx, args, result):
            fracs = args[0][0]
            boundary = sum((1 - Fraction(1, f.denominator) for f in fracs),
                           Fraction(0))
            self.candidates.append((idx, result is not None, boundary < 2))

        def rowspan_add(idx, args, result):
            c["linalg.rowspan_add.useful"] += bool(result)

        def build_graph(idx, args, result):
            c["resolution.graph_vertices"] += result.size

        def vertex_decomposition(idx, args, result):
            c["quotient.decomposition_m_sum"] += result.m

        def verify_comparison(idx, args, result):
            c["toric.samples_checked"] += len(result.checks)

        def an_min_over_actions(idx, args, result):
            box = args[1]
            c["counterexamples.an_cells"] += (2 * box + 1) * (2 * box)

        def dumps(idx, args, result):
            c["jsonio.bytes_out"] += len(result.encode("utf-8"))

        return {"catalog.evaluate": evaluate,
                "linalg.rowspan_add": rowspan_add,
                "resolution.build_graph": build_graph,
                "quotient.vertex_decomposition": vertex_decomposition,
                "toric.verify_comparison": verify_comparison,
                "counterexamples.an_min_over_actions": an_min_over_actions,
                "jsonio.dumps": dumps}

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever a
        ``conesing`` module binds it, plus the extra entry points."""
        import importlib
        for layer in LAYERS:
            importlib.import_module(f"conesing.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "conesing" or n.startswith("conesing.")) and m]
        observers = self._observers()
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"conesing.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, fn, observers.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._replace(mod, attr, wrapper)
        for layer, path, name in EXTRA_ENTRY_POINTS:
            owner = sys.modules[f"conesing.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = vars(owner)[attr]
            self._replace(owner, attr, self._wrap(name, fn, observers.get(name)))

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def durations(self) -> Tuple[List[float], List[float]]:
        """Span duration and self time (duration minus child spans)."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def per_name(self) -> Dict[str, Dict[str, float]]:
        dur, self_time = self.durations()
        out: Dict[str, Dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i, nid in enumerate(self.name_ids):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += self_time[i]
        return out

    def top_share(self, k: int = 10) -> float:
        """Share of candidate-evaluation time spent in the k slowest."""
        times = sorted((self.ends[i] - self.starts[i]
                        for i, _, _ in self.candidates), reverse=True)
        total = sum(times)
        return sum(times[:k]) / total if total else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tcommand\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.commands[i]}\t{self.parents[i]}\t"
                         f"{self.names[self.name_ids[i]]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


# (name, unit, better) of every per-layer metric, in report order
KINDS = ("enumerate", "audit", "describe", "resolve", "discrepancy", "hilbert",
         "presentation", "toric-check", "verify-examples")
LAYER_METRICS = (
    [("catalog.candidates", "count", "lower"),
     ("catalog.accepted", "count", "higher"),
     ("catalog.rejected_not_klt", "count", "lower"),
     ("catalog.rejected_below_eps", "count", "lower"),
     ("catalog.accept_ratio", "ratio", "higher"),
     ("catalog.evaluate_self_s", "s", "lower"),
     ("catalog.top10_share", "ratio", "lower"),
     ("catalog.audit_self_s", "s", "lower"),
     ("sections.presentation.calls", "count", "lower"),
     ("sections.presentation.self_s", "s", "lower"),
     ("sections.multiply.calls", "count", "lower"),
     ("sections.hilbert_series.self_s", "s", "lower"),
     ("sections.h0.calls", "count", "lower"),
     ("linalg.rowspan_add.calls", "count", "lower"),
     ("linalg.rowspan_add.useful_ratio", "ratio", "higher"),
     ("linalg.nullspace.self_s", "s", "lower"),
     ("linalg.det_int.self_s", "s", "lower"),
     ("resolution.build_graph.calls", "count", "lower"),
     ("resolution.build_graph.self_s", "s", "lower"),
     ("resolution.germ_mld.self_s", "s", "lower"),
     ("resolution.is_eps_lc_x.self_s", "s", "lower"),
     ("resolution.mld_vertex.self_s", "s", "lower"),
     ("resolution.blow_down.self_s", "s", "lower"),
     ("resolution.graph_vertices", "count", "lower"),
     ("quotient.vertex_decomposition.self_s", "s", "lower"),
     ("quotient.decomposition_m_sum", "count", "lower"),
     ("quotient.log_fano_quotient.calls", "count", "lower"),
     ("divisors.normal_form.self_s", "s", "lower"),
     ("divisors.floor_multiple.calls", "count", "lower"),
     ("toric.verify_comparison.self_s", "s", "lower"),
     ("toric.cone_of_x.self_s", "s", "lower"),
     ("toric.samples_checked", "count", "higher"),
     ("counterexamples.an_min_over_actions.self_s", "s", "lower"),
     ("counterexamples.an_cells", "count", "lower"),
     ("counterexamples.rnc_family_report.self_s", "s", "lower"),
     ("cli.import_s", "s", "lower"),
     ("jsonio.dumps.self_s", "s", "lower"),
     ("jsonio.bytes_out", "bytes", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [(f"cli.{kind.replace('-', '_')}_s", "s", "lower") for kind in KINDS]
    + [("trace.overhead_ratio", "ratio", "lower"),
       ("trace.traced_wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower"),
       ("trace.spans", "count", "lower")])


def layer_metrics(tracer: Tracer, import_s: float, traced_wall: float,
                  untraced_wall: float, kind_times: Dict[str, float]) -> Dict[str, float]:
    """Every LAYER_METRICS value from one traced pass.

    ``kind_times`` is the untraced in-process wall time summed per
    command kind; ``import_s`` the package import time in a fresh
    interpreter.
    """
    rows = tracer.per_name()

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    def self_s(name):
        return rows[name]["self_s"] if name in rows else 0.0

    c = tracer.counters
    cands = tracer.candidates
    accepted = sum(1 for _, ok, _ in cands if ok)
    not_klt = sum(1 for _, ok, klt in cands if not ok and not klt)
    adds = calls("linalg.rowspan_add")
    values = {
        "catalog.candidates": len(cands),
        "catalog.accepted": accepted,
        "catalog.rejected_not_klt": not_klt,
        "catalog.rejected_below_eps": len(cands) - accepted - not_klt,
        "catalog.accept_ratio": accepted / len(cands) if cands else 0.0,
        "catalog.evaluate_self_s": self_s("catalog.evaluate"),
        "catalog.top10_share": tracer.top_share(10),
        "catalog.audit_self_s": self_s("catalog.audit_catalog"),
        "linalg.rowspan_add.useful_ratio":
            c["linalg.rowspan_add.useful"] / adds if adds else 0.0,
        "cli.import_s": import_s,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.spans": len(tracer.starts),
    }
    for key in ("resolution.graph_vertices", "quotient.decomposition_m_sum",
                "toric.samples_checked", "counterexamples.an_cells",
                "jsonio.bytes_out"):
        values[key] = int(c[key])
    layer_self = defaultdict(float)
    for name, row in rows.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.errors"] = tracer.errors[layer]
    for kind in KINDS:
        values[f"cli.{kind.replace('-', '_')}_s"] = kind_times.get(kind, 0.0)
    for name, _, _ in LAYER_METRICS:
        if name in values:
            continue
        base, stat = name.rsplit(".", 1)
        values[name] = calls(base) if stat == "calls" else self_s(base)
    return values
