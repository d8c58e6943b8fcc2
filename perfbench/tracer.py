"""Per-layer spans and counts, recorded by wrapping memsplate from outside.

No library source changes: while installed, the tracer puts a timing wrapper
in place of every public function of each layer module, at every place a
caller looks it up.  The modules import with ``from .x import y``, so a call
from ``minimize`` goes through ``memsplate.minimize.compute_force`` and gets
its own wrapper there.  A few methods are wrapped on their class, and
``memsplate.fields.spla`` is swapped for a proxy that times the sparse
factorization and the triangular solves.  ``remove`` restores every original.

Spans stay in memory: name, the module the call was looked up in, start,
end, parent span (per thread) and the state operation they belong to.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass

from stats import median, tail

PACKAGE = "memsplate"
LAYERS = ("params", "hermite", "fields", "forces", "minimize", "bounds", "verify", "io_files", "cli")
METHODS = {
    ("fields", "FieldSolver"): ("solve", "shape_gradient_load", "electrostatic_energy", "boundary_data_energy"),
    ("minimize", "SolveContext"): ("reduced_solve",),
}
# basis evaluations run once per element or sample point: tracing them would
# cost more than the work they do, so they stay untraced
UNTRACED = {"hermite.shape_functions", "hermite.gauss_rule"}
# a state operation starts at each CLI command and, within a sweep, at each point
OP_BOUNDARIES = {("cli", "main"), ("cli", "_run_sweep_point")}

SOLVE = "fields.FieldSolver.solve"
FACTOR = "fields.factor"
TRISOLVE = "fields.trisolve"
MINIMIZE = "minimize.minimize_Ek"
PIPELINE = "minimize.continuation_pipeline"


@dataclass
class Span:
    name: str
    site: str
    t0: float
    t1: float
    parent: int
    op: int
    thread: int

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _outer_iterations(tracer, args, out, exc):
    report = out[1] if exc is None else getattr(exc, "report", None)
    if report is not None:
        tracer.counts["minimize.outer_iterations"] += report.iterations


def _bytes_written(tracer, args, out, exc):
    if exc is None and args and os.path.isfile(args[0]):
        tracer.counts["io_files.bytes_written"] += os.path.getsize(args[0])


AFTER = {MINIMIZE: _outer_iterations}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self.op = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def new_op(self) -> None:
        """Spans recorded from now on belong to a new state operation."""
        self.op += 1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, site: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            op = tracer.op
            stack.append(idx)
            t0 = time.perf_counter()
            out, exc = None, None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.spans[idx] = Span(name, site, t0, time.perf_counter(), parent, op, threading.get_ident())
                stack.pop()
                if after is not None:
                    after(tracer, args, out, exc)

        traced.perfbench_span = name
        return traced

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = PACKAGE + "."
        for layer in LAYERS:
            mod = importlib.import_module(pkg + layer)
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith(pkg):
                    continue
                if attr.startswith("_") and (layer, attr) not in OP_BOUNDARIES:
                    continue
                name = f"{obj.__module__[len(pkg):]}.{obj.__name__}"
                if name in UNTRACED:
                    continue
                before = self.new_op if (layer, attr) in OP_BOUNDARIES else None
                after = _bytes_written if name.startswith("io_files.write_") else AFTER.get(name)
                self._patch(mod, attr, self.wrap(name, layer, obj, before, after))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(pkg + layer), cls_name)
            for m in methods:
                self._patch(cls, m, self.wrap(f"{layer}.{cls_name}.{m}", layer, cls.__dict__[m]))
        fields = importlib.import_module(pkg + "fields")
        self._patch(fields, "spla", _TimedLinalg(fields.spla, self))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, rounds: int, round_wall_s: float, states: int) -> dict:
        """Per-layer metrics of the traced rounds.

        Counts and ``_s`` figures are per round (rounds repeat the same inputs,
        so counts are exact); ``_ms`` figures are medians per call.
        ``round_wall_s`` is the summed wall time of the traced rounds and
        ``states`` the number of state operations in them.
        """
        spans = self.spans
        by_name = defaultdict(list)   # name -> span indices
        children = defaultdict(list)  # span index -> child spans
        for i, s in enumerate(spans):
            by_name[s.name].append(i)
            if s.parent >= 0:
                children[s.parent].append(s)

        def durs(name, site=None):
            return [spans[i].dur for i in by_name[name] if site is None or spans[i].site == site]

        def calls(name):
            return len(by_name[name]) / rounds

        def ms(name):
            return 1e3 * median(durs(name))

        def per_round_s(names, site=None):
            return sum(sum(durs(n, site)) for n in names) / rounds

        def child_time(i, name):
            return sum(k.dur for k in children[i] if k.name == name)

        def inside(i, name):
            p = spans[i].parent
            while p >= 0 and spans[p].name != name:
                p = spans[p].parent
            return p >= 0

        solves = by_name[SOLVE]
        factor = [child_time(i, FACTOR) for i in solves]
        trisolve = [child_time(i, TRISOLVE) for i in solves]
        rest = [spans[i].dur - f - t for i, f, t in zip(solves, factor, trisolve)]
        # every minimize_Ek call solves once before its loop; the others are line-search trials
        trials = sum(1 for i in solves if inside(i, MINIMIZE)) - len(by_name[MINIMIZE])
        certificate = [spans[i].dur - child_time(i, MINIMIZE) for i in by_name[PIPELINE]]
        writes = sorted(n for n in by_name if n.startswith("io_files.write_"))
        outer = self.counts["minimize.outer_iterations"]
        return {
            "fields.solve_calls": (len(solves) / rounds, "count"),
            "fields.solves_per_state": (len(solves) / states, "count"),
            "fields.solve_ms": (ms(SOLVE), "ms"),
            "fields.solve_ms_tail": (1e3 * tail(durs(SOLVE))["value"], "ms"),
            "fields.solve_share": (sum(durs(SOLVE)) / round_wall_s, "frac"),
            "fields.factor_ms": (1e3 * median(factor), "ms"),
            "fields.trisolve_ms": (1e3 * median(trisolve), "ms"),
            "fields.assemble_pack_ms": (1e3 * median(rest), "ms"),
            "fields.shape_gradient_ms": (ms("fields.FieldSolver.shape_gradient_load"), "ms"),
            "fields.energy_ms": (ms("fields.FieldSolver.electrostatic_energy"), "ms"),
            "fields.boundary_data_energy_ms": (ms("fields.FieldSolver.boundary_data_energy"), "ms"),
            "forces.compute_force_ms": (ms("forces.compute_force"), "ms"),
            "forces.compute_force_calls": (calls("forces.compute_force"), "count"),
            "hermite.mechanical_energy_ms": (ms("hermite.mechanical_energy"), "ms"),
            "hermite.mechanical_energy_calls": (calls("hermite.mechanical_energy"), "count"),
            "minimize.penalty_ms": (ms("minimize.penalty_value_grad"), "ms"),
            "minimize.penalty_calls": (calls("minimize.penalty_value_grad"), "count"),
            "minimize.outer_iterations": (outer / rounds, "count"),
            "minimize.ls_trials": (trials / rounds, "count"),
            "minimize.accept_ratio": (outer / trials if trials else 0.0, "frac"),
            "minimize.reduced_solve_ms": (ms("minimize.SolveContext.reduced_solve"), "ms"),
            "minimize.reduced_solve_calls": (calls("minimize.SolveContext.reduced_solve"), "count"),
            "minimize.certificate_s": (sum(certificate) / rounds, "s"),
            "minimize.make_context_calls": (calls("minimize.make_context"), "count"),
            "params.derive_constants_s": (per_round_s(["params.derive_constants"]), "s"),
            "params.derive_constants_calls": (calls("params.derive_constants"), "count"),
            "bounds.comparison_bvp_calls": (calls("bounds.solve_comparison_bvp"), "count"),
            "bounds.comparison_bvp_s": (per_round_s(["bounds.solve_comparison_bvp"]), "s"),
            "bounds.clamped_bvp_calls": (calls("bounds.solve_clamped_bvp"), "count"),
            "bounds.clamped_bvp_s": (per_round_s(["bounds.solve_clamped_bvp"]), "s"),
            "verify.run_suite_s": (per_round_s(["verify.run_suite"]), "s"),
            "verify.comparison_bound_battery_s": (per_round_s(["verify.comparison_bound_battery"]), "s"),
            "verify.boggio_probe_s": (per_round_s(["verify.boggio_positivity_probe"]), "s"),
            "verify.comparison_sandwich_s": (per_round_s(["verify.comparison_sandwich"]), "s"),
            "verify.energy_total_s": (per_round_s(["minimize.energy_total"], site="verify"), "s"),
            "io_files.write_s": (per_round_s(writes), "s"),
            "io_files.bytes_written": (self.counts["io_files.bytes_written"] / rounds, "bytes"),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, site, start, end, parent, op, thread)."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.site, s.t0, s.t1, s.parent, s.op, s.thread]) + "\n")


class _TimedLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``memsplate.fields``."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer
        self.splu = tracer.wrap(FACTOR, "fields", self._splu)

    def _splu(self, *args, **kwargs):
        return _TimedLU(self._real.splu(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _TimedLU:
    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap(TRISOLVE, "fields", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)
