"""Per-layer spans for the measopt benchmark, recorded from outside the package.

Nothing in ``src/`` is edited.  ``Tracer.installed()`` replaces, for the
duration of a ``with`` block, the names that each calling module looks up
(``measopt.solver._solve_shifted``, ``measopt.kernels.cg_shifted``,
``Nonlinearity.__call__``, ...) with wrappers that open a span, and puts
back the originals on exit.  ``scipy.sparse.linalg.splu`` is wrapped only
as ``measopt.solver`` sees it, through a stand-in for its ``spla`` module.

A span is named ``<layer>.<what>``; the layer is one of the package's
modules, or ``bench`` for the benchmark's own root span around each
operation.  Self time is a span's duration minus the durations of its
direct children, so the self times of all spans sum to the durations of
the root spans.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

LAYERS = ("bench", "cli", "experiments", "control", "solver", "kernels",
          "measures", "nonlinearity", "grid")

# (span name, defining module, attribute, modules whose namespace is patched
# under the same attribute name).  Aliased imports are listed in ALIASES.
WRAPPED_FUNCTIONS = (
    ("cli.run_cli", "cli", "run_cli", ("cli",)),
    ("experiments.run_experiment", "experiments", "run_experiment",
     ("experiments", "cli")),
    ("control.optimize", "control", "optimize", ("control", "experiments")),
    ("control.evaluate_cost", "control", "evaluate_cost", ("control", "experiments")),
    ("control.adjoint_gradient", "control", "adjoint_gradient", ("control",)),
    ("control.check_state_regularity", "control", "check_state_regularity",
     ("control", "experiments")),
    ("control.alpha_sweep", "control", "alpha_sweep", ("control",)),
    ("control.stability_run", "control", "stability_run", ("control",)),
    ("solver.newton", "solver", "solve_semilinear",
     ("solver", "control", "experiments", "cli")),
    ("solver.solve_linear", "solver", "solve_linear", ("solver", "experiments")),
    ("solver.linear", "solver", "_solve_shifted", ("solver", "control")),
    ("solver.sub_supersolution", "solver", "solve_by_sub_supersolution", ("solver",)),
    ("solver.truncate_min", "solver", "truncate_min", ("solver", "control", "experiments")),
    ("solver.truncate_max", "solver", "truncate_max", ("solver", "control")),
    ("solver.lemma_truncation_check", "solver", "lemma_truncation_check",
     ("solver", "experiments")),
    ("solver.residual_measure", "solver", "residual_measure", ("solver", "experiments")),
    ("solver.reduced_limit", "solver", "reduced_limit", ("solver", "experiments")),
    ("kernels.cg", "kernels", "cg_shifted", ("kernels",)),
    ("kernels.matvec", "kernels", "neg_laplacian", ("kernels",)),
    # the numpy CG calls its stencil through this global
    ("kernels.matvec", "kernels", "neg_laplacian_numpy", ("kernels",)),
    ("measures.rasterize", "measures", "rasterize", ("measures", "solver")),
    ("measures.mollify", "measures", "mollify", ("measures", "experiments")),
    ("grid.neg_laplacian_apply", "grid", "neg_laplacian_apply", ("grid", "experiments")),
    ("grid.save_field", "grid", "save_field", ("grid", "cli")),
    ("grid.load_field", "grid", "load_field", ("grid", "cli")),
)
ALIASES = (
    ("control.optimize", "control", "optimize", "cli", "optimize_problem"),
)
NONLINEARITY_METHODS = (("nonlinearity.g", "__call__"),
                        ("nonlinearity.dg", "derivative"),
                        ("nonlinearity.G", "primitive"))
TRUNCATION_SPANS = ("solver.truncate_min", "solver.truncate_max",
                    "solver.lemma_truncation_check")


class _ModuleView:
    """Forwards attribute reads to a module, except for the overrides."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of one traced batch.

    ``stats[(name, parent)]`` holds ``[calls, inclusive_s, self_s]``.  With
    ``keep_spans`` every span is also kept as ``(name, parent_index, t0, t1)``
    so the batch can be written out when the run ends.
    """

    def __init__(self, keep_spans: bool = False):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = Counter()
        self.spans = [] if keep_spans else None
        self._stack = []  # open frames: [name, child_seconds, span_index]
        self._recording = False

    # -- spans ----------------------------------------------------------
    def root(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span; the tracer records only inside one."""
        self._recording = True
        try:
            return self._call(name, fn, None, args, kwargs)
        finally:
            self._recording = False

    def _call(self, name, fn, observe, args, kwargs):
        if not self._recording:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        index = None
        if self.spans is not None:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, index]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            parent_name = parent[0] if parent else None
            entry = self.stats[(name, parent_name)]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if index is not None:
                self.spans[index] = (name, parent[2] if parent else None, t0, t1)
        if observe is not None:
            observe(self, args, out)
        return out

    def _wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, observe, args, kwargs)
        return traced

    # -- patching -------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, measopt):
        """Patch the traced names into the package for the ``with`` block."""
        mods = {name: getattr(measopt, name) for name in
                ("cli", "experiments", "control", "solver", "kernels",
                 "measures", "grid", "nonlinearity")}
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        # (caller, name it looks up, span, original), read before any patching
        targets = [(caller, attr, span, getattr(mods[home], attr))
                   for span, home, attr, callers in WRAPPED_FUNCTIONS for caller in callers]
        targets += [(caller, alias, span, getattr(mods[home], attr))
                    for span, home, attr, caller, alias in ALIASES]
        try:
            for caller, name, span, original in targets:
                if getattr(mods[caller], name) is original:
                    patch(mods[caller], name,
                          self._wrap(span, original, _OBSERVERS.get(span)))
            solver = mods["solver"]
            patch(solver, "spla", _ModuleView(
                solver.spla, splu=self._wrap("solver.lu_factor", solver.spla.splu)))
            cls = mods["nonlinearity"].Nonlinearity
            for span, method in NONLINEARITY_METHODS:
                patch(cls, method, self._wrap(span, getattr(cls, method)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- summaries ------------------------------------------------------
    def calls(self, name, parent=Ellipsis) -> int:
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and (parent is Ellipsis or p == parent))

    def inclusive(self, names) -> float:
        """Inclusive seconds of spans in ``names`` whose parent is not itself
        in ``names``, so nesting is not counted twice."""
        names = set(names)
        return sum(v[1] for (n, p), v in self.stats.items() if n in names and p not in names)

    def self_seconds(self, predicate) -> float:
        return sum(v[2] for (n, _), v in self.stats.items() if predicate(n))

    def layer_self(self, layer: str) -> float:
        return self.self_seconds(lambda n: n.split(".", 1)[0] == layer)

    def root_seconds(self) -> float:
        return sum(v[1] for (_, p), v in self.stats.items() if p is None)

    def span_count(self) -> int:
        return sum(v[0] for v in self.stats.values())


# -- observers: counts read from what the wrapped call returned ------------

def _observe_newton(tracer, args, out):
    _, report = out
    _count_report(tracer, report)
    tracer.counters["solver.newton_steps"] += report.iterations


def _observe_solve_linear(tracer, args, out):
    _count_report(tracer, out[1])


def _count_report(tracer, report):
    tracer.counters["solver.reports"] += 1
    if report.method.endswith("direct"):
        tracer.counters["solver.direct_reports"] += 1
    if report.method.endswith("cg"):
        tracer.counters["solver.report_cg_inner"] += report.inner_iterations


def _observe_cg(tracer, args, out):
    # cg_shifted(b, diag, dim, n, ...) -> (x, iterations, residual, converged)
    dim, n = args[2], args[3]
    iters = int(out[1])
    tracer.counters["kernels.krylov_iters"] += iters
    tracer.counters["kernels.cg_flops_computed"] += cg_flops_per_iter(dim, n ** dim) * iters
    tracer.counters["kernels.cg_bytes_computed"] += cg_bytes_per_iter(dim, n ** dim) * iters


def _observe_optimize(tracer, args, out):
    tracer.counters["control.prox_iters"] += len(out.history) - 1
    tracer.counters["control.adjoint_solves"] += len(out.history)
    tracer.counters["control.converged"] += bool(out.converged)


def _observe_cli(tracer, args, out):
    if out != 0:
        tracer.counters["cli.nonzero_exits"] += 1


_OBSERVERS = {
    "solver.newton": _observe_newton,
    "solver.solve_linear": _observe_solve_linear,
    "kernels.cg": _observe_cg,
    "control.optimize": _observe_optimize,
    "cli.run_cli": _observe_cli,
}


def cg_flops_per_iter(dim: int, nodes: int) -> int:
    """Floating-point operations of one iteration of the numpy CG.

    Shifted stencil: 2*dim neighbour subtractions, two scalings, the
    diagonal product and its sum, so 2*dim + 4 per node.  Vector work:
    two dot products, three axpy-type updates and the weighted |r| sum,
    2 each per node.  Computed from the node count, not measured.
    """
    return (2 * dim + 16) * nodes


def cg_bytes_per_iter(dim: int, nodes: int) -> int:
    """Bytes the numpy CG streams per iteration, counted as whole-array
    float64 passes (each read or write of an N-vector is one pass):
    6*dim + 10 for the shifted stencil's temporaries, 22 for the vector
    updates.  Computed from the node count; cache reuse is ignored."""
    return 8 * (6 * dim + 32) * nodes


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced batch, by name."""
    c = tracer.counters
    newton_calls = tracer.calls("solver.newton")
    cg_s = tracer.inclusive(["kernels.cg"])
    krylov = c["kernels.krylov_iters"]
    reports = c["solver.reports"]
    optimize_calls = tracer.calls("control.optimize")
    state_solves = tracer.calls("solver.newton", "control.optimize")
    out = {
        "cli.calls": tracer.calls("cli.run_cli"),
        "cli.nonzero_exits": c["cli.nonzero_exits"],
        "experiments.calls": tracer.calls("experiments.run_experiment"),
        "control.optimize_calls": optimize_calls,
        "control.optimize_s": tracer.inclusive(["control.optimize"]),
        "control.prox_iters": c["control.prox_iters"],
        "control.state_solves": state_solves,
        "control.adjoint_solves": c["control.adjoint_solves"],
        "control.adjoint_s": sum(v[1] for (n, p), v in tracer.stats.items()
                                 if n == "solver.linear" and p == "control.optimize"),
        # a line-search trial that was not accepted: all state solves under
        # optimize minus the initial one per call minus the accepted steps
        "control.backtracks": state_solves - optimize_calls - c["control.prox_iters"],
        "control.accept_ratio": c["control.prox_iters"] / state_solves if state_solves else 0.0,
        "control.converged_frac": c["control.converged"] / optimize_calls
        if optimize_calls else 0.0,
        "solver.newton_calls": newton_calls,
        "solver.newton_s": tracer.inclusive(["solver.newton"]),
        "solver.newton_self_s": tracer.self_seconds(lambda n: n == "solver.newton"),
        "solver.newton_steps": c["solver.newton_steps"],
        "solver.linear_calls": tracer.calls("solver.linear"),
        "solver.linear_s": tracer.inclusive(["solver.linear"]),
        "solver.lu_factor_calls": tracer.calls("solver.lu_factor"),
        "solver.lu_factor_s": tracer.inclusive(["solver.lu_factor"]),
        "solver.truncation_s": tracer.inclusive(TRUNCATION_SPANS),
        "solver.direct_frac": c["solver.direct_reports"] / reports if reports else 0.0,
        "kernels.cg_calls": tracer.calls("kernels.cg"),
        "kernels.cg_s": cg_s,
        "kernels.krylov_iters": krylov,
        "kernels.cg_us_per_iter": 1e6 * cg_s / krylov if krylov else 0.0,
        "kernels.matvec_calls": tracer.calls("kernels.matvec"),
        "kernels.matvec_s": tracer.inclusive(["kernels.matvec"]),
        "kernels.cg_flops_computed": c["kernels.cg_flops_computed"],
        "kernels.cg_bytes_computed": c["kernels.cg_bytes_computed"],
        "measures.rasterize_calls": tracer.calls("measures.rasterize"),
        "measures.rasterize_s": tracer.inclusive(["measures.rasterize"]),
        "measures.mollify_s": tracer.inclusive(["measures.mollify"]),
        "nonlinearity.evals": sum(tracer.calls(span) for span, _ in NONLINEARITY_METHODS),
        "nonlinearity.s": tracer.layer_self("nonlinearity"),
        "grid.io_s": tracer.inclusive(["grid.save_field", "grid.load_field"]),
        "trace.spans": tracer.span_count(),
        "trace.wall_s": tracer.root_seconds(),
    }
    for layer in LAYERS:
        if layer != "nonlinearity":  # nonlinearity spans have no children
            out[f"{layer}.self_s"] = tracer.layer_self(layer)
    return out
