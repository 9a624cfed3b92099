"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` replaces functions by name in each module that
calls them, so a renamed or unused-looking import removed from a caller
breaks traced benchmark runs without failing any other test.
"""
import functools
import importlib
import importlib.util
import inspect
import threading
from pathlib import Path

import pytest

import measopt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("measopt_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"measopt.{name}")


def test_wrapped_functions_resolve_in_every_caller(tracing):
    for span, home, attr, callers in tracing.WRAPPED_FUNCTIONS:
        original = getattr(_module(home), attr)
        for caller in callers:
            assert getattr(_module(caller), attr, None) is original, (span, caller)


def test_aliases_resolve(tracing):
    for span, home, attr, caller, alias in tracing.ALIASES:
        assert getattr(_module(caller), alias, None) is getattr(_module(home), attr), span


def test_other_looked_up_names_exist(tracing):
    assert callable(measopt.solver.spla.splu)
    assert isinstance(measopt.kernels.HAVE_NUMBA, bool)
    assert isinstance(measopt.kernels.backend_name(), str)
    for _, method in tracing.NONLINEARITY_METHODS:
        assert callable(getattr(measopt.nonlinearity.Nonlinearity, method))


def test_cg_signature_matches_the_cg_observer():
    # the tracer's cg observer reads dim and n as positional args[2] and args[3]
    params = list(inspect.signature(measopt.kernels.cg_shifted).parameters)
    assert params[:4] == ["b", "diag", "dim", "n"]


def test_optimize_solves_through_the_names_the_tracer_counts(monkeypatch):
    # The tracer counts control.state_solves as solve_semilinear calls whose
    # parent span is control.optimize, and cross-checks one adjoint solve
    # per history entry; a wrapped name between them hides the solves.
    control = measopt.control
    counts = {"solve_semilinear": 0, "_solve_shifted": 0}

    def counted(name):
        real = getattr(control, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("optimize must not call a wrapped cost or gradient")

    for name in counts:
        monkeypatch.setattr(control, name, counted(name))
    monkeypatch.setattr(control, "evaluate_cost", forbidden)
    monkeypatch.setattr(control, "adjoint_gradient", forbidden)
    grid = measopt.build_grid(2, 9)
    prob = control.ControlProblem(grid, measopt.Nonlinearity.power(2.0),
                                  measopt.named_field(grid, "sines", {"amplitude": 0.5}),
                                  2.0, 0.05)
    res = control.optimize(prob, control.OptimizeConfig(max_iter=8))
    assert len(res.history) > 1
    assert counts["_solve_shifted"] == len(res.history)
    assert counts["solve_semilinear"] >= len(res.history)


def test_only_the_calling_thread_runs_a_traced_name_in_a_split_solve(tracing, monkeypatch):
    # the tracer keeps one span stack, so a wrapped name entered on the worker would
    # corrupt it; every 3-D grid is cut here, with the high half on the worker
    kernels = measopt.kernels
    monkeypatch.setattr(kernels, "SPLIT_MIN", 0)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(kernels, "grid_plan", functools.lru_cache(kernels.grid_plan.__wrapped__))
    threads = {}

    def recorded(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    for span, home, attr, callers in tracing.WRAPPED_FUNCTIONS:
        original = getattr(_module(home), attr)
        for caller in callers:
            monkeypatch.setattr(_module(caller), attr, recorded(attr, original))
    cls = measopt.nonlinearity.Nonlinearity
    for _, method in tracing.NONLINEARITY_METHODS:
        monkeypatch.setattr(cls, method, recorded(method, getattr(cls, method)))
    grid = measopt.build_grid(3, 9)
    prob = measopt.ControlProblem(grid, cls.power(3.0),
                                  measopt.named_field(grid, "sines", {"amplitude": 0.5}),
                                  2.0, 0.05)
    measopt.optimize(prob, measopt.OptimizeConfig(max_iter=2))
    assert kernels._worker is not None and kernels._worker.is_alive()
    assert {"solve_semilinear", "_solve_shifted", "cg_shifted", "neg_laplacian",
            "neg_laplacian_numpy", "rasterize", "__call__", "derivative"} <= set(threads)
    assert set().union(*threads.values()) == {threading.get_ident()}
