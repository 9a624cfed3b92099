"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` replaces functions by name in each module that
calls them, so a renamed or unused-looking import removed from a caller
breaks traced benchmark runs without failing any other test.
"""
import importlib
import importlib.util
import inspect
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
