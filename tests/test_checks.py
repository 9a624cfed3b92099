"""One number rule for the Python API: every constructor checks through ``checks``.

A bool, a numeric string and NaN are rejected wherever the API reads a
number, and so is inf wherever the number must be finite; every error
names the argument.  Integers and numpy scalars build the same objects
as Python floats and ints do.
"""
import math

import numpy as np
import pytest

from measopt import (ControlProblem, DiscreteMeasure, Nonlinearity, OptimizeConfig,
                     ScalarField, alpha_sweep, build_grid, constant_field, lp_norm,
                     mollify, run_experiment, scale, zeros_field)
from measopt.checks import array, count, real
from measopt.nonlinearity import nonlinearity_from_config

GRID = build_grid(2, 9)
ATOM = DiscreteMeasure.point((0.5, 0.5), 1.0)


def _problem(p=2.0, alpha=0.1):
    return ControlProblem(GRID, Nonlinearity.power(2.0), zeros_field(GRID), p, alpha)


def _field(entry):
    return ScalarField(GRID, [entry] + [0.0] * (GRID.total_interior - 1))


REAL = (True, "2", math.nan, math.inf)
REAL_OR_INF = (True, "2", math.nan)
COUNT = (True, "2", math.nan, math.inf, 2.0)

# (site, call with the value, the argument its error names, values it must reject)
SITES = [
    ("power", Nonlinearity.power, "q", REAL),
    ("linear", Nonlinearity.linear, "lam", REAL),
    ("table-t", lambda v: Nonlinearity.table([-1.0, v, 5.0], [-1.0, 0.0, 1.0]), "t", REAL),
    ("table-g", lambda v: Nonlinearity.table([-1.0, 0.0, 1.0], [-1.0, 0.0, v]), "g", REAL),
    ("problem-p", lambda v: _problem(p=v), "p", REAL_OR_INF),
    ("problem-alpha", lambda v: _problem(alpha=v), "alpha", REAL),
    ("alpha_sweep", lambda v: alpha_sweep(_problem(), [v], OptimizeConfig(0)), "alpha", REAL),
    ("measure-dim", DiscreteMeasure, "dim", COUNT),
    ("measure-w", lambda v: DiscreteMeasure(2, atoms=(((0.5, 0.5), v),)), "w", REAL),
    ("measure-x", lambda v: DiscreteMeasure(2, atoms=(((0.5, v), 1.0),)), "x", REAL),
    ("point-w", lambda v: DiscreteMeasure.point((0.5, 0.5), v), "w", REAL),
    ("point-x", lambda v: DiscreteMeasure.point((v, 0.5), 1.0), "x", REAL),
    ("from_atoms-dim", lambda v: DiscreteMeasure.from_atoms(v, []), "dim", COUNT),
    ("from_atoms-w", lambda v: DiscreteMeasure.from_atoms(2, [((0.5, 0.5), v)]), "w", REAL),
    ("scale", lambda v: scale(ATOM, v), "c", REAL),
    ("mollify", lambda v: mollify(ATOM, v, GRID), "radius", REAL),
    ("constant_field", lambda v: constant_field(GRID, v), "value", REAL),
    ("lp_norm", lambda v: lp_norm(zeros_field(GRID), v), "p", REAL_OR_INF),
    ("field-values", _field, "values", REAL),
    ("build_grid-dim", lambda v: build_grid(v, 9), "dim", COUNT),
    ("build_grid-n", lambda v: build_grid(2, v), "n", COUNT),
    ("max_iter", OptimizeConfig, "max_iter", COUNT),
    # structural arguments: a grid that is not a Grid, a density that is not a field
    ("field-grid", lambda v: ScalarField(v, np.zeros(81)), "grid", ((2, 9),)),
    ("measure-density", lambda v: DiscreteMeasure(2, density=v), "density", (np.zeros(81),)),
    ("problem-u_d", lambda v: ControlProblem(GRID, Nonlinearity.power(2.0), v, 2.0, 0.1),
     "u_d", (np.zeros(81),)),
    ("problem-g", lambda v: ControlProblem(GRID, v, zeros_field(GRID), 2.0, 0.1), "g",
     ("cubic", abs)),
    # a table whose breakpoints are not a 1-d list, or whose values do not match them
    ("table-shape-t", lambda v: nonlinearity_from_config({"kind": "table", "t": v,
                                                          "g": [-1.0, 1.0]}),
     "t", ([[-1, 0], [1, 2]], [0.0])),
    ("table-shape-g", lambda v: nonlinearity_from_config({"kind": "table", "t": [-1.0, 1.0],
                                                          "g": v}),
     "g", ([[-1, 0], [1, 2]], [-1.0, 0.0, 1.0])),
]
CASES = [(f"{site}={'ndarray' if isinstance(value, np.ndarray) else repr(value)}", call, key,
          value) for site, call, key, values in SITES for value in values]


@pytest.mark.parametrize("call,key,value", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_api_rejects_non_numbers_naming_the_argument(call, key, value):
    with pytest.raises(ValueError, match=rf"\b{key} must be"):
        call(value)


@pytest.mark.parametrize("values", [np.ones(81, dtype=bool), np.full(81, "1"),
                                   np.full(81, 1.0, dtype=object), np.full(81, np.inf)],
                         ids=["bool", "str", "object", "inf"])
def test_arrays_reject_bool_string_object_and_non_finite_entries(values):
    with pytest.raises(ValueError, match=r"\bvalues must be an array of"):
        ScalarField(GRID, values)
    with pytest.raises(ValueError, match=r"\bt must be an array of"):
        Nonlinearity.table(values[:3], [-1.0, 0.0, 1.0])


def _atoms(m):
    return [(loc, w, type(w)) for loc, w in m.atoms]


# (site, call with the value, a valid value, what must not depend on its type)
ACCEPTED = [
    ("power", Nonlinearity.power, 3, lambda g: (g.label, float(g(np.array(1.5))))),
    ("linear", Nonlinearity.linear, 2, lambda g: (g.label, float(g(np.array(1.5))))),
    ("table", lambda v: Nonlinearity.table([-1, 0, v], [-1, 0, 1]), 2,
     lambda g: float(g(np.array(1.5)))),
    ("problem-p", lambda v: _problem(p=v), 2, lambda prob: (prob.p, type(prob.p))),
    ("problem-alpha", lambda v: _problem(alpha=v), 1,
     lambda prob: (prob.alpha, type(prob.alpha))),
    ("measure-w", lambda v: DiscreteMeasure.point((0.5, 0.5), v), 2, _atoms),
    ("scale", lambda v: scale(ATOM, v), 2, _atoms),
    ("mollify", lambda v: mollify(ATOM, v, GRID), 1, lambda f: f.values.tobytes()),
    ("constant_field", lambda v: constant_field(GRID, v), 2, lambda f: f.values.tobytes()),
    ("lp_norm", lambda v: lp_norm(constant_field(GRID, 3.0), v), 2, lambda x: (x, type(x))),
    ("field-values", lambda v: ScalarField(GRID, np.full(81, v)), 2,
     lambda f: f.values.tobytes()),
]
ACCEPTED_COUNTS = [
    ("measure-dim", DiscreteMeasure, 2, lambda m: (m.dim, type(m.dim))),
    ("build_grid", lambda v: build_grid(2, v), 9, lambda g: (g, type(g.n))),
    ("max_iter", OptimizeConfig, 3, lambda c: (c.max_iter, type(c.max_iter))),
]


@pytest.mark.parametrize("call,value,summary", [case[1:] for case in ACCEPTED],
                         ids=[case[0] for case in ACCEPTED])
@pytest.mark.parametrize("kind", [int, np.int64, np.float64])
def test_api_takes_ints_and_numpy_scalars_as_floats(call, value, summary, kind):
    assert summary(call(kind(value))) == summary(call(float(value)))


@pytest.mark.parametrize("call,value,summary", [case[1:] for case in ACCEPTED_COUNTS],
                         ids=[case[0] for case in ACCEPTED_COUNTS])
def test_api_takes_numpy_ints_as_counts(call, value, summary):
    assert summary(call(np.int64(value))) == summary(call(value))


def test_only_p_spells_infinity():
    assert _problem(p="inf").p == math.inf
    assert lp_norm(constant_field(GRID, -2.0), "inf") == 2.0
    with pytest.raises(ValueError, match=r"\balpha must be"):
        _problem(alpha="inf")


def test_max_iter_and_seed_may_be_zero():
    assert OptimizeConfig(0).max_iter == 0
    assert count(0, "seed", least=0) == 0
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        count(-1, "seed", least=0)


@pytest.mark.parametrize("seed", [3.7, True, "5", math.nan, -1])
def test_run_experiment_rejects_a_bad_seed_before_any_output(tmp_path, seed):
    with pytest.raises(ValueError, match=r"\bseed must be"):
        run_experiment("exp_nonconvexity", output_dir=tmp_path / "out", seed=seed)
    assert not (tmp_path / "out").exists()


def test_checks_return_builtin_numbers():
    assert type(real(np.float64(0.5), "x")) is float
    assert type(count(np.int64(4), "n")) is int
    out = array([1, 2], "t")
    assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]
