import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measopt.control
import measopt.solver
from measopt import (ConvergenceError, DiscreteMeasure, Nonlinearity,
                     build_grid, constant_field, load_field, named_field,
                     save_field, solve_semilinear)
from measopt.cli import run_cli
from measopt.experiments import run_experiment

PROBLEM = {
    "schema": 1,
    "grid": {"dim": 2, "n": 9},
    "g": {"kind": "power", "q": 2},
    "p": 2,
    "alpha": 0.05,
    "u_d": {"name": "sines", "amplitude": 0.1},
    "measure": {"atoms": [{"x": [0.5, 0.5], "w": 1.0}],
                "density": {"name": "constant", "value": 0.5}},
}


def _write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def test_list_prints_registry(capsys):
    assert run_cli(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["exp_dirac_collapse", "exp_nonconvexity",
                     "exp_truncation_suite", "exp_regularity_suite",
                     "exp_mollification_stability"]


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_no_arguments_is_usage_error():
    assert run_cli([]) == 2


def test_solve_writes_state_matching_direct_call(tmp_path, capsys):
    path = _write_problem(tmp_path, PROBLEM)
    out = tmp_path / "run"
    assert run_cli(["solve", str(path), "--out", str(out)]) == 0
    assert "converged" in capsys.readouterr().out

    u = load_field(out / "state.f64")
    grid = build_grid(2, 9)
    m = DiscreteMeasure(2, atoms=(((0.5, 0.5), 1.0),),
                        density=constant_field(grid, 0.5))
    u_direct, direct_report = solve_semilinear(grid, Nonlinearity.power(2.0), m)
    assert np.array_equal(u.values, u_direct.values)

    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] == direct_report.iterations
    assert report["inner_iterations"] == direct_report.inner_iterations > 0
    assert "wall_time" not in report
    assert report["final_residual"] <= 1e-10
    # atom weight 1 plus the density mass 0.5 * 81 * h^2
    assert report["tv_mu"] == pytest.approx(1.0 + 0.405, rel=1e-12)


def test_solve_reads_density_file_relative_to_problem(tmp_path):
    grid = build_grid(2, 9)
    save_field(named_field(grid, "bump", {"amplitude": 2.0}),
               tmp_path / "dens.f64")
    doc = dict(PROBLEM)
    doc["measure"] = {"density_file": "dens.f64"}
    path = _write_problem(tmp_path, doc)
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "state.f64").exists()


def test_solve_rejects_mismatched_density_grid(tmp_path, capsys):
    save_field(constant_field(build_grid(2, 7), 1.0), tmp_path / "dens.f64")
    doc = dict(PROBLEM)
    doc["measure"] = {"density_file": "dens.f64"}
    path = _write_problem(tmp_path, doc)
    assert run_cli(["solve", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def _problem_with(key, value):
    """PROBLEM with key set to value where a problem file keeps it."""
    if key in PROBLEM["grid"]:
        return dict(PROBLEM, grid={**PROBLEM["grid"], key: value})
    if key in ("x", "w"):
        atom = {"x": [0.5, 0.5], "w": 1.0, key: value}
        return dict(PROBLEM, measure={**PROBLEM["measure"], "atoms": [atom]})
    if key in ("tol", "p", "alpha"):
        return dict(PROBLEM, **{key: value})
    return dict(PROBLEM, optimizer={key: value})


@pytest.mark.parametrize("key,value", [("n", 31.7), ("n", True), ("n", "9"),
                                       ("dim", 2.0), ("dim", True),
                                       ("tol", True), ("tol", 0), ("tol", -1.0),
                                       ("tol", float("nan")), ("tol", float("inf")),
                                       ("tol", "1e-10"),
                                       ("w", True), ("w", "1.0"), ("w", float("nan")),
                                       ("x", ["0.5", "0.25"]), ("x", [True, 0.5]),
                                       ("x", [0.5, float("nan")])])
def test_solve_rejects_non_integer_grid(tmp_path, capsys, key, value):
    # grid sizes must be integers, tol a finite real > 0, atom weights and
    # coordinates finite reals
    path = _write_problem(tmp_path, _problem_with(key, value))
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("x", [0.5, [0.5], [0.5, 0.5, 0.5], {"0": 0.5}])
def test_solve_rejects_atom_x_that_is_not_a_dim_list(tmp_path, capsys, x):
    # a bare number used to fail with "'float' object is not iterable"
    path = _write_problem(tmp_path, _problem_with("x", x))
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "x must be a list of 2 reals" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


ENTRY = "each entry of atoms must be an object with keys x and w"


@pytest.mark.parametrize("atoms,message", [
    ([1], ENTRY),
    ("x", "atoms must be a list of objects"),
    ({"x": 1}, "atoms must be a list of objects"),
    ([{"x": [0.5, 0.5]}], ENTRY),
    ([{"w": 1.0}], ENTRY),
    ([{"x": [0.5, 0.5], "w": 1.0, "y": 0}], ENTRY),
    ([{"x": [0.5, 1.0], "w": 1.0}], "x must be a list of 2 reals inside the open unit box"),
], ids=["int-entry", "string", "object", "no-w", "no-x", "extra-key", "outside-box"])
def test_solve_rejects_malformed_atoms_naming_the_key(tmp_path, capsys, atoms, message):
    # these used to exit with messages naming no key, such as "'w'"
    doc = dict(PROBLEM, measure={"atoms": atoms})
    path = _write_problem(tmp_path, doc)
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sidecar,key", [({"dim": 2.0, "n": 9.9}, "dim"),
                                         ({"dim": 2, "n": 9.9}, "n"),
                                         ({"dim": True, "n": 81}, "dim"),
                                         ({"dim": 2, "n": "9"}, "n")],
                         ids=["dim=2.0,n=9.9", "n=9.9", "dim=True", "n='9'"])
def test_solve_rejects_non_integer_field_sidecar(tmp_path, capsys, sidecar, key):
    save_field(constant_field(build_grid(2, 9), 1.0), tmp_path / "dens.f64")
    (tmp_path / "dens.f64.json").write_text(json.dumps(sidecar))
    doc = dict(PROBLEM, measure={"density_file": "dens.f64"})
    path = _write_problem(tmp_path, doc)
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "invalid field sidecar" in err and f"{key} must be" in err


def test_solve_rejects_unknown_nonlinearity_key(tmp_path, capsys):
    # a misspelt exponent used to run silently with the default q = 2
    path = _write_problem(tmp_path, dict(PROBLEM, g={"kind": "power", "Q": 3}))
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "'Q'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_solve_rejects_decreasing_table_g(tmp_path, capsys):
    g = {"kind": "table", "t": [-1.0, 0.0, 1.0], "g": [1.0, 0.0, -1.0]}
    path = _write_problem(tmp_path, dict(PROBLEM, g=g))
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "table values must be nondecreasing" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_solve_cg_stall_exits_one(tmp_path, capsys):
    # the peaked shift of test_semilinear_converges_with_sharply_peaked_shift
    doc = dict(PROBLEM, grid={"dim": 2, "n": 31}, g={"kind": "power", "q": 8},
               measure={"atoms": [{"x": [0.5, 0.5], "w": 50.0}]})
    path = _write_problem(tmp_path, doc)
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "solver failure" in capsys.readouterr().err


def test_missing_problem_file(tmp_path, capsys):
    assert run_cli(["solve", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_schema_rejected(tmp_path):
    doc = dict(PROBLEM)
    doc["schema"] = 2
    assert run_cli(["solve", str(_write_problem(tmp_path, doc))]) == 2


def test_optimize_outputs_and_monotone_history(tmp_path, capsys):
    doc = dict(PROBLEM)
    doc["optimizer"] = {"max_iter": 25}
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "opt"
    assert run_cli(["optimize", str(path), "--out", str(out)]) == 0
    assert "F(mu*)" in capsys.readouterr().out

    for name in ("control.f64", "state.f64", "history.csv",
                 "optimize_report.json"):
        assert (out / name).exists()

    with open(out / "history.csv", "r", encoding="utf-8") as fh:
        assert fh.readline().strip() == "iteration,f_value,grad_norm,step"
        f_values = []
        for line in fh:
            cells = line.strip().split(",")
            assert repr(float(cells[1])) == cells[1]
            f_values.append(float(cells[1]))
    assert len(f_values) >= 2
    assert all(b < a for a, b in zip(f_values, f_values[1:]))

    report = json.loads((out / "optimize_report.json").read_text())
    assert report["f_value"] == f_values[-1]
    assert report["f_value"] <= report["f_zero"]
    assert report["iterations"] == len(f_values) - 1

    control = load_field(out / "control.f64")
    assert control.grid == build_grid(2, 9)


@pytest.mark.parametrize("dim,n", [(1, 1023), (2, 127), (2, 255)])
def test_optimize_runs_on_fine_grids(tmp_path, dim, n):
    # the adjoint asks for a weighted-L1 residual of 1e-12, below the
    # rounding floor of these grids; it is met at the floor
    doc = dict(PROBLEM, grid={"dim": dim, "n": n}, optimizer={"max_iter": 3})
    out = tmp_path / "opt"
    assert run_cli(["optimize", str(_write_problem(tmp_path, doc)), "--out", str(out)]) == 0
    report = json.loads((out / "optimize_report.json").read_text())
    assert np.isfinite(report["f_value"]) and report["f_value"] <= report["f_zero"]


def test_optimize_reads_u_d_from_a_field_file(tmp_path):
    # a target saved to disk and read back by {"file": ...} is the named
    # target bit for bit, so F is too
    save_field(named_field(build_grid(2, 9), "sines", {"amplitude": 0.1}),
               tmp_path / "u_d.f64")
    reports = []
    for u_d in (PROBLEM["u_d"], {"file": "u_d.f64"}):
        path = _write_problem(tmp_path, dict(PROBLEM, u_d=u_d, optimizer={"max_iter": 3}))
        out = tmp_path / f"opt{len(reports)}"
        assert run_cli(["optimize", str(path), "--out", str(out)]) == 0
        reports.append(json.loads((out / "optimize_report.json").read_text()))
    assert reports[0]["f_value"] == reports[1]["f_value"]
    assert reports[0]["f_zero"] == reports[1]["f_zero"] > 0.0


def test_optimize_rejects_u_d_file_on_another_grid(tmp_path, capsys):
    save_field(named_field(build_grid(2, 7), "sines", {"amplitude": 0.1}),
               tmp_path / "u_d.f64")
    path = _write_problem(tmp_path, dict(PROBLEM, u_d={"file": "u_d.f64"}))
    assert run_cli(["optimize", str(path), "--out", str(tmp_path / "opt")]) == 2
    assert "field file grid does not match" in capsys.readouterr().err
    assert not (tmp_path / "opt").exists()


@pytest.mark.parametrize("command,key,value", [
    ("solve", "grid", [2, 17]),
    ("optimize", "grid", [2, 17]),
    ("solve", "g", [3]),
    ("solve", "g", "power"),
    ("optimize", "g", None),
    ("optimize", "g", [3]),
    ("solve", "measure", [{"x": [0.5, 0.5], "w": 1.0}]),
    ("solve", "density", ["constant"]),
    ("optimize", "u_d", "sines"),
    ("optimize", "optimizer", None),
    ("optimize", "optimizer", [1]),
])
def test_non_object_problem_section_exits_two_and_names_its_key(tmp_path, capsys, command,
                                                                key, value):
    # "density" is the one nested section, inside "measure"
    doc = (dict(PROBLEM, measure={"density": value}) if key == "density"
           else dict(PROBLEM, **{key: value}))
    path = _write_problem(tmp_path, doc)
    assert run_cli([command, str(path), "--out", str(tmp_path / "run")]) == 2
    assert f"{key!r} must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_optimize_rejects_unknown_option(tmp_path, capsys):
    doc = dict(PROBLEM)
    doc["optimizer"] = {"momentum": 0.9}
    path = _write_problem(tmp_path, doc)
    assert run_cli(["optimize", str(path)]) == 2
    assert "momentum" in capsys.readouterr().err


BAD_OPTIMIZER_OPTIONS = [
    ("solver_tol", 0.0), ("solver_tol", -1.0),
    ("max_iter", -3), ("max_iter", 2.5), ("max_iter", "5"), ("max_iter", True),
    ("step0", 0.0), ("step0", -1.0), ("step0", float("inf")), ("step0", float("nan")),
    ("backtrack", 0.0), ("backtrack", 1.0), ("backtrack", 1.5),
    ("max_backtracks", 0),
    ("step_grow", 0.5), ("step_grow", float("inf")),
    ("f_rtol", -1e-9),
    ("eps_smooth", 0.0), ("eps_smooth", -1e-3),
    ("p", True), ("p", "2"), ("p", float("nan")), ("p", 0.5),
    ("alpha", True), ("alpha", "0.5"), ("alpha", float("nan")), ("alpha", float("inf")),
    ("alpha", 0.0),
]


@pytest.mark.parametrize("key,value", BAD_OPTIMIZER_OPTIONS,
                         ids=[f"{k}={v!r}" for k, v in BAD_OPTIMIZER_OPTIONS])
def test_optimize_rejects_out_of_range_option(tmp_path, capsys, key, value):
    # the optimizer object takes only max_iter; p and alpha are reals
    path = _write_problem(tmp_path, _problem_with(key, value))
    assert run_cli(["optimize", str(path), "--out", str(tmp_path / "opt")]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


def test_optimize_unavailable_cost_exits_one(tmp_path, capsys, monkeypatch):
    # a failing first state solve leaves F(0) without a value
    def failing_solve(*args, **kwargs):
        raise ConvergenceError("no convergence: stub")

    monkeypatch.setattr(measopt.control, "solve_semilinear", failing_solve)
    path = _write_problem(tmp_path, PROBLEM)
    assert run_cli(["optimize", str(path), "--out", str(tmp_path / "opt")]) == 1
    assert "cost unavailable" in capsys.readouterr().err


def test_experiment_pass_exit_zero(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"instances": 5, "lemma_n": 9, "truncate_n": 9}, fh)
    rc = run_cli(["experiment", "exp_truncation_suite", "--config", str(cfg),
                  "--seed", "42", "--out", str(tmp_path / "exp")])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in captured
    assert "summary:" in captured
    assert (tmp_path / "exp" / "exp_truncation_suite" / "summary.json").exists()


def test_experiment_failure_exit_one(tmp_path, capsys):
    # theta = 1 degenerates the midpoint comparison to equality, so the
    # strict margin assertion must fail and the exit code must say so
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"n": 9, "theta": 1.0}, fh)
    rc = run_cli(["experiment", "exp_nonconvexity", "--config", str(cfg),
                  "--out", str(tmp_path / "exp")])
    assert rc == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_collapse_schedule_failure_is_a_failed_row(tmp_path, monkeypatch, capsys):
    # a state solve that fails at level 1 ends the schedule: the summary
    # holds one failed row naming that level, and the exit code is 1
    solve = measopt.solver.solve_semilinear

    def failing_at_level_1(grid, g, m, *args, **kwargs):
        if grid.n == 9:
            raise ConvergenceError("no convergence: forced")
        return solve(grid, g, m, *args, **kwargs)

    monkeypatch.setattr(measopt.solver, "solve_semilinear", failing_at_level_1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": [5, 9]}), encoding="utf-8")
    out = tmp_path / "exp"
    rc = run_cli(["experiment", "exp_dirac_collapse", "--config", str(cfg),
                  "--out", str(out)])
    assert rc == 1
    assert "[FAIL] schedule-convergence-supercritical" in capsys.readouterr().out
    summary = json.loads((out / "exp_dirac_collapse" / "summary.json").read_text())
    assert summary["passed"] is False
    [row] = summary["assertions"]
    assert row["name"] == "schedule-convergence-supercritical"
    assert row["status"] == "fail"
    assert row["detail"].startswith("supercritical schedule diverged at level 1: ")


def test_experiment_unknown_name(tmp_path, capsys):
    assert run_cli(["experiment", "exp_bogus", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_experiment_rejects_threads_flag(tmp_path):
    assert run_cli(["experiment", "exp_nonconvexity", "--threads", "4",
                    "--out", str(tmp_path)]) == 2


def test_experiment_config_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "n": 9, "threads": 2}, fh)
    assert run_cli(["experiment", "exp_nonconvexity", "--config", str(cfg),
                    "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert "unknown parameter" in err and "threads" in err
    assert not (tmp_path / "exp").exists()


# (experiment, overrides, text that stderr must contain, test id)
INTEGER_OVERRIDES = [
    ("exp_dirac_collapse", {"levels": [15, 31.5]}, "invalid grid config", None),
    ("exp_nonconvexity", {"n": "9"}, "invalid grid config", None),
    ("exp_truncation_suite", {"lemma_n": True}, "invalid grid config", None),
    ("exp_regularity_suite", {"dim": 2.0}, "invalid grid config", None),
    ("exp_mollification_stability", {"n": 9.9}, "invalid grid config", None),
    ("exp_truncation_suite", {"instances": 2.7}, "instances must be", "instances=2.7"),
    ("exp_truncation_suite", {"instances": True}, "instances must be", "instances=True"),
    ("exp_regularity_suite", {"instances": "3"}, "instances must be", "instances='3'"),
    ("exp_regularity_suite", {"max_iter": 2.5}, "max_iter must be", "max_iter=2.5"),
    ("exp_regularity_suite", {"max_iter": False}, "max_iter must be", "max_iter=False"),
    ("exp_mollification_stability", {"radius_count": 3.9}, "radius_count must be",
     "radius_count=3.9"),
    ("exp_mollification_stability", {"radius_count": "5"}, "radius_count must be",
     "radius_count='5'"),
]


@pytest.mark.parametrize("name,overrides,message", [case[:3] for case in INTEGER_OVERRIDES],
                         ids=[name if extra is None else f"{name}-{extra}"
                              for name, _, _, extra in INTEGER_OVERRIDES])
def test_experiment_rejects_non_integer_grid_override(tmp_path, capsys, name, overrides,
                                                      message):
    # grid sizes, instance counts, max_iter and radius_count must be integers
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(overrides, fh)
    assert run_cli(["experiment", name, "--config", str(cfg),
                    "--out", str(tmp_path / "exp")]) == 2
    assert message in capsys.readouterr().err


# (experiment, overrides, the key stderr must name)
NON_NUMBER_OVERRIDES = [
    ("exp_nonconvexity", {"alpha": True}, "alpha"),
    ("exp_nonconvexity", {"theta": "2"}, "theta"),
    ("exp_nonconvexity", {"amplitude": float("nan")}, "amplitude"),
    ("exp_regularity_suite", {"q": True}, "q"),
    ("exp_regularity_suite", {"p": "2"}, "p"),
    ("exp_dirac_collapse", {"center": ["0.5", 0.5, 0.5]}, "center"),
    ("exp_dirac_collapse", {"radius_factor": "4"}, "radius_factor"),
    ("exp_dirac_collapse", {"p_values": [2.0, True]}, "p_values"),
    ("exp_dirac_collapse", {"ud": {"name": "zero", "value": 3}}, "value"),
    ("exp_mollification_stability", {"box": [0.4, "0.6"]}, "box"),
    ("exp_mollification_stability", {"ud": {"name": "sines", "amplitud": 5}}, "amplitud"),
    ("exp_mollification_stability", {"ud": {"name": "sines", "waves": 2.7}}, "waves"),
]


@pytest.mark.parametrize("name,overrides,key", NON_NUMBER_OVERRIDES,
                         ids=[f"{name}-{key}" for name, _, key in NON_NUMBER_OVERRIDES])
def test_experiment_rejects_non_number_override(tmp_path, capsys, name, overrides, key):
    # experiment parameters and field specs follow the problem-file number rule
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(overrides, fh)
    assert run_cli(["experiment", name, "--config", str(cfg),
                    "--out", str(tmp_path / "exp")]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


@pytest.mark.parametrize("command,doc,key", [
    ("optimize", dict(PROBLEM, u_d={"name": "sines", "amplitud": 5}), "amplitud"),
    ("optimize", dict(PROBLEM, u_d={"name": "bump", "amplitude": "0.1"}), "amplitude"),
    ("solve", dict(PROBLEM, measure={"density": {"name": "constant", "value": True}}),
     "value"),
    ("solve", dict(PROBLEM, g={"kind": "power", "q": "3"}), "q"),
    ("optimize", dict(PROBLEM, g={"kind": "linear", "lam": True}), "lam"),
], ids=["u_d-amplitud", "u_d-amplitude", "density-value", "g-q", "g-lam"])
def test_problem_file_rejects_bad_field_or_g_numbers(tmp_path, capsys, command, doc, key):
    path = _write_problem(tmp_path, doc)
    assert run_cli([command, str(path), "--out", str(tmp_path / "run")]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["exp_dirac_collapse", "exp_mollification_stability"])
def test_experiment_tol_override_is_unknown(tmp_path, capsys, name):
    # both experiments solve at solver.DEFAULT_TOL; tol is not a parameter
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"tol": 1e-10}, fh)
    assert run_cli(["experiment", name, "--config", str(cfg),
                    "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert "unknown parameter" in err and "tol" in err


def test_run_experiment_rejects_unknown_parameter(tmp_path):
    with pytest.raises(ValueError, match="bogus"):
        run_experiment("exp_truncation_suite", {"bogus": 1}, output_dir=tmp_path)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy belongs to the tests
    env = dict(os.environ, PYTHONPATH=str(Path(measopt.__file__).resolve().parents[1]))
    code = ("import sys, measopt; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("measopt") is None,
                    reason="console script not on PATH")
def test_console_script_list():
    proc = subprocess.run(["measopt", "list"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "exp_nonconvexity" in proc.stdout
