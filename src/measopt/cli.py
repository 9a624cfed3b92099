"""Command line front end: solve, optimize, experiment, list.

Problem files are JSON documents with a ``schema`` field:

    {
      "schema": 1,
      "grid": {"dim": 2, "n": 31},
      "g": {"kind": "power", "q": 3},
      "p": 2,                      (or "inf")
      "alpha": 0.5,
      "u_d": {"name": "sines", "amplitude": 0.1},   (or {"file": "..."})
      "measure": {"atoms": [{"x": [0.5, 0.5], "w": 1.0}],
                  "density_file": "...", "density": {"name": "..."}},
      "tol": 1e-10, "optimizer": {"max_iter": 200}
    }

Exit status: 0 when every assertion passes, 1 on assertion or solver
failure, 2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .control import ControlProblem, OptimizeConfig
from .control import optimize as optimize_problem
from .experiments import list_experiments, run_experiment, write_csv, write_json
from .grid import build_grid, load_field, named_field, save_field
from .measures import DiscreteMeasure, describe, tv_norm
from .nonlinearity import nonlinearity_from_config
from .solver import ConvergenceError, solve_semilinear


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measopt",
        description="Measure-valued control of semilinear elliptic equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve -Lap u + g(u) = mu from a problem file")
    ps.add_argument("problem", help="problem JSON path")
    ps.add_argument("--out", default="measopt_out", help="output directory")

    po = sub.add_parser("optimize", help="minimize F over controls")
    po.add_argument("problem", help="problem JSON path")
    po.add_argument("--out", default="measopt_out", help="output directory")

    pe = sub.add_parser("experiment", help="run a named experiment")
    pe.add_argument("name", help="experiment name (see `measopt list`)")
    pe.add_argument("--config", default=None, help="JSON file of parameter overrides")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", default="measopt_out")

    sub.add_parser("list", help="list registered experiments")
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return int(exc.code or 0)
    try:
        if args.command == "list":
            for name in list_experiments():
                print(name)
            return 0
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        return _cmd_experiment(args)
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# problem file parsing
# ---------------------------------------------------------------------------

def _load_doc(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ValueError(f"{path}: expected a JSON object with \"schema\": 1")
    return doc


# the keys some command reads, per section; beside a file it reads no other key of the field
_KNOWN_KEYS = {"the problem file": {"schema", "grid", "g", "p", "alpha", "u_d", "measure", "tol",
                                    "optimizer"},
               "grid": {"dim", "n"}, "measure": {"atoms", "density_file", "density"},
               "a measure with density_file": {"atoms", "density_file"}, "a file field": {"file"}}


def _known(doc: dict, where: str) -> dict:
    if unknown := sorted(set(doc) - _KNOWN_KEYS[where]):
        raise ValueError(f"invalid config: unknown key(s) in {where}: {unknown}")
    return doc


def _section(doc: dict, key: str, default=None) -> dict:
    if not isinstance(value := doc.get(key, default), dict):
        raise ValueError(f"invalid config: {key!r} must be a JSON object, got {value!r}")
    return value


def _parse_field(doc, grid, base: Path):
    if "file" in doc:
        f = load_field(base / _known(doc, "a file field")["file"])
        if f.grid != grid:
            raise ValueError("field file grid does not match the problem grid")
        return f
    return named_field(grid, doc.get("name", "zero"), doc)


def _atom(a) -> tuple:
    if not isinstance(a, dict) or set(a) != {"x", "w"}:
        raise ValueError(f"invalid config: each entry of atoms must be an object with "
                         f"keys x and w, got {a!r}")
    return a["x"], a["w"]


def _parse_measure(doc, grid, base: Path) -> DiscreteMeasure:
    if not isinstance(atoms := doc.get("atoms", []), list):
        raise ValueError(f"invalid config: atoms must be a list of objects, got {atoms!r}")
    atoms = tuple(_atom(a) for a in atoms)
    density = None
    if "density_file" in doc:
        density = load_field(base / doc["density_file"])
        if density.grid != grid:
            raise ValueError("measure density grid does not match the problem grid")
    elif "density" in doc:
        density = _parse_field(_section(doc, "density"), grid, base)
    return DiscreteMeasure(grid.dim, atoms=atoms, density=density)


def _problem_parts(path):
    base = Path(path).parent
    doc = _known(_load_doc(path), "the problem file")
    grid_doc = _known(_section(doc, "grid"), "grid")
    measure = _section(doc, "measure", {})
    _known(measure, "a measure with density_file" if "density_file" in measure else "measure")
    grid = build_grid(grid_doc.get("dim"), grid_doc.get("n"))
    g = nonlinearity_from_config(_section(doc, "g"))
    return doc, grid, g, base


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    doc, grid, g, base = _problem_parts(args.problem)
    m = _parse_measure(_section(doc, "measure", {}), grid, base)
    print(describe(m))
    u, report = solve_semilinear(grid, g, m, tol=doc.get("tol", 1e-10))
    out = Path(args.out)
    save_field(u, out / "state.f64")
    write_json(out / "solve_report.json",
               {"iterations": report.iterations,
                "inner_iterations": report.inner_iterations,
                "final_residual": report.final_residual,
                "converged": report.converged,
                "method": report.method,
                "tv_mu": tv_norm(m)})
    print(f"converged in {report.iterations} Newton step(s), "
          f"residual {report.final_residual:.3e}; wrote {out / 'state.f64'}")
    return 0


def _cmd_optimize(args) -> int:
    doc, grid, g, base = _problem_parts(args.problem)
    u_d = _parse_field(_section(doc, "u_d", {"name": "zero"}), grid, base)
    prob = ControlProblem(grid, g, u_d, doc.get("p", 2.0), doc.get("alpha"))
    opt = _section(doc, "optimizer", {})
    bad = set(opt) - {f.name for f in dataclasses.fields(OptimizeConfig)}
    if bad:
        raise ValueError(f"unknown optimizer option(s): {', '.join(sorted(bad))}")
    res = optimize_problem(prob, OptimizeConfig(**opt))
    out = Path(args.out)
    save_field(res.mu_star.density, out / "control.f64")
    save_field(res.u_star, out / "state.f64")
    write_csv(out / "history.csv", ["iteration", "f_value", "grad_norm", "step", "prox_residual"],
              [[h.iteration, h.f_value, h.grad_norm, h.step, h.prox_residual]
               for h in res.history])
    write_json(out / "optimize_report.json",
               {"f_value": res.F_value, "f_zero": res.f_zero,
                "tv": tv_norm(res.mu_star), "sparsity": res.sparsity,
                "converged": res.converged, "stationarity": res.stationarity,
                "slack": res.slack,
                "iterations": len(res.history) - 1})
    print(f"F(mu*) = {res.F_value!r} (F(0) = {res.f_zero!r}), "
          f"tv = {tv_norm(res.mu_star)!r}, sparsity = {res.sparsity:.3f}; "
          f"outputs in {out}")
    return 0


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: overrides must be a JSON object")
        overrides.pop("schema", None)
    report = run_experiment(args.name, parameters=overrides,
                            output_dir=args.out, seed=args.seed)
    for row in report.assertions:
        print(f"[{row.status.upper():4s}] {row.name}: {row.detail} "
              f"(tolerance {row.tolerance})")
    print(f"summary: {report.summary_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    main()
