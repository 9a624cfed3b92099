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
                  "density_file": "...", "density": {"name": "..."}}
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

from .checks import real
from .control import ControlProblem, CostUnavailableError, OptimizeConfig
from .control import optimize as optimize_problem
from .experiments import list_experiments, run_experiment
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
    except (ConvergenceError, CostUnavailableError) as exc:
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


def _section(doc: dict, key: str, default=None) -> dict:
    if not isinstance(value := doc.get(key, default), dict):
        raise ValueError(f"invalid config: {key!r} must be a JSON object, got {value!r}")
    return value


def _parse_field(doc, grid, base: Path):
    if "file" in doc:
        f = load_field(base / doc["file"])
        if f.grid != grid:
            raise ValueError("field file grid does not match the problem grid")
        return f
    return named_field(grid, doc.get("name", "zero"), doc)


def _atom(a, dim: int) -> tuple:
    if not isinstance(a, dict) or set(a) != {"x", "w"}:
        raise ValueError(f"invalid config: each entry of atoms must be an object with "
                         f"keys x and w, got {a!r}")
    x = a["x"]
    if not (isinstance(x, list) and len(x) == dim and all(0.0 < real(c, "x") < 1.0 for c in x)):
        raise ValueError(f"invalid config: x must be a list of {dim} reals inside the open "
                         f"unit box, got {x!r}")
    return tuple(float(c) for c in x), real(a["w"], "w")


def _parse_measure(doc, grid, base: Path) -> DiscreteMeasure:
    if not isinstance(atoms := doc.get("atoms", []), list):
        raise ValueError(f"invalid config: atoms must be a list of objects, got {atoms!r}")
    atoms = tuple(_atom(a, grid.dim) for a in atoms)
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
    doc = _load_doc(path)
    grid_doc = _section(doc, "grid")
    grid = build_grid(grid_doc["dim"], grid_doc["n"])
    g = nonlinearity_from_config(_section(doc, "g"))
    return doc, grid, g, base


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    doc, grid, g, base = _problem_parts(args.problem)
    m = _parse_measure(_section(doc, "measure", {}), grid, base)
    tol = real(doc.get("tol", 1e-10), "tol", positive=True)
    print(describe(m))
    u, report = solve_semilinear(grid, g, m, tol=tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_field(u, out / "state.f64")
    with open(out / "solve_report.json", "w", encoding="utf-8") as fh:
        json.dump({"iterations": report.iterations,
                   "inner_iterations": report.inner_iterations,
                   "final_residual": report.final_residual,
                   "converged": report.converged,
                   "method": report.method,
                   "tv_mu": tv_norm(m)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"converged in {report.iterations} Newton step(s), "
          f"residual {report.final_residual:.3e}; wrote {out / 'state.f64'}")
    return 0


def _cmd_optimize(args) -> int:
    doc, grid, g, base = _problem_parts(args.problem)
    u_d = _parse_field(_section(doc, "u_d", {"name": "zero"}), grid, base)
    prob = ControlProblem(grid, g, u_d, real(doc.get("p", 2.0), "p", allow_inf=True),
                          real(doc["alpha"], "alpha"))
    opt = _section(doc, "optimizer", {})
    bad = set(opt) - {f.name for f in dataclasses.fields(OptimizeConfig)}
    if bad:
        raise ValueError(f"unknown optimizer option(s): {', '.join(sorted(bad))}")
    res = optimize_problem(prob, OptimizeConfig(**opt))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_field(res.mu_star.density, out / "control.f64")
    save_field(res.u_star, out / "state.f64")
    with open(out / "history.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,f_value,grad_norm,step\n")
        for h in res.history:
            fh.write(f"{h.iteration},{h.f_value!r},{h.grad_norm!r},{h.step!r}\n")
    with open(out / "optimize_report.json", "w", encoding="utf-8") as fh:
        json.dump({"f_value": res.F_value, "f_zero": res.f_zero,
                   "tv": tv_norm(res.mu_star), "sparsity": res.sparsity,
                   "converged": res.converged, "slack": res.slack,
                   "iterations": len(res.history) - 1},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
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
