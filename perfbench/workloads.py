"""Seeded workloads of the measopt benchmark.

A workload turns a seed into inputs when it is constructed (that is the
set-up the benchmark times, together with ``warm_up``), then offers a
fixed batch of operations.  Each operation is run by the benchmark and
its output checked afterwards by ``check``; the program itself only ever
sees the generated inputs, never the seed.

Why these three (see README.md for the layer map):

* ``optimize_2d`` -- proximal-gradient control on 2-D n=31 grids: the
  optimizer and the sparse-direct path of the solver, no CG.
* ``state_3d`` -- one 3-D state solve per rung of a grid ladder that
  straddles the solver's direct/CG switch; never calls the optimizer.
* ``experiments_cli`` -- the command line and three experiments: many
  small unrelated 2-D solves, mollification and file I/O.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np


class Operation:
    """One timed call: ``run()`` produces the output that ``check`` reads."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check  # output -> None when correct, else a reason


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _l2(values, h, dim) -> float:
    return math.sqrt(float(values @ values) * h ** dim)


def _sine_mode(coords, waves) -> np.ndarray:
    return np.prod(np.sin(math.pi * np.asarray(waves) * coords), axis=1)


def _power3(u):
    return u * u * u


def _state_residual(mo, grid, u_values, rhs_values) -> float:
    """Weighted-L1 residual of -Lap_h u + u^3 - mu, recomputed here."""
    lap = mo.grid.neg_laplacian_apply(mo.grid.ScalarField(grid, u_values)).values
    return float(np.abs(lap + _power3(u_values) - rhs_values).sum()) * grid.cell_volume


def _alpha_max(mo, grid, target) -> float:
    """Smallest alpha for which the zero control is prox-stationary.

    At the zero control the state is 0, the p=2 misfit gradient is
    -u_d/||u_d|| and g'(0) = 0 for q = 3, so the adjoint solves
    -Lap_h phi = -u_d/||u_d||; the first prox step is nonzero exactly
    when max|phi| exceeds alpha.
    """
    rhs = -target / _l2(target, grid.h, grid.dim)
    phi, _ = mo.solver.solve_linear(
        grid, mo.measures.DiscreteMeasure.from_density(mo.grid.ScalarField(grid, rhs)))
    return float(np.abs(phi.values).max())


def _history_check(f_values, f_reported, f_zero, f_recomputed):
    if len(f_values) < 2:
        return "optimizer made no step although alpha < alpha_max"
    if any(b > a for a, b in zip(f_values, f_values[1:])):
        return "F history increases"
    if not f_reported <= f_zero:
        return f"F(mu*) = {f_reported!r} exceeds F(0) = {f_zero!r}"
    if abs(f_recomputed - f_reported) > 1e-9 * max(1.0, abs(f_reported)):
        return f"evaluate_cost gives {f_recomputed!r}, optimizer reported {f_reported!r}"
    return None


# ---------------------------------------------------------------------------

class Optimize2D:
    """A batch of 2-D control problems, each optimized from the zero control.

    Targets are stratified: problem j has a primary sine mode with wave
    numbers from {1, 2, 3}^2 (all nine pairs, one each), a random sign,
    a random secondary mode and a random sup amplitude in [0.4, 0.6].
    alpha is half of alpha_max, so every minimizer is nonzero.  The
    strata keep the batch's mix of easy and hard problems the same from
    seed to seed, which is what makes its wall time comparable.
    """

    name = "optimize_2d"
    N = 31
    Q = 3.0
    P = 2.0
    ALPHA_FRACTION = 0.5
    MAX_ITER = 12
    STRATA = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))

    def __init__(self, mo, seed: int, workdir: Path):
        self.mo = mo
        rng = np.random.default_rng(seed)
        grid = mo.grid.build_grid(2, self.N)
        coords = grid.node_coords()
        g = mo.nonlinearity.Nonlinearity.power(self.Q)
        self.config = mo.control.OptimizeConfig(max_iter=self.MAX_ITER)
        self.problems = []
        targets = []
        for waves in self.STRATA:
            vals = rng.choice([-1.0, 1.0]) * _sine_mode(coords, waves)
            vals += rng.uniform(-0.5, 0.5) * _sine_mode(coords, rng.integers(1, 4, size=2))
            vals *= rng.uniform(0.4, 0.6) / np.abs(vals).max()
            targets.append(vals)
        self.alphas = [self.ALPHA_FRACTION * _alpha_max(mo, grid, t) for t in targets]
        for vals, alpha in zip(targets, self.alphas):
            self.problems.append(mo.control.ControlProblem(
                grid, g, mo.grid.ScalarField(grid, vals), self.P, alpha))
        self.digest = _digest(self.name, self.MAX_ITER, *targets, self.alphas)
        self.ratios = []

    def warm_up(self):
        self.mo.control.optimize(self.problems[0],
                                 self.mo.control.OptimizeConfig(max_iter=1))

    def operations(self):
        return [Operation(f"optimize[{i}]",
                          lambda prob=prob: self.mo.control.optimize(prob, self.config),
                          lambda res, prob=prob: self._check(prob, res))
                for i, prob in enumerate(self.problems)]

    def _check(self, prob, res):
        self.ratios.append(res.F_value / res.f_zero)
        f_again = self.mo.control.evaluate_cost(prob, res.mu_star)
        return _history_check([h.f_value for h in res.history], res.F_value,
                              res.f_zero, f_again)

    def f_final_ratio(self) -> float:
        return float(np.mean(self.ratios[-len(self.problems):]))

    def cross_checks(self, tracer):
        return _adjoint_span_check(tracer)


class State3D:
    """One signed 3-D measure per rung of the ladder n = 15 ... 63.

    Each measure has three atoms of weight in [0.05, 0.1], one positive,
    one negative and one of random sign, plus a Gaussian density of random
    sign, amplitude in [10, 15], centre and width.  With these weights
    Newton takes two steps on nearly every seed and rung; heavier atoms
    (weights in [0.2, 1.5]) made it flip between two and three or three
    and four, which moved a batch's work by up to a sixth from seed to
    seed.  Both signs are always present, so every solve also runs the
    |mu| cap solve.  The ladder straddles the solver's switch from sparse
    LU (n^3 <= 10^4) to CG, and n=21 sits on the LU fill-in cliff.
    """

    name = "state_3d"
    LADDER = (15, 21, 31, 47, 63)
    TOL = 1e-10

    def __init__(self, mo, seed: int, workdir: Path):
        self.mo = mo
        rng = np.random.default_rng(seed)
        g = mo.nonlinearity.Nonlinearity.power(3.0)
        self.cases = []
        parts = [self.name]
        for n in self.LADDER:
            grid = mo.grid.build_grid(3, n)
            signs = (1.0, -1.0, rng.choice([-1.0, 1.0]))
            atoms = tuple((tuple(float(x) for x in rng.uniform(0.15, 0.85, size=3)),
                           float(sign * rng.uniform(0.05, 0.1)))
                          for sign in signs)
            centre = rng.uniform(0.3, 0.7, size=3)
            width = rng.uniform(0.1, 0.2)
            amp = rng.choice([-1.0, 1.0]) * rng.uniform(10.0, 15.0)
            dens = amp * np.exp(-((grid.node_coords() - centre) ** 2).sum(axis=1) / width ** 2)
            measure = mo.measures.DiscreteMeasure(
                3, atoms=atoms, density=mo.grid.ScalarField(grid, dens))
            self.cases.append((grid, g, measure))
            parts += [n, atoms, dens]
        self.digest = _digest(*parts)

    def warm_up(self):
        grid, g, measure = self.cases[0]
        self.mo.solver.solve_semilinear(grid, g, measure, tol=self.TOL)

    def operations(self):
        return [Operation(f"solve[n={grid.n}]",
                          lambda c=(grid, g, measure): self.mo.solver.solve_semilinear(
                              *c, tol=self.TOL),
                          lambda out, grid=grid, measure=measure: self._check(grid, measure, out))
                for grid, g, measure in self.cases]

    def _check(self, grid, measure, out):
        u, report = out
        rhs = self.mo.measures.rasterize(measure, grid).values
        res = _state_residual(self.mo, grid, u.values, rhs)
        if not (report.converged and res <= self.TOL):
            return f"residual {res:.3e} above tol {self.TOL:.0e} at n={grid.n}"
        return None

    def f_final_ratio(self) -> float:
        # no optimizer runs here: mu* = 0 and F(mu*)/F(0) is 1 by definition
        return 1.0

    def cross_checks(self, tracer):
        krylov = tracer.counters["kernels.krylov_iters"]
        from_reports = tracer.counters["solver.report_cg_inner"]
        if krylov != from_reports:
            return [f"kernels.krylov_iters {krylov} != CG report inner iterations "
                    f"{from_reports}"]
        return []


class ExperimentsCli:
    """``measopt.cli.run_cli`` in-process: three experiments, solve, optimize.

    ``solve`` and ``optimize`` read problem files written here from the
    seed, with the density and u_d as ``.f64`` fields.  Every experiment
    summary must say passed and must be byte-identical between batches.
    """

    name = "experiments_cli"
    N = 31
    TOL = 1e-10
    OPT_MAX_ITER = 10

    def __init__(self, mo, seed: int, workdir: Path):
        self.mo = mo
        self.seed = seed
        self.work = Path(workdir) / self.name
        if self.work.exists():
            shutil.rmtree(self.work)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        grid = mo.grid.build_grid(2, self.N)
        coords = grid.node_coords()
        density = rng.uniform(-3.0, 3.0) * _sine_mode(coords, rng.integers(1, 4, size=2))
        atoms = [{"x": [float(v) for v in rng.uniform(0.15, 0.85, size=2)],
                  "w": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.2))}
                 for _ in range(3)]
        # one fixed primary mode, random in orientation, sign, secondary mode
        # and amplitude: a single problem with a random primary mode made
        # F(mu*)/F(0) range over 0.70-0.95 from seed to seed
        primary = (1, 2) if rng.random() < 0.5 else (2, 1)
        target = rng.choice([-1.0, 1.0]) * _sine_mode(coords, primary)
        target += rng.uniform(-0.15, 0.15) * _sine_mode(coords, rng.integers(1, 4, size=2))
        target *= rng.uniform(0.45, 0.55) / np.abs(target).max()
        alpha = 0.5 * _alpha_max(mo, grid, target)
        _write_field(inputs / "density.f64", density, 2, self.N)
        _write_field(inputs / "u_d.f64", target, 2, self.N)
        common = {"schema": 1, "grid": {"dim": 2, "n": self.N},
                  "g": {"kind": "power", "q": 3}}
        self.solve_doc = inputs / "solve.json"
        self.optimize_doc = inputs / "optimize.json"
        _write_json(self.solve_doc, {**common, "tol": self.TOL,
                                     "measure": {"atoms": atoms,
                                                 "density_file": "density.f64"}})
        _write_json(self.optimize_doc, {**common, "p": 2, "alpha": alpha,
                                        "u_d": {"file": "u_d.f64"},
                                        "optimizer": {"max_iter": self.OPT_MAX_ITER}})
        self.grid = grid
        self.density = density
        self.atoms = atoms
        self.target = target
        self.alpha = alpha
        self.digest = _digest(self.name, seed, density, atoms, target, alpha)
        self.summaries = {}
        self.ratios = []

    def _cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.mo.cli.run_cli([str(a) for a in argv])

    def warm_up(self):
        self._cli("list")

    def operations(self):
        out = self.work / "out"
        ops = []
        for exp, extra in (("exp_truncation_suite", ["--seed", self.seed]),
                           ("exp_nonconvexity", []),
                           ("exp_mollification_stability", [])):
            ops.append(Operation(
                exp,
                lambda exp=exp, extra=extra: self._cli("experiment", exp, *extra,
                                                       "--out", out),
                lambda rc, exp=exp: self._check_experiment(rc, out / exp)))
        ops.append(Operation("solve",
                             lambda: self._cli("solve", self.solve_doc, "--out", out / "solve"),
                             lambda rc: self._check_solve(rc, out / "solve")))
        ops.append(Operation("optimize",
                             lambda: self._cli("optimize", self.optimize_doc,
                                               "--out", out / "optimize"),
                             lambda rc: self._check_optimize(rc, out / "optimize")))
        return ops

    def _check_experiment(self, rc, folder):
        if rc != 0:
            return f"{folder.name}: exit code {rc}"
        data = (folder / "summary.json").read_bytes()
        if not json.loads(data)["passed"]:
            return f"{folder.name}: summary says not passed"
        first = self.summaries.setdefault(folder.name, data)
        if data != first:
            return f"{folder.name}: summary.json differs from the first same-seed run"
        return None

    def _check_solve(self, rc, folder):
        if rc != 0:
            return f"solve: exit code {rc}"
        report = json.loads((folder / "solve_report.json").read_text())
        u = np.fromfile(folder / "state.f64", dtype="<f8")
        rhs = self.density.copy()
        for atom in self.atoms:
            idx = self.grid.flat_index(self.grid.nearest_index(atom["x"]))
            rhs[idx] += atom["w"] / self.grid.cell_volume
        res = _state_residual(self.mo, self.grid, u, rhs)
        if not (report["converged"] and res <= self.TOL):
            return f"solve: residual {res:.3e} above tol {self.TOL:.0e}"
        return None

    def _check_optimize(self, rc, folder):
        if rc != 0:
            return f"optimize: exit code {rc}"
        report = json.loads((folder / "optimize_report.json").read_text())
        lines = (folder / "history.csv").read_text().splitlines()[1:]
        f_values = [float(line.split(",")[1]) for line in lines]
        control = np.fromfile(folder / "control.f64", dtype="<f8")
        prob = self.mo.control.ControlProblem(
            self.grid, self.mo.nonlinearity.Nonlinearity.power(3.0),
            self.mo.grid.ScalarField(self.grid, self.target), 2.0, self.alpha)
        f_again = self.mo.control.evaluate_cost(prob, self.mo.measures.DiscreteMeasure.from_density(
            self.mo.grid.ScalarField(self.grid, control)))
        self.ratios.append(report["f_value"] / report["f_zero"])
        return _history_check(f_values, report["f_value"], report["f_zero"], f_again)

    def f_final_ratio(self) -> float:
        return float(self.ratios[-1])

    def cross_checks(self, tracer):
        return _adjoint_span_check(tracer)


def _adjoint_span_check(tracer):
    """Adjoint solves counted from optimize histories must match the
    linear-solve spans opened directly under ``control.optimize``."""
    from_history = tracer.counters["control.adjoint_solves"]
    spans = tracer.calls("solver.linear", "control.optimize")
    if from_history != spans:
        return [f"control.adjoint_solves {from_history} != linear spans under "
                f"optimize {spans}"]
    return []


def _write_field(path, values, dim, n):
    np.asarray(values, dtype="<f8").tofile(path)
    _write_json(Path(str(path) + ".json"), {"dim": dim, "n": n})


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


WORKLOADS = {cls.name: cls for cls in (Optimize2D, State3D, ExperimentsCli)}
