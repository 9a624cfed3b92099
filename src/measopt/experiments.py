"""Scripted, seeded reproductions of the library's verifiable phenomena.

Each experiment takes an ExperimentSpec, writes CSV tables plus a JSON
summary into the spec's output directory, and returns an
ExperimentReport whose assertion rows carry the checked property, its
tolerance, and a pass/fail/skip status.  Floats are serialized with
repr so identical seeds reproduce byte-identical files.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checks import count, real
from .control import (ControlProblem, OptimizeConfig, check_state_regularity,
                      evaluate_cost, optimize)
from .grid import (_FIELD_KEYS, ScalarField, build_grid, constant_field, named_field,
                   neg_laplacian_apply, _lp)
from .measures import DiscreteMeasure, mollify, scale, tv_norm
from .nonlinearity import Nonlinearity
from .solver import (ConvergenceError, lemma_truncation_check, reduced_limit,
                     residual_measure, solve_linear, solve_semilinear,
                     truncate_min)


@dataclass
class ExperimentSpec:
    name: str
    parameters: dict
    output_dir: Path
    seed: int = 0


@dataclass
class AssertionRow:
    name: str
    status: str  # pass, fail, or skip
    detail: str
    reference: str
    tolerance: str


@dataclass
class ExperimentReport:
    name: str
    assertions: list
    tables: list
    summary_path: str
    passed: bool


_REGISTRY: dict = {}


def _register(name, defaults):
    def deco(fn):
        _REGISTRY[name] = (fn, defaults)
        return fn
    return deco


def list_experiments() -> list:
    return list(_REGISTRY)


def run_experiment(name: str, parameters: dict | None = None,
                   output_dir="measopt_out", seed: int = 0) -> ExperimentReport:
    """Run a registered experiment; ``parameters`` may override only its defaults."""
    seed = count(seed, "seed", least=0)
    if name not in _REGISTRY:
        raise ValueError(f"unknown experiment {name!r}; known: {', '.join(_REGISTRY)}")
    fn, defaults = _REGISTRY[name]
    parameters = parameters or {}
    unknown = sorted(set(parameters) - set(defaults))
    if unknown:
        raise ValueError(f"invalid config: unknown parameter(s) for {name}: {unknown}")
    params = {**defaults, **parameters}
    return fn(ExperimentSpec(name=name, parameters=params,
                             output_dir=Path(output_dir) / name, seed=seed))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows) -> str:
    """Write a table with floats as repr, creating its directory; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(x) for x in row])
    return str(path)


def write_json(path, doc) -> str:
    """Write doc as indented, key-sorted JSON, creating its directory; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _entries(value, key: str, size: int | None = None) -> list:
    """value as a list (of size entries, if given), else a ValueError naming key."""
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        want = "a list" if size is None else f"a list of {size} entries"
        raise ValueError(f"invalid config: {key} must be {want}, got {value!r}")
    return list(value)


def _targets(ud, grids) -> list:
    """The field that parameter ud names, on each grid; a malformed ud is a ValueError."""
    names = sorted(_FIELD_KEYS)
    if not isinstance(ud, dict) or ud.get("name") not in names:
        raise ValueError(f"invalid config: ud must be an object with a name in {names}, "
                         f"got {ud!r}")
    return [named_field(grid, ud["name"], ud) for grid in grids]


def _power(value, key: str) -> Nonlinearity:
    """Nonlinearity.power of the exponent in parameter key, else a ValueError naming key."""
    q = real(value, key)
    if not q >= 1.0:
        raise ValueError(f"invalid config: {key} must be >= 1, got {q}")
    return Nonlinearity.power(q)


def _row(name, ok, detail, reference, tolerance) -> AssertionRow:
    return AssertionRow(name, "pass" if ok else "fail", detail, reference,
                        tolerance)


def _finish(spec, assertions, tables, extras=None) -> ExperimentReport:
    passed = all(a.status != "fail" for a in assertions)
    summary = {
        "schema": 1,
        "name": spec.name,
        "seed": spec.seed,
        "parameters": {k: _jsonable(v) for k, v in spec.parameters.items()},
        "assertions": [asdict(a) for a in assertions],
        # relative to the summary, so a rerun in another directory matches
        "tables": [str(Path(t).relative_to(spec.output_dir)) for t in tables],
        "passed": passed,
    }
    if extras:
        summary["results"] = {k: _jsonable(v) for k, v in extras.items()}
    path = write_json(spec.output_dir / "summary.json", summary)
    return ExperimentReport(spec.name, assertions, tables, path, passed)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _random_sines(grid, rng, amplitude: float) -> np.ndarray:
    """Random low-frequency sine combination, sup-bounded by amplitude."""
    coords = grid.node_coords()
    vals = np.zeros(grid.total_interior)
    coeffs = rng.uniform(-1.0, 1.0, size=(2, grid.dim))
    waves = rng.integers(1, 4, size=(2, grid.dim))
    for mode in range(2):
        term = np.ones(grid.total_interior)
        for ax in range(grid.dim):
            term = term * np.sin(math.pi * waves[mode, ax] * coords[:, ax])
        vals += coeffs[mode].prod() * term
    top = np.abs(vals).max()
    if top > 0.0:
        vals *= amplitude / top
    return vals


# ---------------------------------------------------------------------------
# collapse of mollified point sources under supercritical absorption
# ---------------------------------------------------------------------------

@_register("exp_dirac_collapse", {
    "q": 3.0,
    "p_values": (2.0, 3.0),
    "alpha": 0.5,
    "levels": (15, 31, 47, 63),
    "radius_factor": 4.0,
    "center": (0.5, 0.5, 0.5),
    "subcritical_q": 2.0,
    "ud": {"name": "zero"},
})
def exp_dirac_collapse(spec: ExperimentSpec) -> ExperimentReport:
    """Shrinking mollifiers of a unit Dirac on 3-d grids, q at or above 3.

    Solves -Lap u_k + |u_k|^(q-1) u_k = rho_k along a coupled
    grid/mollifier schedule and tracks ||u_k||_L1, the absorbed mass
    ||g(u_k)||_L1, and F(rho_k) for each requested misfit exponent p.
    The closed-form limits F -> ||u_d||_p + alpha (p < q) and
    F -> (||u_d||_p^p + 1)^(1/p) + alpha (p = q) are asserted at the
    finest level with 10 percent tolerance; a subcritical control run
    checks that ||u_k||_L1 stabilizes at a positive value instead.
    """
    par = spec.parameters
    q = real(par["q"], "q")
    if q < 3.0:
        raise ValueError(f"invalid config: q must be >= 3, got {q}")
    p_values = [real(p, "p_values") for p in _entries(par["p_values"], "p_values")]
    if any(not 1.0 <= p <= q for p in p_values):
        raise ValueError(f"invalid config: p_values must be in [1, q = {q}], got {p_values}")
    alpha = real(par["alpha"], "alpha", positive=True)
    levels = [count(n, "levels") for n in _entries(par["levels"], "levels")]
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"invalid config: levels must be 2 or more strictly increasing "
                         f"sizes, got {levels}")
    grids = [build_grid(3, n) for n in levels]
    center = [real(c, "center") for c in _entries(par["center"], "center", 3)]
    if not all(0.0 < c < 1.0 for c in center):
        raise ValueError(f"invalid config: center must be inside the open unit box, "
                         f"got {center}")
    delta = DiscreteMeasure.point(center, 1.0)
    radius_factor = real(par["radius_factor"], "radius_factor")
    if not radius_factor >= 2.0:  # mollify resolves a radius of 2h or more
        raise ValueError(f"invalid config: radius_factor must be >= 2, got {radius_factor}")
    measures = [DiscreteMeasure.from_density(mollify(delta, radius_factor * g.h, g))
                for g in grids]
    ud_fields = _targets(par["ud"], grids)
    g_sub = _power(par["subcritical_q"], "subcritical_q")

    assertions = []
    tables = []
    extras = {}

    def run_schedule(g_fun, tag):
        try:
            return reduced_limit(grids, measures, g_fun), None
        except ConvergenceError as exc:
            partial = getattr(exc, "trace", [])
            detail = f"{tag} schedule diverged at level {len(partial)}: {exc}"
            return None, _row("schedule-convergence-" + tag, False, detail,
                              "good-measure-existence", "converged")

    g_super = Nonlinearity.power(q)
    result, failure = run_schedule(g_super, "supercritical")
    if failure is not None:
        assertions.append(failure)
        return _finish(spec, assertions, tables, extras)

    per_level = list(zip(result.states, ud_fields, grids, measures))
    f_tables = {p: [ControlProblem(grid, g_super, ud, p, alpha).cost(u.values, m)
                    for u, ud, grid, m in per_level]
                for p in p_values}

    rows = []
    for rec in result.trace:
        row = [rec.level, rec.n, rec.h, rec.tv_mu, rec.u_l1, rec.g_u_l1,
               rec.w11_tv_ratio]
        row.extend(f_tables[p][rec.level] for p in p_values)
        rows.append(row)
    header = ["level", "n", "h", "tv_mu", "u_l1", "g_u_l1", "w11_tv_ratio"]
    header.extend(f"f_p{p:g}" for p in p_values)
    tables.append(write_csv(spec.output_dir / "collapse_supercritical.csv",
                            header, rows))

    u_l1 = [rec.u_l1 for rec in result.trace]
    decreasing = len(u_l1) >= 4 and all(b < a for a, b in zip(u_l1, u_l1[1:]))
    assertions.append(_row(
        "state-l1-collapse", decreasing,
        "||u_k||_L1 per level: " + ", ".join(repr(v) for v in u_l1),
        "supercritical-collapse", "strictly decreasing over >= 4 levels"))

    for p in p_values:
        final = f_tables[p][-1]
        if p < q:
            target = _lp(ud_fields[-1].values, p, grids[-1]) + alpha
            name, ref = f"collapse-limit-p{p:g}", "collapse-limit-p-lt-q"
        else:
            udp = _lp(ud_fields[-1].values, p, grids[-1])
            target = (udp ** p + 1.0) ** (1.0 / p) + alpha
            name, ref = f"collapse-limit-p{p:g}", "collapse-limit-p-eq-q"
        ok = abs(final - target) <= 0.10 * target
        assertions.append(_row(
            name, ok,
            f"F at finest level {final!r}, closed-form limit {target!r}",
            ref, "relative 10%"))
        extras[f"f_final_p{p:g}"] = final
        extras[f"f_target_p{p:g}"] = target

    worst = max(rec.g_u_l1 - rec.tv_mu for rec in result.trace)
    assertions.append(_row(
        "absorption-per-level", worst <= 1e-8,
        f"max ||g(u)||_L1 - tv over levels = {worst!r}",
        "absorption-estimate", "1e-8"))

    lsc_gap = tv_norm(result.mu_sharp) - min(rec.tv_mu for rec in result.trace)
    assertions.append(_row(
        "tv-lsc-supercritical", lsc_gap <= 0.05 * min(rec.tv_mu for rec in result.trace),
        f"tv(mu_sharp) - min_k tv(mu_k) = {lsc_gap!r}",
        "tv-lower-semicontinuity", "relative 5%"))
    extras["u_l1_supercritical"] = u_l1

    sub, failure = run_schedule(g_sub, "subcritical")
    if failure is not None:
        assertions.append(failure)
        return _finish(spec, assertions, tables, extras)
    rows = [[rec.level, rec.n, rec.h, rec.tv_mu, rec.u_l1, rec.g_u_l1]
            for rec in sub.trace]
    tables.append(write_csv(spec.output_dir / "collapse_subcritical.csv",
                            ["level", "n", "h", "tv_mu", "u_l1", "g_u_l1"], rows))
    sub_l1 = [rec.u_l1 for rec in sub.trace]
    stabilized = sub_l1[-1] > 0.0 and \
        abs(sub_l1[-1] - sub_l1[-2]) <= 0.05 * sub_l1[-1]
    assertions.append(_row(
        "subcritical-stabilization", stabilized,
        "||u_k||_L1 per level: " + ", ".join(repr(v) for v in sub_l1),
        "subcritical-dichotomy", "last step within 5%, positive"))
    sub_gap = tv_norm(sub.mu_sharp) - min(rec.tv_mu for rec in sub.trace)
    assertions.append(_row(
        "tv-lsc-subcritical", sub_gap <= 0.05 * min(rec.tv_mu for rec in sub.trace),
        f"tv(mu_sharp) - min_k tv(mu_k) = {sub_gap!r}",
        "tv-lower-semicontinuity", "relative 5%"))
    extras["u_l1_subcritical"] = sub_l1
    return _finish(spec, assertions, tables, extras)


# ---------------------------------------------------------------------------
# nonconvexity of F along a ray of positive measures
# ---------------------------------------------------------------------------

@_register("exp_nonconvexity", {
    "p": 2.0,
    "theta": 2.0,
    "dim": 2,
    "n": 31,
    "alpha": 0.5,
    "amplitude": 1.0,
})
def exp_nonconvexity(spec: ExperimentSpec) -> ExperimentReport:
    """Midpoint inequality (F(mu) + F(theta mu))/2 < F((1+theta)/2 mu).

    With g(t) = |t|^(p-1) t, u_d the exact state of mu, mu a positive
    density and theta > 1, the tv terms cancel in the midpoint comparison,
    so the margin isolates the strict nonconvexity contributed by the
    misfit.  For 0 < theta < 1 the margin is never positive: g is convex
    on the nonnegative states, so s -> S(s mu) is concave and the misfit
    is convex on [theta, 1].  Needs p > 1; for p = 1 the construction
    degenerates (g linear) and the run reports a skip.
    """
    par = spec.parameters
    theta = real(par["theta"], "theta")
    if not theta > 1.0:
        raise ValueError(f"invalid config: theta must be > 1, got {theta}")
    amplitude = real(par["amplitude"], "amplitude", positive=True)
    p = real(par["p"], "p")
    if p == 1.0:
        row = AssertionRow("nonconvexity-strict-midpoint", "skip",
                           "p=1 makes g linear and F convex on this ray; "
                           "not applicable",
                           "nonconvexity-strict-midpoint", "n/a")
        return _finish(spec, [row], [])
    if not 1.0 < p < math.inf:
        raise ValueError(f"invalid config: need 1 <= p < inf, got {p}")
    alpha = real(par["alpha"], "alpha", positive=True)
    grid = build_grid(par["dim"], par["n"])
    g = Nonlinearity.power(p)
    mu = DiscreteMeasure.from_density(constant_field(grid, amplitude))
    u_mu, _ = solve_semilinear(grid, g, mu, tol=1e-12)
    prob = ControlProblem(grid, g, u_mu, p, alpha)
    f_mu = evaluate_cost(prob, mu)
    f_theta = evaluate_cost(prob, scale(mu, theta))
    f_mid = evaluate_cost(prob, scale(mu, 0.5 * (1.0 + theta)))
    margin = f_mid - 0.5 * (f_mu + f_theta)
    tables = [write_csv(spec.output_dir / "nonconvexity.csv",
                        ["theta", "f_mu", "f_theta_mu", "f_midpoint", "margin"],
                        [[theta, f_mu, f_theta, f_mid, margin]])]
    assertions = [_row(
        "nonconvexity-strict-midpoint", margin > 1e-6,
        f"midpoint F exceeds averaged F by {margin!r}",
        "nonconvexity-strict-midpoint", "margin > 1e-6")]
    return _finish(spec, assertions, tables, {"margin": margin})


# ---------------------------------------------------------------------------
# randomized truncation inequalities
# ---------------------------------------------------------------------------

@_register("exp_truncation_suite", {
    "instances": 100,
    "dim": 2,
    "lemma_n": 17,
    "truncate_n": 33,
})
def exp_truncation_suite(spec: ExperimentSpec) -> ExperimentReport:
    """Randomized checks of the paired and tv truncation inequalities.

    Lemma instances draw arbitrary (u1, a1) and a supersolution pair
    (u2, a2); truncation instances solve a random signed datum and cut
    it at a nonnegative linear supersolution.  All slacks must clear
    -1e-8; both slack populations are emitted as a histogram table.
    """
    par = spec.parameters
    instances = count(par["instances"], "instances")
    rng = np.random.default_rng(spec.seed)
    lemma_grid = build_grid(par["dim"], count(par["lemma_n"], "lemma_n"))
    trunc_grid = build_grid(par["dim"], count(par["truncate_n"], "truncate_n"))
    dim = lemma_grid.dim

    lemma_slacks = []
    for _ in range(instances):
        u1, a1, u2 = (rng.normal(size=lemma_grid.total_interior) for _ in range(3))
        u2f = ScalarField(lemma_grid, u2)
        a2 = (np.maximum(-neg_laplacian_apply(u2f).values, 0.0)
              + rng.uniform(0.0, 1.0, size=lemma_grid.total_interior))
        lemma_slacks.append(lemma_truncation_check(
            ScalarField(lemma_grid, u1), u2f,
            ScalarField(lemma_grid, a1), ScalarField(lemma_grid, a2)).slack)

    gs = [Nonlinearity.power(1.5), Nonlinearity.power(2.0),
          Nonlinearity.power(3.0), Nonlinearity.linear(0.7)]
    trunc_slacks = []
    for i in range(instances):
        g = gs[i % len(gs)]
        dens = ScalarField(trunc_grid, rng.normal(size=trunc_grid.total_interior))
        atoms = tuple((tuple(rng.uniform(0.1, 0.9, size=dim)), rng.uniform(-1.0, 1.0))
                      for _ in range(2))
        wdens = ScalarField(trunc_grid, rng.uniform(0.0, 2.0, size=trunc_grid.total_interior))
        u, _ = solve_semilinear(trunc_grid, g, DiscreteMeasure(dim, atoms=atoms, density=dens),
                                tol=1e-10)
        w, _ = solve_linear(trunc_grid, DiscreteMeasure.from_density(wdens), tol=1e-12)
        _, nu = truncate_min(u, w, g)
        trunc_slacks.append(tv_norm(residual_measure(trunc_grid, g, u)) - tv_norm(nu))

    rows = [[i, "paired-inequality", s] for i, s in enumerate(lemma_slacks)]
    rows += [[i, "tv-comparison", s] for i, s in enumerate(trunc_slacks)]
    tables = [write_csv(spec.output_dir / "truncation_slacks.csv",
                        ["instance", "kind", "slack"], rows)]
    counts, edges = np.histogram(np.array(lemma_slacks + trunc_slacks), bins=20)
    tables.append(write_csv(
        spec.output_dir / "truncation_slack_histogram.csv",
        ["bin_lo", "bin_hi", "count"],
        [[edges[i], edges[i + 1], int(counts[i])] for i in range(len(counts))]))

    assertions = [
        _row("lemma-slacks-nonnegative",
             min(lemma_slacks) >= -1e-8,
             f"min slack {min(lemma_slacks)!r} over {instances} instances",
             "truncation-paired-inequality", "-1e-8"),
        _row("tv-comparison-slacks-nonnegative",
             min(trunc_slacks) >= -1e-8,
             f"min slack {min(trunc_slacks)!r} over {instances} instances",
             "truncation-tv-comparison", "-1e-8"),
    ]
    return _finish(spec, assertions, tables,
                   {"min_lemma_slack": min(lemma_slacks),
                    "min_tv_slack": min(trunc_slacks)})


# ---------------------------------------------------------------------------
# minimizer regularity: sup bound, sign, supersolution comparison
# ---------------------------------------------------------------------------

@_register("exp_regularity_suite", {
    "instances": 20,
    "dim": 2,
    "n": 17,
    "p": 2.0,
    "alpha": 0.02,
    "q": 3.0,
    "max_iter": 120,
})
def exp_regularity_suite(spec: ExperimentSpec) -> ExperimentReport:
    """Optimize random bounded targets and audit minimizer regularity.

    Per instance: truncating the candidate state into
    [-||u_d||_inf, ||u_d||_inf] must not improve F beyond the optimizer
    slack s; that F-level check is then converted into pointwise state
    units, because an F gap of s only permits excursions up to
    beta = (p J^(p-1) s / h^dim)^(1/p) (a node exceeding the bound by
    beta lowers the misfit J by at least beta^p h^dim / (p J^(p-1))
    under truncation).  max |u*|, the sign of u* for nonnegative
    targets, and u* <= w for a planted supersolution w are all checked
    against s + beta.
    """
    par = spec.parameters
    instances = count(par["instances"], "instances")
    grid = build_grid(par["dim"], par["n"])
    g = _power(par["q"], "q")
    p = real(par["p"], "p")
    alpha = real(par["alpha"], "alpha", positive=True)
    cfg = OptimizeConfig(max_iter=par["max_iter"])
    rng = np.random.default_rng(spec.seed)

    def pointwise_slack(misfit: float, s: float) -> float:
        base = max(misfit, s)
        return s + (p * base ** (p - 1.0) * s / grid.cell_volume) ** (1.0 / p)

    rows = []
    trunc_ok, sup_ok, sign_ok = [], [], []
    for i in range(instances):
        vals = _random_sines(grid, rng, rng.uniform(0.2, 1.0))
        if i % 2 == 0:
            vals = np.abs(vals)
        prob = ControlProblem(grid, g, ScalarField(grid, vals), p, alpha)
        res = optimize(prob, cfg)
        rep = check_state_regularity(prob, res)
        beta = pointwise_slack(prob.misfit(res.u_star.values), rep.slack)
        sup_margin = rep.max_abs_state - rep.ud_inf
        rows.append([i, rep.ud_inf, rep.ud_nonnegative, res.f_zero,
                     rep.f_original, rep.f_truncated, rep.slack, beta,
                     rep.min_state, rep.max_abs_state, sup_margin])
        trunc_ok.append(not rep.improved)
        sup_ok.append(sup_margin <= beta)
        if rep.ud_nonnegative:
            sign_ok.append(rep.min_state >= -beta)
    tables = [write_csv(
        spec.output_dir / "regularity.csv",
        ["instance", "ud_inf", "ud_nonnegative", "f_zero", "f_star",
         "f_truncated", "slack", "state_slack", "min_state", "max_abs_state",
         "sup_margin"],
        rows)]

    assertions = [
        _row("truncation-never-improves", all(trunc_ok),
             f"{sum(trunc_ok)}/{len(trunc_ok)} instances improved by <= slack",
             "minimizer-truncation-no-improvement", "optimizer slack"),
        _row("state-sup-bound", all(sup_ok),
             f"{sum(sup_ok)}/{len(sup_ok)} instances with max|u*| <= "
             "||u_d||_inf + state slack",
             "minimizer-state-sup-bound", "optimizer slack in state units"),
        _row("state-nonnegativity", all(sign_ok),
             f"{sum(sign_ok)}/{len(sign_ok)} nonnegative targets with "
             "min u* >= -state slack",
             "minimizer-state-nonnegativity", "optimizer slack in state units"),
    ]

    nu = DiscreteMeasure.from_density(constant_field(grid, 5.0))
    w, _ = solve_linear(grid, nu, tol=1e-12)
    prob_w = ControlProblem(grid, g, w, p, alpha)
    res_w = optimize(prob_w, cfg)
    z, nu_z = truncate_min(res_w.u_star, w, g)
    drop = res_w.F_value - prob_w.cost(z.values, nu_z)
    w_margin = float((res_w.u_star.values - w.values).max())
    w_beta = pointwise_slack(prob_w.misfit(res_w.u_star.values), res_w.slack)
    assertions.append(_row(
        "supersolution-truncation-no-improvement", drop <= res_w.slack,
        f"F drop under truncation at w is {drop!r} with slack {res_w.slack!r}",
        "supersolution-comparison", "optimizer slack"))
    assertions.append(_row(
        "supersolution-comparison", w_margin <= w_beta,
        f"max(u* - w) = {w_margin!r} with state slack {w_beta!r}",
        "supersolution-comparison", "optimizer slack in state units"))
    return _finish(spec, assertions, tables,
                   {"supersolution_margin": w_margin,
                    "supersolution_f_drop": drop})


# ---------------------------------------------------------------------------
# stability of F along mollifications of a fixed control
# ---------------------------------------------------------------------------

@_register("exp_mollification_stability", {
    "dim": 2,
    "n": 63,
    "p": 2.0,
    "alpha": 0.5,
    "box": (0.4, 0.6),
    "box_amplitude": 25.0,
    "radius_start": 0.25,
    "radius_count": 5,
    "ud": {"name": "sines", "amplitude": 0.1, "waves": 1},
})
def exp_mollification_stability(spec: ExperimentSpec) -> ExperimentReport:
    """F along mollifications of a box density converges to F at the box.

    The kernel preserves total mass exactly, so the alpha tv term is
    constant along the schedule and the only moving part is the misfit
    of the smoothed state.  Radii shrink geometrically to 4h; the final
    value must agree with F(mu) within 2 percent.
    """
    par = spec.parameters
    grid = build_grid(par["dim"], par["n"])
    p = real(par["p"], "p")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"invalid config: need 1 <= p < inf, got {p}")
    g = Nonlinearity.power(p) if p > 1.0 else Nonlinearity.linear(1.0)
    lo, hi = (real(v, "box") for v in _entries(par["box"], "box", 2))
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid config: box must be [lo, hi] with 0 <= lo < hi <= 1, "
                         f"got {par['box']!r}")
    coords = grid.node_coords()
    inside = np.all((coords >= lo) & (coords <= hi), axis=1)
    if not inside.any():
        raise ValueError(f"invalid config: box must be wide enough to hold a grid node, "
                         f"got {par['box']!r}")
    amplitude = real(par["box_amplitude"], "box_amplitude")
    if amplitude == 0.0:
        raise ValueError("invalid config: box_amplitude must be nonzero, got 0")
    dens = np.where(inside, amplitude, 0.0)
    mu = DiscreteMeasure.from_density(ScalarField(grid, dens))
    [u_d] = _targets(par["ud"], [grid])
    prob = ControlProblem(grid, g, u_d, p, par["alpha"])

    radius_start = real(par["radius_start"], "radius_start")
    if not radius_start >= 2.0 * grid.h:  # mollify resolves a radius of 2h or more
        raise ValueError(f"invalid config: radius_start must be >= 2h = {2.0 * grid.h}, "
                         f"got {radius_start}")
    radii = np.geomspace(radius_start, 4.0 * grid.h, count(par["radius_count"], "radius_count", least=2))
    f_target = evaluate_cost(prob, mu)
    rows = []
    f_values = []
    for r in radii:
        m_r = DiscreteMeasure.from_density(mollify(mu, r, grid))
        f_r = evaluate_cost(prob, m_r)
        f_values.append(f_r)
        rows.append([float(r), f_r, f_target, abs(f_r - f_target) / f_target])
    tables = [write_csv(spec.output_dir / "mollification.csv",
                        ["radius", "f_mollified", "f_target", "rel_gap"],
                        rows)]
    rel_final = abs(f_values[-1] - f_target) / f_target
    assertions = [_row(
        "mollification-f-convergence", rel_final <= 0.02,
        f"final relative gap {rel_final!r} at radius {float(radii[-1])!r}",
        "mollification-f-convergence", "relative 2%")]
    return _finish(spec, assertions, tables,
                   {"f_target": f_target, "f_values": f_values})
