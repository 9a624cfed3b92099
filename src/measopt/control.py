"""Total-variation regularized control of the semilinear Dirichlet problem.

The objective is F(mu) = ||u(mu) - u_d||_{L^p,h} + alpha * tv(mu) over
measures represented by density fields on the problem grid.
``_evaluate`` solves the state of a control once, into the record
``Evaluation(m, u, f)`` that the cost, the gradient and the optimizer
read.  A failed state or adjoint solve raises the solver's own
``ConvergenceError``, its report attached.  A proximal gradient loop
drives F down: the misfit gradient comes from one adjoint solve at u, the
total-variation term from componentwise soft thresholding of density
values at tau * alpha.  For p = 1 the misfit is Huber-smoothed and for
p = inf log-sum-exp smoothed when differentiating; reported F values
always use the true norm, through ``ControlProblem.cost``.  Every run
starts from the zero control, so its result never exceeds F(0).

The line search starts at step STEP0, multiplies the step by BACKTRACK
after each rejected trial (at most MAX_BACKTRACKS trials per iteration)
and by STEP_GROW after an accepted one, and the loop stops once the
relative F decrease falls below F_RTOL.  Neither stop is stationarity:
a run has converged only where the prox-gradient residual
r = ||c - soft(c - phi, alpha)||_{2,h} has fallen to STATIONARITY_TOL
times its value at the zero control, and only for 1 < p < inf, where
phi is the adjoint of the true misfit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import count, real
from .grid import Grid, ScalarField, _lp, _owned_field, constant_field, lp_norm, zeros_field
from .measures import DiscreteMeasure, tv_norm
from .nonlinearity import Nonlinearity
from .solver import (DEFAULT_TOL, ConvergenceError, _shift, _solve_shifted,
                     solve_semilinear, truncate_max, truncate_min)

STEP0 = 1.0
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
STEP_GROW = 2.0
F_RTOL = 1e-9
STATIONARITY_TOL = 1e-6


@dataclass(frozen=True)
class ControlProblem:
    grid: Grid
    g: Nonlinearity
    u_d: ScalarField
    p: float
    alpha: float

    def __post_init__(self):
        for key, kind in (("g", Nonlinearity), ("u_d", ScalarField)):
            if not isinstance(getattr(self, key), kind):
                raise ValueError(f"invalid config: {key} must be a {kind.__name__}, "
                                 f"got {type(getattr(self, key)).__name__}")
        if self.u_d.grid != self.grid:
            raise ValueError("invalid config: target field lives on a different grid")
        p = real(self.p, "p", allow_inf=True)
        if not p >= 1.0:
            raise ValueError(f"invalid exponent: p must be >= 1 or inf, got {p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", real(self.alpha, "alpha", positive=True))

    def misfit(self, u_values: np.ndarray) -> float:
        """||u - u_d||_{L^p,h} of the state with node values u_values."""
        return _lp(u_values - self.u_d.values, self.p, self.grid)

    def cost(self, u_values: np.ndarray, m: DiscreteMeasure) -> float:
        """F(m) given the node values of its state."""
        return self.misfit(u_values) + self.alpha * tv_norm(m)


@dataclass
class HistoryEntry:
    iteration: int
    f_value: float
    grad_norm: float
    step: float
    prox_residual: float


@dataclass
class OptimResult:
    mu_star: DiscreteMeasure
    u_star: ScalarField
    F_value: float
    history: list
    sparsity: float
    converged: bool
    stationarity: float
    slack: float
    f_zero: float


@dataclass
class OptimizeConfig:
    max_iter: int = 200

    def __post_init__(self):
        self.max_iter = count(self.max_iter, "max_iter", least=0)


@dataclass(frozen=True)
class Evaluation:
    m: DiscreteMeasure
    u: ScalarField
    f: float


def _evaluate(prob: ControlProblem, m: DiscreteMeasure) -> Evaluation:
    """Solve the state of m once; a failed solve raises its ConvergenceError."""
    u, _ = solve_semilinear(prob.grid, prob.g, m)
    return Evaluation(m, u, prob.cost(u.values, m))


def evaluate_cost(prob: ControlProblem, m: DiscreteMeasure) -> float:
    """F(m) = misfit of the state plus alpha times the tv norm."""
    return _evaluate(prob, m).f


def _smoothing_width(prob: ControlProblem) -> float:
    """The Huber (p = 1) or log-sum-exp (p = inf) width: 1e-3 ||u_d||_{L^p,h}.

    The target's own norm, which stays bounded under refinement for any
    target in L^p; its max would grow with the grid for an unbounded L^1
    target such as |x - x0|^-1.
    """
    return 1e-3 * (lp_norm(prob.u_d, prob.p) or 1.0)


def _misfit_gradient_density(prob: ControlProblem, u_values: np.ndarray) -> np.ndarray:
    """L2-representer of the misfit derivative in u (the adjoint rhs)."""
    e = u_values - prob.u_d.values
    p = prob.p
    if p == 1.0:
        return np.clip(e / _smoothing_width(prob), -1.0, 1.0)
    if p == math.inf:
        a = np.abs(e)
        top = float(a.max())
        if top == 0.0:
            return np.zeros_like(e)
        w = np.exp((a - top) / _smoothing_width(prob))
        w /= w.sum()
        return np.sign(e) * w / prob.grid.cell_volume
    norm = _lp(e, p, prob.grid)
    if norm == 0.0:
        return np.zeros_like(e)
    return np.sign(e) * np.abs(e) ** (p - 1.0) / norm ** (p - 1.0)


def _adjoint_from_state(prob: ControlProblem, u_values: np.ndarray) -> np.ndarray:
    """The adjoint state; a failed solve raises its ConvergenceError."""
    rhs = _misfit_gradient_density(prob, u_values)
    phi, _, _ = _solve_shifted(prob.grid, _shift(prob.g, u_values), rhs,
                               atol_l1=DEFAULT_TOL * 1e-2)
    return phi


def adjoint_gradient(prob: ControlProblem, m: DiscreteMeasure) -> ScalarField:
    """Gradient of the misfit with respect to the control density.

    Solves the linearized adjoint equation (-Lap_h + g'(u)) phi equal to
    the misfit derivative; the returned field represents the gradient in
    the h^dim-weighted inner product, so directional derivatives are
    recovered as <phi, direction>_h.
    """
    return ScalarField(prob.grid, _adjoint_from_state(prob, _evaluate(prob, m).u.values))


def _soft_threshold(values: np.ndarray, level: float) -> np.ndarray:
    """sign(v) * max(|v| - level, 0) node by node, as a fresh array."""
    return np.sign(values) * np.maximum(np.abs(values) - level, 0.0)


def _prox_residual(prob: ControlProblem, c: np.ndarray, phi: np.ndarray) -> float:
    """r = ||c - soft(c - phi, alpha)||_{2,h}, zero exactly at a prox-stationary control c."""
    return _lp(c - _soft_threshold(c - phi, prob.alpha), 2.0, prob.grid)


def optimize(prob: ControlProblem, config: OptimizeConfig | None = None) -> OptimResult:
    """Minimize F by proximal gradient descent from the zero control.

    Steps c <- soft(c - tau * phi, tau * alpha) on density values, with
    tau backtracked until F strictly decreases, so the history is
    nonincreasing and the result never exceeds F(0).  A run whose very
    first iteration cannot decrease F returns the zero control.  Trial
    controls, fresh and finite, are wrapped without a copy or a scan.
    ``stationarity`` is r at the result over r at the zero control (0 when
    that is 0), both from adjoints already solved, and ``converged`` is
    stationarity <= STATIONARITY_TOL for 1 < p < inf, False otherwise.
    """
    cfg = config or OptimizeConfig()
    grid = prob.grid
    cur = _evaluate(prob, DiscreteMeasure.from_density(zeros_field(grid)))
    f_zero = cur.f  # g(0) = 0, so the zero control has state 0 and F = misfit
    phi = _adjoint_from_state(prob, cur.u.values)
    history = [HistoryEntry(0, cur.f, _lp(phi, 2.0, grid), 0.0,
                            _prox_residual(prob, cur.m.density.values, phi))]
    tau = STEP0
    last_rel = math.inf
    for it in range(1, cfg.max_iter + 1):
        for _ in range(MAX_BACKTRACKS):
            c_try = _owned_field(grid, _soft_threshold(cur.m.density.values - tau * phi,
                                                       tau * prob.alpha))
            try:
                trial = _evaluate(prob, DiscreteMeasure.from_density(c_try))
            except ConvergenceError:
                trial = None  # a failed state solve rejects the trial
            if trial is not None and trial.f < cur.f:
                break
            tau *= BACKTRACK
        else:
            break  # no trial lowers F within line-search resolution
        last_rel = (cur.f - trial.f) / max(abs(cur.f), 1e-300)
        cur = trial
        phi = _adjoint_from_state(prob, cur.u.values)
        history.append(HistoryEntry(it, cur.f, _lp(phi, 2.0, grid), tau,
                                    _prox_residual(prob, cur.m.density.values, phi)))
        tau *= STEP_GROW
        if last_rel < F_RTOL:
            break

    r0 = history[0].prox_residual
    stationarity = history[-1].prox_residual / r0 if r0 > 0.0 else 0.0
    slack = max(1e-6, 10.0 * last_rel if math.isfinite(last_rel) else 1e-6)
    return OptimResult(
        mu_star=cur.m,
        u_star=cur.u,
        F_value=cur.f,
        history=history,
        sparsity=float(np.mean(np.abs(cur.m.density.values) < 1e-12)),
        converged=1.0 < prob.p < math.inf and stationarity <= STATIONARITY_TOL,
        stationarity=stationarity,
        slack=slack,
        f_zero=f_zero)


@dataclass
class RegularityReport:
    min_state: float
    max_abs_state: float
    ud_inf: float
    ud_nonnegative: bool
    f_original: float
    f_truncated: float
    slack: float
    improved: bool
    improved_control: DiscreteMeasure | None


def check_state_regularity(prob: ControlProblem, result: OptimResult) -> RegularityReport:
    """Audit a minimizer candidate against the truncation argument.

    Clipping the state into [-||u_d||_inf, ||u_d||_inf] and re-reading
    its datum can only shrink both F terms at a true minimizer, so a
    material F decrease flags the candidate as non-optimal and the
    truncated control is returned as the improvement.  ``result.slack``
    is the F decrease that counts as material.
    """
    grid = prob.grid
    ud_inf = lp_norm(prob.u_d, math.inf)
    upper = constant_field(grid, ud_inf)
    z1, _ = truncate_min(result.u_star, upper, prob.g)
    z, nu = truncate_max(z1, constant_field(grid, -ud_inf), prob.g)
    f_trunc = prob.cost(z.values, nu)
    improved = result.F_value - f_trunc > result.slack
    return RegularityReport(
        min_state=float(result.u_star.values.min()),
        max_abs_state=float(np.abs(result.u_star.values).max()),
        ud_inf=ud_inf,
        ud_nonnegative=bool(np.all(prob.u_d.values >= 0.0)),
        f_original=result.F_value,
        f_truncated=f_trunc,
        slack=result.slack,
        improved=improved,
        improved_control=nu if improved else None)


@dataclass
class SweepRow:
    alpha: float
    misfit: float
    tv: float
    f_value: float
    iterations: int
    sparsity: float
    slack: float


def alpha_sweep(prob: ControlProblem, alphas,
                config: OptimizeConfig | None = None) -> list:
    """Minimize F once per alpha, each run from the zero control.

    F has a minimizer for every alpha > 0, so each level is its own
    problem; no level starts from another's result.
    """
    if prob.p == math.inf:
        raise ValueError("invalid exponent: alpha sweep needs p < inf")
    problems = [replace(prob, alpha=a) for a in alphas]
    cfg = config or OptimizeConfig()
    rows = []
    for level in problems:
        res = optimize(level, cfg)
        rows.append(SweepRow(
            alpha=level.alpha,
            misfit=prob.misfit(res.u_star.values),
            tv=tv_norm(res.mu_star),
            f_value=res.F_value,
            iterations=len(res.history) - 1,
            sparsity=res.sparsity,
            slack=res.slack))
    return rows


@dataclass
class StabilityRow:
    perturbation_norm: float
    f_perturbed_problem: float
    f_cross: float
    excess: float
    bound: float
    within_bound: bool


def stability_run(prob: ControlProblem, perturbations,
                  config: OptimizeConfig | None = None) -> list:
    """Re-optimize under perturbed targets and compare against the base run.

    The base problem and each perturbed one (target u_d + delta) are
    optimized from the zero control.  The excess F of the perturbed
    minimizer, measured under the original target against the base run,
    must stay below 2 ||delta||_p plus both slacks.
    """
    cfg = config or OptimizeConfig()
    base = optimize(prob, cfg)
    rows = []
    for delta in perturbations:
        if delta.grid != prob.grid:
            raise ValueError("invalid input: perturbation lives on a different grid")
        pert = replace(prob, u_d=ScalarField(prob.grid,
                                             prob.u_d.values + delta.values))
        res = optimize(pert, cfg)
        f_cross = prob.cost(res.u_star.values, res.mu_star)
        excess = f_cross - base.F_value
        dn = lp_norm(delta, prob.p)
        bound = 2.0 * dn + res.slack + base.slack
        rows.append(StabilityRow(
            perturbation_norm=dn,
            f_perturbed_problem=res.F_value,
            f_cross=f_cross,
            excess=excess,
            bound=bound,
            within_bound=excess <= bound))
    return rows
