"""Dirichlet solvers for -Lap u + g(u) = mu with measure data.

A linear system (-Lap_h + c I) x = b with a constant shift c >= 0 is
solved exactly by the sine transform (``kernels.sine_solve``); one with a
nodal shift d >= 0 by conjugate gradients preconditioned by that solve at
c = mean(d) (``kernels.cg_shifted``).  The sparse-direct reference
that tests compare against lives in ``tests/_oracle.py``.  The semilinear
problem uses damped Newton steps, and one rule accepts a trial point:
its residual is strictly below the iterate's; otherwise the step
halves.  Each trial point is evaluated once, for its residual.  Newton
starts at the Poisson solution, one exact sine-transform solve.  A state
solve allocates one CG workspace (``kernels.cg_shifted``) and passes it
to every shifted solve; the Newton loop writes the stencil,
its trial points and their residuals into the same slots between
solves, so a 3-D solve stops allocating full-grid arrays per step.
A monotone sub- and supersolution iteration is available as an
independent solve mode.
Residuals are always measured in the quadrature-weighted discrete L1
norm, matching the measure-space reading of the right-hand side, and
accepted at the caller's tolerance or at the rounding floor of their own
evaluation (``kernels.rounding_floor``), in every solve mode alike.
Each iteration stops at the first iterate whose residual passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks, kernels
from .grid import Grid, ScalarField, _lp, _owned_field, w11_norm
from .measures import DiscreteMeasure, negate, rasterize, tv_norm
from .nonlinearity import Nonlinearity

DEFAULT_TOL = 1e-10
NEWTON_MAX = 100
ADMISSIBILITY_TOL = 1e-8    # slack for sub/supersolution sign checks


def __getattr__(name):
    # The benchmark reads ``solver.spla`` (perfbench/tracing.py wraps its
    # ``splu`` in traced runs).  scipy is imported only when that name is
    # read, so importing the package never loads it.  It goes with the other
    # perfbench shims when the benchmark is retargeted (ROADMAP item 5).
    if name == "spla":
        import scipy.sparse.linalg as spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    method: str = "newton"
    inner_iterations: int = 0


class ConvergenceError(RuntimeError):
    """Raised when an iteration cap is hit; carries the partial result."""

    def __init__(self, message, report=None, field=None, trace=None):
        super().__init__(message)
        self.report = report
        self.field = field
        self.trace = trace


def _solve_shifted(grid: Grid, diag, rhs, atol_l1: float, work=None):
    """Solve (-Lap_h + diag) x = rhs from x = 0.

    diag is a nodal array (a constant shift is ``kernels.sine_solve``'s);
    ``work`` is the optional CG workspace of ``kernels.cg_shifted``.  Returns
    (x, inner_iterations, residual_l1), the last being the weighted-L1
    norm of the true residual of x that CG computed.
    """
    x, iters, res_l1, converged = kernels.cg_shifted(
        rhs, np.asarray(diag, dtype=np.float64), grid.dim, grid.n,
        atol_l1, maxiter=40 * grid.n + 200, work=work)
    if not converged:
        raise ConvergenceError(
            f"no convergence: cg stalled at weighted-L1 residual {res_l1:.3e}",
            report=SolveReport(iters, res_l1, False, method="cg"))
    return x, iters, res_l1


def _shift(g: Nonlinearity, u: np.ndarray) -> np.ndarray:
    """g'(u) clamped at 0, the shift of the linearized operator; g' < -1e-12 is a ValueError."""
    dg = np.asarray(g.derivative(u))
    if dg.min() < -1e-12:
        raise ValueError("invalid nonlinearity: negative derivative detected during solve")
    return np.maximum(dg, 0.0, out=dg)


def solve_linear(grid: Grid, m: DiscreteMeasure, tol: float = DEFAULT_TOL):
    """Solve -Lap_h u = m on the grid: the state solve with g = 0.

    ``solve_semilinear`` starts at the exact sine-transform solve and
    stops there once its residual passes, so this takes no Newton step.
    Returns (ScalarField, SolveReport); the report residual is the
    weighted-L1 norm of -Lap_h u - rasterize(m).
    """
    return solve_semilinear(grid, Nonlinearity.zero(), m, tol)


def _evaluate(grid: Grid, g: Nonlinearity, rhs: np.ndarray, u: np.ndarray, lap, res) -> float:
    """Write the residual -Lap_h u + g(u) - rhs into res; return its weighted-L1 norm.

    lap is scratch.
    """
    kernels.neg_laplacian(u, grid.dim, grid.n, out=lap)
    halves = kernels.grid_plan(grid.dim, grid.n).halves
    if halves:
        halves(_residual, lap, np.asarray(g(u)), rhs, res)
        return float(lap.sum()) * grid.cell_volume
    np.subtract(np.add(lap, np.asarray(g(u)), out=res), rhs, out=res)
    return float(np.abs(res, out=lap).sum()) * grid.cell_volume


def _residual(lap, gu, rhs, res):  # _evaluate's residual, with |res| into lap
    np.abs(np.subtract(np.add(lap, gu, out=res), rhs, out=res), out=lap)


def solve_semilinear(grid: Grid, g: Nonlinearity, m: DiscreteMeasure,
                     tol: float = DEFAULT_TOL):
    """Solve -Lap_h u + g(u) = m by damped Newton iteration.

    The initial iterate is the linear solution u0 of -Lap_h u0 = m, for
    signed and nonnegative data alike: one exact sine-transform solve, bit
    for bit one CG iteration at shift 0.  It needs no clipping: -Lap_h is an
    M-matrix, so |u0| <= v node by node where -Lap_h v = |m|, and the
    semilinear solution obeys the same bound.  ``_evaluate`` gives the
    residual and its norm at each trial point, evaluating g once there, and
    the loop carries them from the accepted trial.  One rule accepts a
    trial u - tau e: its weighted-L1 residual is strictly below the
    iterate's; otherwise tau halves, down to 1e-12.  For differentiable g
    the Newton step gives R(u - tau e) = (1 - tau) R(u) + o(tau) for the
    residual R, so some halving lowers its norm.  Newton stops at the first
    iterate whose residual passes tol or the rounding floor of rhs and u0
    (sum |g(u)| is at most sum |rhs| by absorption), so tol is the residual
    the state reaches.  An iterate at which g is not finite ends the solve
    with a ConvergenceError that carries it, as does a step that no trial
    can accept.

    One CG workspace serves every shifted solve; between solves its
    slots hold the trial point, its residual and the stencil's output,
    so the iterate and its residual are the only other full-grid arrays
    the loop keeps; the returned field wraps the iterate without a copy.
    """
    tol = checks.real(tol, "tol", positive=True)
    rhs = rasterize(m, grid).values
    work = np.empty((6, rhs.size))
    cand, cand_res, lap = work[:3]
    u = kernels.sine_solve(rhs, kernels.inverse_eigenvalues(grid.dim, grid.n, 0.0),
                           grid.dim, grid.n, np.empty_like(rhs), cand, lap)
    accept = max(tol, kernels.rounding_floor(rhs, u, rhs, grid.dim, grid.n, out=lap))

    res_vec = np.empty_like(rhs)
    residual = _evaluate(grid, g, rhs, u, lap, res_vec)
    newton_its = inner_total = 0
    for _ in range(NEWTON_MAX):
        if not math.isfinite(residual):  # -Lap_h u - rhs is finite, so g is not
            report = SolveReport(newton_its, math.nan, False, method="newton+cg",
                                 inner_iterations=inner_total)
            raise ConvergenceError(f"no convergence: g returned a non-finite value after "
                                   f"{newton_its} newton iterations", report=report,
                                   field=ScalarField(grid, u))
        if residual <= accept:
            break
        try:  # CG is odd in its right-hand side, so e = A^-1 res is minus the Newton step
            e, inner, _ = _solve_shifted(grid, _shift(g, u), res_vec, atol_l1=tol * 1e-2,
                                         work=work)
        except ConvergenceError as exc:
            exc.field = ScalarField(grid, u)
            raise
        inner_total += inner
        tau = 1.0
        while tau >= 1e-12:
            np.subtract(u, np.multiply(e, tau, out=cand), out=cand)
            cand_residual = _evaluate(grid, g, rhs, cand, lap, cand_res)
            if cand_residual < residual:
                break
            tau *= 0.5
        else:
            break  # no step lowers the residual
        np.copyto(u, cand)
        residual = cand_residual
        newton_its += 1
        if residual > accept:  # only a further step reads the residual vector
            np.copyto(res_vec, cand_res)

    report = SolveReport(newton_its, residual, residual <= accept,
                         method="newton+cg", inner_iterations=inner_total)
    out = _owned_field(grid, u)
    if not report.converged:
        raise ConvergenceError(
            f"no convergence: newton residual {residual:.3e} > {accept:.1e} "
            f"after {newton_its} iterations", report=report, field=out)
    return out, report


def solve_by_sub_supersolution(grid: Grid, g: Nonlinearity, m: DiscreteMeasure,
                               lower: ScalarField, upper: ScalarField,
                               tol: float = DEFAULT_TOL, max_iter: int = 20000):
    """Monotone iteration between an ordered sub/supersolution pair.

    Iterates u_{k+1} = (-Lap_h + lam I)^{-1}(rhs + lam u_k - g(u_k))
    from the supersolution with lam >= max g' on the bracket, each an
    exact sine-transform solve; iterates decrease pointwise and stay
    above the subsolution.  g is evaluated once at each bound and once
    per iterate.
    """
    tol = checks.real(tol, "tol", positive=True)
    max_iter = checks.count(max_iter, "max_iter")
    rhs = rasterize(m, grid).values
    lo, hi = lower.values, upper.values
    if np.any(lo > hi + 1e-12):
        raise ValueError("invalid bracket: lower exceeds upper somewhere")
    res_lo = kernels.neg_laplacian(lo, grid.dim, grid.n) + np.asarray(g(lo)) - rhs
    if np.any(res_lo > ADMISSIBILITY_TOL):
        raise ValueError("invalid bracket: lower bound is not a subsolution")
    gu = np.asarray(g(hi))
    res_hi = kernels.neg_laplacian(hi, grid.dim, grid.n) + gu - rhs
    if np.any(res_hi < -ADMISSIBILITY_TOL):
        raise ValueError("invalid bracket: upper bound is not a supersolution")
    lam = g.max_derivative(float(lo.min()), float(hi.max()))

    inv_eig = kernels.inverse_eigenvalues(grid.dim, grid.n, lam)
    mid, tmp = np.empty((2, rhs.size))
    u = hi.copy()
    for it in range(1, max_iter + 1):
        target = rhs + lam * u - gu
        nxt = kernels.sine_solve(target, inv_eig, grid.dim, grid.n, np.empty_like(u), mid, tmp)
        if np.any(nxt > u + 1e-10):
            raise ConvergenceError("monotone iteration failed to decrease",
                                   field=ScalarField(grid, nxt))
        if np.any(nxt < lo - 1e-10):
            raise ConvergenceError("monotone iteration left the bracket",
                                   field=ScalarField(grid, nxt))
        u = nxt
        gu = np.asarray(g(u))
        residual = _lp(kernels.neg_laplacian(u, grid.dim, grid.n) + gu - rhs, 1.0, grid)
        accept = max(tol, kernels.rounding_floor(rhs, u, gu, grid.dim, grid.n, out=tmp))
        if residual <= accept:
            break
    report = SolveReport(it, residual, residual <= accept, method="monotone")
    if not report.converged:
        raise ConvergenceError(f"no convergence: monotone iteration residual {residual:.3e}",
                               report=report, field=ScalarField(grid, u))
    return ScalarField(grid, u), report


def residual_measure(grid: Grid, g: Nonlinearity, u: ScalarField) -> DiscreteMeasure:
    """The measure datum -Lap_h u + g(u) that u solves exactly."""
    vals = kernels.neg_laplacian(u.values, grid.dim, grid.n) + np.asarray(g(u.values))
    return DiscreteMeasure.from_density(ScalarField(grid, vals))


# ---------------------------------------------------------------------------
# truncation against supersolutions
# ---------------------------------------------------------------------------

def truncate_min(u: ScalarField, w: ScalarField, g: Nonlinearity):
    """Truncate u from above by a nonnegative supersolution w.

    Returns (z, residual_measure(z)) with z = min(u, w) pointwise.  The
    total variation of the new datum never exceeds that of u's datum,
    which is what makes the truncation admissible in the control loop.
    """
    grid = u.grid
    if grid != w.grid:
        raise ValueError("invalid supersolution: grids differ")
    if np.any(w.values < -1e-12):
        raise ValueError("invalid supersolution: w must be nonnegative")
    res_w = kernels.neg_laplacian(w.values, grid.dim, grid.n) + np.asarray(g(w.values))
    if np.any(res_w < -ADMISSIBILITY_TOL):
        raise ValueError("invalid supersolution: -Lap w + g(w) must be >= 0")
    z = ScalarField(grid, np.minimum(u.values, w.values))
    return z, residual_measure(grid, g, z)


def truncate_max(u: ScalarField, w: ScalarField, g: Nonlinearity):
    """Mirror truncation from below by a nonpositive subsolution w.

    Implemented exactly as the reflection of truncate_min through
    t -> -t with the reflected nonlinearity t -> -g(-t); truncate_min
    only evaluates its g, so a plain function serves.
    """
    z_neg, m_neg = truncate_min(ScalarField(u.grid, -u.values),
                                ScalarField(w.grid, -w.values), lambda t: -g(-t))
    return ScalarField(u.grid, -z_neg.values), negate(m_neg)


@dataclass
class TruncationCheck:
    lhs: float
    rhs: float
    slack: float
    excess_nodes: int


def lemma_truncation_check(u1: ScalarField, u2: ScalarField,
                           a1: ScalarField, a2: ScalarField) -> TruncationCheck:
    """Evaluate the interior truncation inequality on one instance.

    With u = min(u1, u2) and a = a1 where u1 <= u2, a2 elsewhere,
    compares lhs = ||-Lap u + a||_L1 against
    rhs = ||-Lap u1 + a1||_L1 + integral over {u1 > u2} of (a2 - a1).
    Requires -Lap u2 + a2 >= 0 (up to admissibility slack).
    """
    grid = u1.grid
    if not (grid == u2.grid == a1.grid == a2.grid):
        raise ValueError("invalid input: all fields must share one grid")
    super_res = kernels.neg_laplacian(u2.values, grid.dim, grid.n) + a2.values
    if np.any(super_res < -ADMISSIBILITY_TOL):
        raise ValueError("invalid supersolution: -Lap u2 + a2 must be >= 0")
    hd = grid.cell_volume
    excess = u1.values > u2.values
    z = np.minimum(u1.values, u2.values)
    a = np.where(excess, a2.values, a1.values)
    lhs = float(np.abs(kernels.neg_laplacian(z, grid.dim, grid.n) + a).sum()) * hd
    rhs = (float(np.abs(kernels.neg_laplacian(u1.values, grid.dim, grid.n) + a1.values).sum()) * hd
           + float((a2.values[excess] - a1.values[excess]).sum()) * hd)
    return TruncationCheck(lhs, rhs, rhs - lhs, int(excess.sum()))


# ---------------------------------------------------------------------------
# reduced-limit driver
# ---------------------------------------------------------------------------

@dataclass
class LevelRecord:
    level: int
    n: int
    h: float
    tv_mu: float
    u_l1: float
    g_u_l1: float
    w11_tv_ratio: float


@dataclass
class ReducedLimitResult:
    mu_sharp: DiscreteMeasure
    trace: list
    states: list


def reduced_limit(grids: list, measures: list, g: Nonlinearity) -> ReducedLimitResult:
    """Solve along a coupled grid/measure refinement schedule.

    Level k solves -Lap u_k + g(u_k) = measures[k] on grids[k].  The
    returned mu_sharp is the residual measure of the finest solution, and
    states holds u_k for every level.  The trace also carries the
    empirical ratio w11(u)/tv(mu), for which no sharp constant is asserted.
    A ConvergenceError leaves the levels solved before it in its ``trace``.
    """
    if not grids or len(measures) != len(grids):
        raise ValueError("invalid config: need a nonempty grid schedule and one measure per grid")
    if any(b.n <= a.n for a, b in zip(grids, grids[1:])) or \
       any(gr.dim != grids[0].dim for gr in grids):
        raise ValueError("invalid config: grids must refine in one dimension")
    trace = []
    states = []
    for k, (grid, mu) in enumerate(zip(grids, measures)):
        try:
            u, _ = solve_semilinear(grid, g, mu)
        except ConvergenceError as exc:
            exc.trace = trace
            raise
        states.append(u)
        tv_mu = tv_norm(mu)
        trace.append(LevelRecord(
            level=k, n=grid.n, h=grid.h, tv_mu=tv_mu,
            u_l1=_lp(u.values, 1.0, grid),
            g_u_l1=_lp(np.asarray(g(u.values)), 1.0, grid),
            w11_tv_ratio=w11_norm(u) / tv_mu if tv_mu > 0.0 else math.nan))
    return ReducedLimitResult(mu_sharp=residual_measure(grids[-1], g, u),
                              trace=trace, states=states)
