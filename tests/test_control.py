import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measopt.control
from measopt import (ControlProblem, DiscreteMeasure, Nonlinearity,
                     OptimizeConfig, ScalarField, adjoint_gradient, alpha_sweep,
                     build_grid, check_state_regularity, constant_field,
                     evaluate_cost, lp_norm, named_field, optimize,
                     solve_linear, solve_semilinear, tv_norm, zeros_field)
from measopt.control import F_RTOL, OptimResult, stability_run
from measopt.solver import residual_measure


def _problem(grid, p=2.0, alpha=0.5, g=None, u_d=None):
    return ControlProblem(grid=grid, g=g or Nonlinearity.power(2.0),
                          u_d=u_d if u_d is not None else zeros_field(grid),
                          p=p, alpha=alpha)


def _density_measure(grid, values):
    return DiscreteMeasure.from_density(ScalarField(grid, values))


def test_problem_validation():
    grid = build_grid(2, 5)
    with pytest.raises(ValueError):
        _problem(grid, p=0.5)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be a finite real > 0"):
            _problem(grid, alpha=alpha)
    with pytest.raises(ValueError):
        _problem(grid, u_d=zeros_field(build_grid(2, 7)))
    assert _problem(grid, p=math.inf).p == math.inf


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------

def test_evaluate_cost_zero_control():
    grid = build_grid(2, 9)
    u_d = named_field(grid, "sines", {"amplitude": 0.4})
    prob = _problem(grid, u_d=u_d)
    assert evaluate_cost(prob, DiscreteMeasure.zero(2)) == pytest.approx(
        lp_norm(u_d, 2.0), rel=1e-12)


def test_evaluate_cost_planted_solution():
    # target equal to the state of m leaves only the tv term
    rng = np.random.default_rng(3)
    grid = build_grid(2, 9)
    m = _density_measure(grid, rng.uniform(0.0, 2.0, grid.total_interior))
    u, _ = solve_semilinear(grid, Nonlinearity.power(2.0), m)
    prob = _problem(grid, alpha=0.25, u_d=u)
    assert evaluate_cost(prob, m) == pytest.approx(0.25 * tv_norm(m), rel=1e-9)
    prob2 = _problem(grid, alpha=0.5, u_d=u)
    assert evaluate_cost(prob2, m) - evaluate_cost(prob, m) == pytest.approx(
        0.25 * tv_norm(m), rel=1e-9)


def test_solver_failure_reaches_every_caller_unchanged(monkeypatch):
    import measopt.control as control
    from measopt.solver import ConvergenceError

    report = object()
    raised = []

    def boom(*args, **kwargs):
        raised.append(ConvergenceError("no convergence: forced", report=report))
        raise raised[-1]

    grid = build_grid(2, 5)

    def assert_passed_through(call):
        with pytest.raises(ConvergenceError) as err:
            call()
        assert err.value is raised[-1]
        assert err.value.report is report

    # the state solve fails
    with monkeypatch.context() as patch:
        patch.setattr(control, "solve_semilinear", boom)
        for call in (lambda: evaluate_cost(_problem(grid), DiscreteMeasure.zero(2)),
                     lambda: adjoint_gradient(_problem(grid), DiscreteMeasure.zero(2)),
                     lambda: optimize(_problem(grid))):
            assert_passed_through(call)
    # the state solve succeeds and the adjoint solve fails
    with monkeypatch.context() as patch:
        patch.setattr(control, "_solve_shifted", boom)
        for call in (lambda: adjoint_gradient(_problem(grid), DiscreteMeasure.zero(2)),
                     lambda: optimize(_problem(grid))):
            assert_passed_through(call)


def test_optimize_backtracks_past_failed_trial_solve(monkeypatch):
    import measopt.control as control
    from measopt.solver import ConvergenceError

    real = control.solve_semilinear
    calls = []

    def fails_on_first_trial(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # call 1 is the start state, call 2 the first trial
            raise ConvergenceError("no convergence: forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(control, "solve_semilinear", fails_on_first_trial)
    grid = build_grid(2, 9)
    prob = _problem(grid, alpha=0.05, u_d=named_field(grid, "sines", {"amplitude": 0.5}))
    res = optimize(prob, OptimizeConfig(max_iter=3))
    assert len(res.history) >= 2
    assert res.history[1].step <= 0.5
    assert res.F_value < res.f_zero


# ---------------------------------------------------------------------------
# adjoint gradient
# ---------------------------------------------------------------------------

def test_gradient_vanishes_at_perfect_fit():
    grid = build_grid(2, 9)
    rng = np.random.default_rng(5)
    m = _density_measure(grid, rng.uniform(0.0, 1.0, grid.total_interior))
    u, _ = solve_semilinear(grid, Nonlinearity.power(2.0), m)
    prob = _problem(grid, u_d=u)
    phi = adjoint_gradient(prob, m)
    assert float(np.abs(phi.values).max()) <= 1e-9


def test_gradient_linear_case_matches_chained_solves():
    # g = 0, p = 2: the gradient is two nested Poisson solves
    grid = build_grid(2, 11)
    rng = np.random.default_rng(7)
    m = _density_measure(grid, rng.standard_normal(grid.total_interior))
    u_d = named_field(grid, "sines", {"amplitude": 1.0})
    prob = _problem(grid, g=Nonlinearity.zero(), u_d=u_d)
    phi = adjoint_gradient(prob, m)

    u, _ = solve_linear(grid, m)
    mis = u.values - u_d.values
    misfit = lp_norm(ScalarField(grid, mis), 2.0)
    ref, _ = solve_linear(grid, _density_measure(grid, mis / misfit))
    np.testing.assert_allclose(phi.values, ref.values, atol=1e-9)


def _check_gradient_against_finite_differences(dim, n, p, nonlin, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(dim, n)
    prob = _problem(grid, p=p, u_d=named_field(grid, "sines", {"amplitude": 0.5}),
                    g=nonlin)
    c = rng.uniform(0.0, 0.5, grid.total_interior)
    phi = adjoint_gradient(prob, _density_measure(grid, c))

    direction = rng.standard_normal(grid.total_interior)
    direction /= float(np.abs(direction).max())
    eps = 1e-6

    def misfit(values):
        u, _ = solve_semilinear(grid, nonlin, _density_measure(grid, values))
        return prob.misfit(u.values)

    fd = (misfit(c + eps * direction) - misfit(c - eps * direction)) / (2.0 * eps)
    pairing = float(phi.values @ direction) * grid.cell_volume
    assert fd == pytest.approx(pairing, rel=1e-5)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_gradient_matches_finite_differences(p):
    _check_gradient_against_finite_differences(2, 17, p, Nonlinearity.power(2.0), 11)


@settings(max_examples=18, deadline=None, derandomize=True)
@given(dim=st.integers(1, 2), n=st.integers(4, 17), p=st.floats(1.5, 3.0),
       g=st.one_of(st.tuples(st.just("power"), st.floats(1.0, 3.0)),
                   st.tuples(st.just("linear"), st.floats(0.0, 5.0))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_matches_finite_differences_random(dim, n, p, g, seed):
    kind, value = g
    nonlin = Nonlinearity.power(value) if kind == "power" else Nonlinearity.linear(value)
    _check_gradient_against_finite_differences(dim, n, p, nonlin, seed)


def test_huber_width_of_an_unbounded_l1_target_holds_under_refinement():
    # |x - x0|^-1 is in L^1 but not L^inf in 2-D: its max doubles with each
    # refinement, its L^1 norm settles
    widths = []
    for n in (31, 63, 127):
        grid = build_grid(2, n)
        r = np.sqrt(((grid.node_coords() - np.array([0.3, 0.6])) ** 2).sum(axis=1))
        target = ScalarField(grid, 1.0 / r)
        widths.append(measopt.control._smoothing_width(_problem(grid, p=1.0, u_d=target)))
        assert widths[-1] == 1e-3 * lp_norm(target, 1.0)
    assert max(widths) < 1.05 * min(widths)


# ---------------------------------------------------------------------------
# proximal map
# ---------------------------------------------------------------------------

def test_soft_threshold_identity_and_full_shrinkage():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(9)
    np.testing.assert_array_equal(measopt.control._soft_threshold(v, 0.0), v)
    np.testing.assert_array_equal(measopt.control._soft_threshold(v, 10.0), 0.0)


def test_soft_threshold_example():
    # density values cut by the level itself
    out = measopt.control._soft_threshold(np.array([3.0, -1.0]), 2.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_soft_threshold_is_shrinkage():
    rng = np.random.default_rng(17)
    v = rng.standard_normal(25)
    out = measopt.control._soft_threshold(v, 0.3)
    assert np.all(np.abs(out) <= np.abs(v))
    assert np.all(out * v >= 0.0)


# ---------------------------------------------------------------------------
# proximal gradient loop
# ---------------------------------------------------------------------------

def test_solved_and_optimized_fields_are_read_only_and_alias_no_input():
    # the solver and the optimizer wrap arrays they made without copying
    # them; the fields they hand out must still be frozen and their own
    grid = build_grid(2, 9)
    rng = np.random.default_rng(41)
    density = ScalarField(grid, rng.uniform(-2.0, 2.0, grid.total_interior))
    u_d = named_field(grid, "sines", {"amplitude": 0.5})
    held = [density.values, u_d.values]
    g = Nonlinearity.power(3.0)
    u, _ = solve_semilinear(grid, g, _density_measure(grid, density.values))
    again, _ = solve_semilinear(grid, g, DiscreteMeasure.from_density(density))
    res = optimize(_problem(grid, alpha=0.05, g=g, u_d=u_d), OptimizeConfig(max_iter=5))
    assert len(res.history) > 1
    out = [u.values, again.values, res.u_star.values, res.mu_star.density.values]
    for k, values in enumerate(out):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0
        for other in held + out[:k]:
            assert not np.shares_memory(values, other)

def test_optimize_zero_target_returns_zero_control():
    grid = build_grid(2, 9)
    prob = _problem(grid)
    res = optimize(prob, OptimizeConfig(max_iter=10))
    assert res.F_value == 0.0
    assert res.converged
    assert res.sparsity == 1.0
    assert tv_norm(res.mu_star) == 0.0


def test_optimize_huge_alpha_stalls_at_zero():
    grid = build_grid(2, 9)
    u_d = named_field(grid, "sines", {"amplitude": 0.3})
    prob = _problem(grid, alpha=100.0, u_d=u_d)
    res = optimize(prob, OptimizeConfig(max_iter=20))
    assert tv_norm(res.mu_star) == 0.0
    assert res.F_value == pytest.approx(res.f_zero, rel=1e-12)
    assert res.converged


def test_optimize_stopped_by_f_rtol_has_not_converged():
    # the first criterion-10 level stops on F_RTOL after 22 of 150
    # iterations, with r / r(0) near 1e-4: F has stalled short of a
    # stationary point.  On n = 9 the same problem reaches 1e-6.
    for n, converged in ((31, False), (9, True)):
        grid = build_grid(2, n)
        u_d = named_field(grid, "sines", {"amplitude": 0.1})
        res = optimize(_problem(grid, alpha=0.1, u_d=u_d), OptimizeConfig(max_iter=150))
        f = [e.f_value for e in res.history]
        assert len(f) - 1 < 150 and (f[-2] - f[-1]) / f[-2] < F_RTOL
        r = [e.prox_residual for e in res.history]
        assert res.stationarity == r[-1] / r[0]
        assert res.converged is converged
        assert (res.stationarity <= 1e-6) is converged
        if not converged:
            assert 1e-5 < res.stationarity < 1e-3


@pytest.mark.parametrize("p,alpha", [(math.inf, 0.003125), (math.inf, 0.0125),
                                     (1.0, 0.05), (1.0, 0.0125)])
def test_optimize_with_a_smoothed_misfit_never_converges(p, alpha):
    # each run stops early, on F_RTOL or a failed line search, at an r of
    # the smoothed misfit, which says nothing about the true F
    grid = build_grid(2, 9)
    u_d = named_field(grid, "sines", {"amplitude": 0.1})
    res = optimize(_problem(grid, p=p, alpha=alpha, u_d=u_d), OptimizeConfig(max_iter=150))
    assert len(res.history) - 1 < 150
    assert not res.converged


def test_optimize_contracts():
    grid = build_grid(2, 13)
    u_d = named_field(grid, "sines", {"amplitude": 1.0})
    prob = _problem(grid, alpha=0.05, u_d=u_d)
    res = optimize(prob, OptimizeConfig(max_iter=60))
    f_vals = [e.f_value for e in res.history]
    assert all(b < a for a, b in zip(f_vals, f_vals[1:]))
    assert res.F_value <= res.f_zero + 1e-12
    assert tv_norm(res.mu_star) <= res.f_zero / prob.alpha + 1e-9
    assert res.F_value == evaluate_cost(prob, res.mu_star)


def test_optimize_f_value_is_evaluate_cost():
    # optimize and evaluate_cost share ControlProblem.cost, so the reported
    # F must be the recomputed F to the last bit, for every misfit exponent
    grid = build_grid(2, 9)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u_d = named_field(grid, "sines", {"amplitude": float(rng.uniform(0.2, 1.0))})
        for p in (1.0, 2.0, 3.0, math.inf):
            prob = _problem(grid, p=p, alpha=0.05, u_d=u_d)
            res = optimize(prob, OptimizeConfig(max_iter=15))
            assert res.F_value == evaluate_cost(prob, res.mu_star), (seed, p)


def test_optimize_config_fields():
    # the line search is fixed; out-of-range and mistyped values are
    # rejected through the CLI tests
    assert [f.name for f in dataclasses.fields(OptimizeConfig)] == ["max_iter"]
    assert OptimizeConfig(max_iter=np.int64(3)).max_iter == 3


def test_optimize_recovers_planted_sparse_control():
    grid = build_grid(2, 17)
    spots = [((0.25, 0.25), 0.12), ((0.75, 0.5), 0.08)]
    c0 = np.zeros(grid.total_interior)
    for loc, w in spots:
        c0[grid.flat_index(grid.nearest_index(loc))] = w / grid.cell_volume
    m0 = _density_measure(grid, c0)
    g = Nonlinearity.power(2.0)
    u_d, _ = solve_semilinear(grid, g, m0)
    prob = _problem(grid, alpha=0.02, u_d=u_d, g=g)
    res = optimize(prob, OptimizeConfig(max_iter=150))
    f_planted = evaluate_cost(prob, m0)
    assert res.F_value <= res.f_zero
    assert res.F_value <= 1.5 * f_planted
    assert res.sparsity > 0.5
    assert tv_norm(res.mu_star) <= tv_norm(m0) + 0.05


# ---------------------------------------------------------------------------
# regularity audit
# ---------------------------------------------------------------------------

def _result_for(prob, m, tol=1e-10):
    u, _ = solve_semilinear(prob.grid, prob.g, m, tol=tol)
    f = evaluate_cost(prob, m)
    return OptimResult(mu_star=m, u_star=u, F_value=f, history=[],
                       sparsity=0.0, converged=True, stationarity=0.0, slack=1e-6,
                       f_zero=lp_norm(prob.u_d, prob.p))


def test_regularity_zero_target_is_exact():
    grid = build_grid(2, 9)
    prob = _problem(grid)
    res = optimize(prob, OptimizeConfig(max_iter=5))
    rep = check_state_regularity(prob, res)
    assert rep.ud_inf == 0.0
    assert rep.f_truncated == rep.f_original == 0.0
    assert not rep.improved


def test_regularity_truncation_never_improves_much():
    rng = np.random.default_rng(19)
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)
    for _ in range(20):
        u_d = ScalarField(grid, rng.uniform(0.0, 0.8, grid.total_interior))
        prob = _problem(grid, alpha=0.1, u_d=u_d, g=g)
        m = _density_measure(grid, rng.uniform(-1.0, 3.0, grid.total_interior))
        res = _result_for(prob, m)
        rep = check_state_regularity(prob, dataclasses.replace(res, slack=1e-9))
        assert rep.f_truncated <= rep.f_original + 1e-9


def test_regularity_flags_oversized_state():
    # a state far above ||u_d||_inf must be improvable by truncation
    grid = build_grid(2, 11)
    g = Nonlinearity.power(2.0)
    u_d = constant_field(grid, 0.05)
    prob = _problem(grid, alpha=0.01, u_d=u_d, g=g)
    m = _density_measure(grid, np.full(grid.total_interior, 30.0))
    res = _result_for(prob, m)
    rep = check_state_regularity(prob, dataclasses.replace(res, slack=1e-6))
    assert rep.max_abs_state > rep.ud_inf
    assert rep.improved
    assert rep.improved_control is not None
    assert evaluate_cost(prob, rep.improved_control) == pytest.approx(
        rep.f_truncated, abs=1e-6)


# ---------------------------------------------------------------------------
# alpha sweeps
# ---------------------------------------------------------------------------

def test_alpha_sweep_zero_target():
    grid = build_grid(2, 7)
    prob = _problem(grid)
    rows = alpha_sweep(prob, [0.4, 0.2], OptimizeConfig(max_iter=5))
    assert [r.alpha for r in rows] == [0.4, 0.2]
    for row in rows:
        assert row.f_value == 0.0
        assert row.tv == 0.0


def test_alpha_sweep_misfit_monotone():
    grid = build_grid(2, 11)
    u_d = named_field(grid, "sines", {"amplitude": 0.5})
    prob = _problem(grid, u_d=u_d)
    alphas = [0.1 * 2.0 ** (-k) for k in range(4)]
    rows = alpha_sweep(prob, alphas, OptimizeConfig(max_iter=60))
    for a, b in zip(rows, rows[1:]):
        assert b.misfit <= a.misfit * 1.05
    assert rows[-1].misfit < rows[0].misfit


def test_alpha_sweep_rows_are_the_same_on_one_or_two_processes(monkeypatch):
    grid = build_grid(2, 11)
    prob = _problem(grid, u_d=named_field(grid, "sines", {"amplitude": 0.5}))
    alphas, cfg = [0.1, 0.05, 0.025], OptimizeConfig(max_iter=20)
    two = alpha_sweep(prob, alphas, cfg)
    monkeypatch.setattr(measopt.kernels, "_cpu_count", lambda: 1)
    assert alpha_sweep(prob, alphas, cfg) == two


def test_adjoint_rejects_a_negative_derivative():
    # g = 0 passes every state solve with no Newton step, so only the adjoint reads g'
    grid = build_grid(2, 9)
    g = Nonlinearity.from_callable(lambda t: 0.0 * np.asarray(t),
                                   deriv=lambda t: -np.ones_like(t))
    prob = _problem(grid, p=2.0, alpha=0.05, g=g,
                    u_d=named_field(grid, "sines", {"amplitude": 0.5}))
    zero = DiscreteMeasure.from_density(zeros_field(grid))
    for run in (lambda: adjoint_gradient(prob, zero),
                lambda: optimize(prob, OptimizeConfig(max_iter=3))):
        with pytest.raises(ValueError, match="invalid nonlinearity: negative derivative"):
            run()


def test_alpha_sweep_validation():
    grid = build_grid(2, 5)
    with pytest.raises(ValueError):
        alpha_sweep(_problem(grid, p=math.inf), [0.1])
    for bad in (-0.2, math.inf):
        with pytest.raises(ValueError, match="alpha must be a finite real > 0"):
            alpha_sweep(_problem(grid), [0.1, bad])


# ---------------------------------------------------------------------------
# stability under target perturbations
# ---------------------------------------------------------------------------

def test_stability_zero_perturbation():
    grid = build_grid(2, 9)
    u_d = named_field(grid, "sines", {"amplitude": 0.4})
    prob = _problem(grid, alpha=0.05, u_d=u_d)
    rows = stability_run(prob, [zeros_field(grid)], OptimizeConfig(max_iter=30))
    assert len(rows) == 1
    assert rows[0].perturbation_norm == 0.0
    assert rows[0].within_bound
    # the rerun from zero on the unperturbed target reproduces the base run
    assert rows[0].excess <= 1e-12
    assert rows[0].f_cross == pytest.approx(rows[0].f_perturbed_problem, rel=1e-12)


def test_stability_shrinking_perturbations():
    rng = np.random.default_rng(23)
    grid = build_grid(2, 9)
    u_d = named_field(grid, "sines", {"amplitude": 0.4})
    prob = _problem(grid, alpha=0.05, u_d=u_d)
    base = ScalarField(grid, rng.standard_normal(grid.total_interior))
    base_scale = lp_norm(base, 2.0)
    deltas = [ScalarField(grid, s / base_scale * base.values)
              for s in (0.1, 0.05, 0.025)]
    rows = stability_run(prob, deltas, OptimizeConfig(max_iter=30))
    norms = [r.perturbation_norm for r in rows]
    assert norms == pytest.approx([0.1, 0.05, 0.025], rel=1e-12)
    for row in rows:
        assert row.within_bound
    bounds = [r.bound for r in rows]
    assert bounds[0] > bounds[1] > bounds[2]


def test_one_optimize_run_per_problem(monkeypatch):
    # every sweep level and every perturbed target is one run from zero,
    # and stability_run adds one base run
    starts = []
    real_optimize = measopt.control.optimize

    def counting(prob, config=None):
        starts.append(prob)
        return real_optimize(prob, config)

    monkeypatch.setattr(measopt.control, "optimize", counting)
    # one process, so every level's run is counted here: a forked child's calls are not seen
    monkeypatch.setattr(measopt.kernels, "_cpu_count", lambda: 1)
    grid = build_grid(2, 7)
    prob = _problem(grid, u_d=named_field(grid, "sines", {"amplitude": 0.2}))
    cfg = OptimizeConfig(max_iter=3)
    alpha_sweep(prob, [0.2, 0.1, 0.05], cfg)
    assert [p.alpha for p in starts] == [0.2, 0.1, 0.05]
    starts.clear()
    stability_run(prob, [zeros_field(grid), constant_field(grid, 0.01)], cfg)
    assert len(starts) == 3


def test_stability_rejects_foreign_grid():
    grid = build_grid(2, 7)
    prob = _problem(grid, u_d=named_field(grid, "sines", {"amplitude": 0.2}))
    with pytest.raises(ValueError):
        stability_run(prob, [zeros_field(build_grid(2, 9))],
                      OptimizeConfig(max_iter=3))
