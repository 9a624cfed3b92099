import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measopt import (ConvergenceError, DiscreteMeasure, Nonlinearity,
                     ScalarField, build_grid, constant_field,
                     lemma_truncation_check, lp_norm, rasterize,
                     reduced_limit, residual_measure, solve_linear,
                     solve_semilinear, truncate_max, truncate_min,
                     tv_norm, zeros_field)
import measopt.kernels
import measopt.solver
from measopt.grid import neg_laplacian_apply
from measopt.solver import _solve_shifted, solve_by_sub_supersolution

from _oracle import _solve_direct, sine_transform, weak_star_pairing


def _const_measure(grid, value):
    return DiscreteMeasure.from_density(constant_field(grid, value))


def _random_signed_measure(rng, grid, scale=1.0):
    dens = ScalarField(grid, scale * rng.standard_normal(grid.total_interior))
    atoms = tuple((tuple(rng.uniform(0.1, 0.9, grid.dim)), scale * rng.normal())
                  for _ in range(2))
    return DiscreteMeasure(grid.dim, atoms=atoms, density=dens)


def _energy(grid, g, rhs, u):
    hd = grid.cell_volume
    lap = neg_laplacian_apply(ScalarField(grid, u)).values
    return (0.5 * float(u @ lap) * hd + float(np.asarray(g.primitive(u)).sum()) * hd
            - float(rhs @ u) * hd)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def test_solve_linear_quadratic_exact():
    g = build_grid(1, 3)
    u, report = solve_linear(g, _const_measure(g, 1.0))
    np.testing.assert_allclose(u.values, [0.09375, 0.125, 0.09375], atol=1e-13)
    assert report.converged
    assert report.method == "newton+cg" and report.iterations == 0


def test_solve_linear_zero_measure():
    g = build_grid(2, 7)
    u, _ = solve_linear(g, DiscreteMeasure.zero(2))
    np.testing.assert_array_equal(u.values, 0.0)


def test_solve_linear_second_order_convergence():
    errs = {}
    for n in (15, 31):
        g = build_grid(2, n)
        coords = g.node_coords()
        exact = np.sin(math.pi * coords[:, 0]) * np.sin(math.pi * coords[:, 1])
        rhs = 2.0 * math.pi ** 2 * exact
        u, _ = solve_linear(g, DiscreteMeasure.from_density(ScalarField(g, rhs)))
        errs[n] = float(np.abs(u.values - exact).max())
    assert errs[15] / errs[31] >= 3.5


def test_solve_linear_cg_path_matches_sparse_direct():
    # a large 2-D grid: 105^2 = 11025 interior nodes
    g = build_grid(2, 105)
    rng = np.random.default_rng(43)
    dens = ScalarField(g, rng.standard_normal(g.total_interior))
    u, report = solve_linear(g, DiscreteMeasure.from_density(dens))
    assert report.method == "newton+cg" and report.iterations == 0
    assert report.final_residual <= 1e-10

    ref = _solve_direct(g, 0.0, dens.values)
    # the cg exit test controls the weighted-L1 residual, not sup error
    np.testing.assert_allclose(u.values, ref, atol=1e-7)


_MAX_N = {1: 40, 2: 16, 3: 7}


@st.composite
def _shifted_systems(draw):
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(1, _MAX_N[dim])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["zero", "constant", "random"]))
    top = draw(st.floats(0.0, 1e3))
    if kind == "zero":
        diag = 0.0
    elif kind == "constant":
        diag = top
    else:
        diag = rng.uniform(0.0, top, grid.total_interior)
    rhs = rng.standard_normal(grid.total_interior)
    return grid, diag, rhs


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 31])
def test_sine_transform_is_an_orthonormal_involution(dim, n):
    a = np.random.default_rng(10 * dim + n).standard_normal((n,) * dim)
    t = sine_transform(a)
    assert t.shape == a.shape
    np.testing.assert_allclose(sine_transform(t), a, rtol=0.0, atol=1e-12)
    assert np.linalg.norm(t) == pytest.approx(np.linalg.norm(a), rel=1e-12)
    if dim == 1:
        j = np.arange(1, n + 1)
        ref = [math.sqrt(2.0 / (n + 1)) * float(a @ np.sin(np.pi * j * k / (n + 1)))
               for k in j]
        np.testing.assert_allclose(t, ref, rtol=0.0, atol=1e-12)
    else:
        # separable: each axis transformed exactly once, by the 1-D transform
        vs = np.random.default_rng(n).standard_normal((dim, n))
        outer = functools.reduce(np.multiply.outer, vs)
        ref = functools.reduce(np.multiply.outer, [sine_transform(v) for v in vs])
        np.testing.assert_allclose(sine_transform(outer), ref, rtol=0.0, atol=1e-12)


def _padded_stencil(a, inv_h2):
    """-Lap_h over the zero-padded field: per axis the upper, then the lower neighbour."""
    padded = np.pad(a, 1)
    out = (2.0 * a.ndim) * a
    for ax in range(a.ndim):
        for start in (2, 0):
            idx = [slice(1, -1)] * a.ndim
            idx[ax] = slice(start, start + a.shape[ax])
            out = out - padded[tuple(idx)]
    return out * inv_h2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_stencil_matches_zero_padded_formula_bitwise(dim, n, seed):
    a = np.random.default_rng(seed).standard_normal((n,) * dim)
    expected = _padded_stencil(a, 1.0 / build_grid(dim, n).h ** 2).reshape(-1)
    kernels = measopt.kernels
    assert np.array_equal(kernels.neg_laplacian(a.reshape(-1), dim, n), expected)
    # every 3-D grid cut at row n // 2 of axis 0, its high half on the worker or not: the
    # rows on either side of the cut read their neighbours across it
    for worker in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "SPLIT_MIN", 0)
            mp.setattr(kernels, "_cpu_count", lambda: 2 if worker else 1)
            mp.setattr(kernels, "grid_plan", functools.lru_cache(kernels.grid_plan.__wrapped__))
            assert (kernels.grid_plan(dim, n).two is not None) == (dim == 3)
            assert np.array_equal(kernels.neg_laplacian(a.reshape(-1), dim, n), expected)


def test_cg_applies_the_stencil_only_in_the_true_residual_check(monkeypatch):
    # A p comes from M p = r + beta * M p_old, M = -Lap_h + mean(d) I
    calls = []
    stencil = measopt.kernels.neg_laplacian_numpy

    def counting(*args, **kwargs):
        calls.append(1)
        return stencil(*args, **kwargs)

    monkeypatch.setattr(measopt.kernels, "neg_laplacian_numpy", counting)
    n, h = 15, 1.0 / 16
    x1, x2 = np.meshgrid(np.arange(1, n + 1) * h, np.arange(1, n + 1) * h, indexing="ij")
    diag = (1.0 + 500.0 * np.exp(-((x1 - 0.3) ** 2 + (x2 - 0.6) ** 2) / 0.01)).reshape(-1)
    b = np.random.default_rng(5).standard_normal(n * n)
    x, iters, _, converged = measopt.kernels.cg_shifted(b, diag, 2, n,
                                                        atol_l1=1e-12, maxiter=200)
    assert converged and iters >= 3
    assert len(calls) == 1
    residual = stencil(x, 2, n) + diag * x - b
    assert np.abs(residual).sum() * h * h <= 1e-12

    # a capped run also reaches the stencil once, and reports the true
    # residual of what it returns
    calls.clear()
    x, iters, res_l1, converged = measopt.kernels.cg_shifted(b, diag, 2, n,
                                                             atol_l1=1e-12, maxiter=1)
    assert (iters, converged, len(calls)) == (1, False, 1)
    true_residual = b - (stencil(x, 2, n) + diag * x)
    assert res_l1 == h ** 2 * float(np.abs(true_residual).sum())


def test_solve_linear_applies_the_stencil_once(monkeypatch):
    # the reported residual is the one CG's true-residual check computed
    calls = []
    stencil = measopt.kernels.neg_laplacian_numpy

    def counting(*args, **kwargs):
        calls.append(1)
        return stencil(*args, **kwargs)

    monkeypatch.setattr(measopt.kernels, "neg_laplacian", counting)
    monkeypatch.setattr(measopt.kernels, "neg_laplacian_numpy", counting)
    grid = build_grid(2, 15)
    m = DiscreteMeasure.point((0.3, 0.6), 1.0)
    u, report = solve_linear(grid, m)
    assert len(calls) == 1
    assert report.converged
    residual = neg_laplacian_apply(u).values - rasterize(m, grid).values
    assert report.final_residual == lp_norm(ScalarField(grid, residual), 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_shifted_systems(), st.sampled_from([1e-10, 1e-13, 1e-16]))
def test_solve_shifted_matches_sparse_direct(system, atol):
    # a tolerance below the rounding floor is met at the floor, never raises
    grid, diag, rhs = system
    x, iters, _ = _solve_shifted(grid, diag, rhs, atol_l1=atol)
    if np.ndim(diag) == 0:
        assert iters <= 1  # the sine-transform preconditioner is exact here
    ref = _solve_direct(grid, diag, rhs)
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-9)
    residual = neg_laplacian_apply(ScalarField(grid, x)).values + diag * x - rhs
    floor = measopt.kernels.rounding_floor(rhs, x, diag * x, grid.dim, grid.n, np.empty(x.size))
    assert lp_norm(ScalarField(grid, residual), 1.0) <= max(atol, floor)


@pytest.mark.parametrize("solve", ["linear", "semilinear"])
def test_tolerance_below_the_rounding_floor_is_met_at_the_floor(solve):
    # on 1-D n = 1023 a weighted-L1 residual of 1e-12 is below the rounding
    # error of evaluating it; the semilinear floor bounds sum |g(u)| by
    # sum |rhs| (absorption)
    grid = build_grid(1, 1023)
    m = _random_signed_measure(np.random.default_rng(31), grid)
    rhs = rasterize(m, grid).values
    if solve == "linear":
        u, report = solve_linear(grid, m, tol=1e-12)
        f_bound = 0.0
    else:
        u, report = solve_semilinear(grid, Nonlinearity.power(3.0), m, tol=1e-12)
        f_bound = rhs
    assert report.converged
    assert report.final_residual <= measopt.kernels.rounding_floor(
        rhs, u.values, f_bound, grid.dim, grid.n, np.empty(rhs.size))


# ---------------------------------------------------------------------------
# semilinear solves
# ---------------------------------------------------------------------------

def test_semilinear_zero_g_reduces_to_linear():
    g = build_grid(2, 9)
    rng = np.random.default_rng(3)
    m = _random_signed_measure(rng, g)
    u_lin, _ = solve_linear(g, m)
    u_non, report = solve_semilinear(g, Nonlinearity.zero(), m)
    np.testing.assert_allclose(u_non.values, u_lin.values, atol=1e-12)
    assert report.converged
    assert report.iterations == 0  # u0's residual is below tol * 1e-2: no zero step


def test_semilinear_linear_g_matches_dense_oracle():
    # g(t) = t turns the problem into (A + I) u = rhs
    grid = build_grid(1, 3)
    m = _const_measure(grid, 1.0)
    u, _ = solve_semilinear(grid, Nonlinearity.linear(1.0), m)
    a = 16.0 * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    ref = np.linalg.solve(a + np.eye(3), np.ones(3))
    np.testing.assert_allclose(u.values, ref, atol=1e-12)


def test_absorption_bound_dirac():
    grid = build_grid(2, 31)
    g = Nonlinearity.power(3.0)
    u, report = solve_semilinear(grid, g, DiscreteMeasure.point((0.5, 0.5), 1.0))
    assert report.converged
    assert lp_norm(ScalarField(grid, np.asarray(g(u.values))), 1.0) <= 1.0 + 1e-8


def test_absorption_bound_random_instances():
    rng = np.random.default_rng(7)
    grid = build_grid(2, 17)
    gs = [Nonlinearity.power(1.5), Nonlinearity.power(2.0),
          Nonlinearity.linear(0.8),
          Nonlinearity.table([-1.0, 0.0, 2.0], [-2.0, 0.0, 1.0])]
    for k in range(12):
        m = _random_signed_measure(rng, grid, scale=2.0)
        g = gs[k % len(gs)]
        u, _ = solve_semilinear(grid, g, m)
        gu = lp_norm(ScalarField(grid, np.asarray(g(u.values))), 1.0)
        assert gu <= tv_norm(m) + 1e-8


def test_weak_maximum_principle():
    rng = np.random.default_rng(11)
    grid = build_grid(2, 15)
    for q in (1.5, 3.0):
        dens = ScalarField(grid, rng.uniform(0.0, 3.0, grid.total_interior))
        m = DiscreteMeasure(2, atoms=(((0.3, 0.7), 0.5),), density=dens)
        u, _ = solve_semilinear(grid, Nonlinearity.power(q), m)
        assert float(u.values.min()) >= -1e-12


def test_comparison_principle():
    rng = np.random.default_rng(13)
    grid = build_grid(2, 11)
    g = Nonlinearity.power(2.0)
    d1 = rng.standard_normal(grid.total_interior)
    d2 = d1 + rng.uniform(0.0, 2.0, grid.total_interior)
    u1, _ = solve_semilinear(grid, g, DiscreteMeasure.from_density(ScalarField(grid, d1)))
    u2, _ = solve_semilinear(grid, g, DiscreteMeasure.from_density(ScalarField(grid, d2)))
    assert np.all(u1.values <= u2.values + 1e-10)


def test_state_dominated_by_linear_envelope():
    # |u| stays below the linear solve against |mu|
    rng = np.random.default_rng(17)
    grid = build_grid(2, 13)
    g = Nonlinearity.power(2.0)
    for _ in range(5):
        m = _random_signed_measure(rng, grid)
        u, _ = solve_semilinear(grid, g, m)
        absd = ScalarField(grid, np.abs(rasterize(m, grid).values))
        w, _ = solve_linear(grid, DiscreteMeasure.from_density(absd))
        assert np.all(np.abs(u.values) <= w.values + 1e-10)


def test_energy_never_increases_from_initial_iterate():
    rng = np.random.default_rng(19)
    grid = build_grid(2, 9)
    g = Nonlinearity.power(3.0)
    for lo in (0.0, -4.0):  # nonnegative and signed data
        dens = ScalarField(grid, rng.uniform(lo, 4.0, grid.total_interior))
        m = DiscreteMeasure.from_density(dens)
        rhs = rasterize(m, grid).values
        u0, _ = solve_linear(grid, m)  # the initial iterate for every datum
        u, _ = solve_semilinear(grid, g, m)
        e0 = _energy(grid, g, rhs, u0.values)
        e1 = _energy(grid, g, rhs, u.values)
        assert e1 <= e0 + 1e-10 * (1.0 + abs(e0))


def _count_calls(monkeypatch, method):
    """Record every call of the Nonlinearity method of that name."""
    calls = []
    original = getattr(Nonlinearity, method)

    def counting(self, t):
        calls.append(1)
        return original(self, t)

    monkeypatch.setattr(Nonlinearity, method, counting)
    return calls


def test_semilinear_makes_one_cold_start(monkeypatch):
    # the start is the exact sine-transform solve, not a shifted solve, so
    # whatever the sign of the datum the only shifted solves are one per
    # Newton step, none after the residual passes, and inner_iterations
    # counts their CG iterations alone.  G is never evaluated
    calls = []
    inner = []

    def counting(grid, diag, *args, **kwargs):
        calls.append(diag)
        out = _solve_shifted(grid, diag, *args, **kwargs)
        inner.append(out[1])
        return out

    monkeypatch.setattr(measopt.solver, "_solve_shifted", counting)
    primitive_calls = _count_calls(monkeypatch, "primitive")
    rng = np.random.default_rng(29)
    grid = build_grid(2, 13)
    g = Nonlinearity.power(2.0)
    signed = _random_signed_measure(rng, grid, scale=2.0)
    nonneg = DiscreteMeasure.from_density(
        ScalarField(grid, rng.uniform(0.0, 4.0, grid.total_interior)))
    for m in (signed, nonneg):
        calls.clear()
        inner.clear()
        primitive_calls.clear()
        _, report = solve_semilinear(grid, g, m)
        assert report.converged and report.iterations > 0
        assert all(np.ndim(d) == 1 for d in calls)
        assert len(calls) == report.iterations
        assert report.inner_iterations == sum(inner)
        assert not primitive_calls


def test_newton_stops_at_the_first_passing_iterate(monkeypatch):
    # tol is the residual the state reaches: every iterate before the last
    # fails it, and no step follows the one that passes
    residuals = []
    evaluate = measopt.solver._evaluate

    def recording(*args):
        out = evaluate(*args)
        residuals.append(out)
        return out

    monkeypatch.setattr(measopt.solver, "_evaluate", recording)
    primitive_calls = _count_calls(monkeypatch, "primitive")
    grid = build_grid(2, 31)
    g = Nonlinearity.power(3.0)
    m = DiscreteMeasure.point((0.5, 0.5), 5.0)
    tol = 1e-6
    u, report = solve_semilinear(grid, g, m, tol=tol)
    assert report.converged and len(residuals) == report.iterations + 1
    assert not primitive_calls
    assert all(r > tol for r in residuals[:-1]) and residuals[-1] == report.final_residual
    res_vec = neg_laplacian_apply(u).values + g(u.values) - rasterize(m, grid).values
    residual = grid.cell_volume * float(np.abs(res_vec).sum())
    assert residual <= tol
    assert residual == pytest.approx(report.final_residual, rel=1e-9)
    _, tight = solve_semilinear(grid, g, m, tol=1e-12)
    assert report.iterations < tight.iterations


def test_each_newton_trial_evaluates_g_and_G_once(monkeypatch):
    # g is evaluated once at each trial point and nowhere else, and G
    # nowhere: a full step takes one trial per iteration, and where the
    # line search halves, each halving is one more trial
    g_calls = _count_calls(monkeypatch, "__call__")
    primitive_calls = _count_calls(monkeypatch, "primitive")
    trials = []
    evaluate = measopt.solver._evaluate

    def counting(*args):
        trials.append(1)
        return evaluate(*args)

    monkeypatch.setattr(measopt.solver, "_evaluate", counting)
    full_step = (build_grid(2, 13), Nonlinearity.power(2.0),
                 DiscreteMeasure.point((0.5, 0.5), 1.0))
    halving = (build_grid(1, 9),
               Nonlinearity.table([-1.0, 0.0, 0.1, 10.0], [-1.0, 0.0, 10.0, 10.5]),
               DiscreteMeasure.point((0.5,), 1.0))
    for case in (full_step, halving):
        for calls in (g_calls, primitive_calls, trials):
            calls.clear()
        _, report = solve_semilinear(*case)
        assert report.converged
        assert len(g_calls) == len(trials) >= report.iterations + 1
        assert not primitive_calls
        if case is full_step:
            assert len(trials) == report.iterations + 1
    assert len(trials) > report.iterations + 1  # the table case halved


# a steep table segment just right of the origin, which the state near
# the atom crosses
KINKED_TABLE = ([-10.0, 0.0, 0.13, 10.13], [-0.5, 0.0, 130.0, 131.2])


def test_newton_crosses_a_steep_table_kink():
    grid = build_grid(1, 5)
    g = Nonlinearity.table(*KINKED_TABLE)
    _, report = solve_semilinear(grid, g, DiscreteMeasure.point((0.86,), 6.3))
    assert report.converged and report.final_residual <= 1e-10
    assert report.iterations < 20


@st.composite
def _kinked_table_cases(draw):
    """A monotone table with one steep segment, and one or two atoms in 1-D."""
    lengths = [draw(st.floats(0.01, 10.0)) for _ in range(3)]
    slopes = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    slopes[draw(st.integers(0, 2))] = draw(st.floats(10.0, 1000.0))
    ts = np.array([-lengths[0], 0.0, lengths[1], lengths[1] + lengths[2]])
    gs = np.array([-slopes[0] * lengths[0], 0.0, slopes[1] * lengths[1],
                   slopes[1] * lengths[1] + slopes[2] * lengths[2]])
    if draw(st.booleans()):  # the mirror image t -> -t, g -> -g
        ts, gs = -ts[::-1], -gs[::-1]
    atoms = draw(st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(-100.0, 100.0)),
                          min_size=1, max_size=2))
    m = DiscreteMeasure.from_atoms(1, [((x,), w) for x, w in atoms])
    return build_grid(1, draw(st.integers(1, 40))), Nonlinearity.table(ts, gs), m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kinked_table_cases())
def test_newton_converges_on_kinked_tables(case):
    # the residual rule reaches tol, and the state's energy is no higher
    # than that of the Poisson start, which the state minimizes
    grid, g, m = case
    u, report = solve_semilinear(grid, g, m)
    assert report.converged
    rhs = rasterize(m, grid).values
    u0, _ = solve_linear(grid, m)
    e0 = _energy(grid, g, rhs, u0.values)
    assert _energy(grid, g, rhs, u.values) <= e0 + 1e-10 * (1.0 + abs(e0))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("entry", ["solve_linear", "solve_semilinear",
                                   "solve_by_sub_supersolution"])
def test_solvers_reject_bad_tol(entry, tol):
    grid = build_grid(1, 7)
    g = Nonlinearity.power(2.0)
    m = _const_measure(grid, 1.0)
    upper, _ = solve_linear(grid, m)
    args = {"solve_linear": (grid, m),
            "solve_semilinear": (grid, g, m),
            "solve_by_sub_supersolution": (grid, g, m, zeros_field(grid), upper)}[entry]
    with pytest.raises(ValueError, match="tol must be a finite real > 0"):
        getattr(measopt.solver, entry)(*args, tol=tol)


# ---------------------------------------------------------------------------
# randomized maximum and comparison principles
# ---------------------------------------------------------------------------

def _abs_measure(m):
    density = None if m.density is None else ScalarField(m.density.grid,
                                                         np.abs(m.density.values))
    return DiscreteMeasure(m.dim, atoms=tuple((loc, abs(w)) for loc, w in m.atoms),
                           density=density)


def _draw_measure(draw, rng, grid, nonnegative):
    """Up to three atoms plus a density, with signed or nonnegative weights."""
    scale = draw(st.floats(0.1, 10.0))
    count = draw(st.integers(0, 3))
    weights = rng.uniform(0.0, 1.0, count) if nonnegative else rng.normal(size=count)
    atoms = tuple((tuple(rng.uniform(0.05, 0.95, grid.dim)), scale * float(w))
                  for w in weights)
    values = (rng.uniform(0.0, 1.0, grid.total_interior) if nonnegative
              else rng.standard_normal(grid.total_interior))
    return DiscreteMeasure(grid.dim, atoms=atoms,
                           density=ScalarField(grid, scale * values))


@st.composite
def _nonlinearities(draw):
    kind = draw(st.sampled_from(["power", "linear", "table", "callable"]))
    if kind == "power":
        return Nonlinearity.power(draw(st.floats(1.0, 4.0)))
    if kind == "linear":
        return Nonlinearity.linear(draw(st.floats(0.0, 5.0)))
    if kind == "callable":
        # bounded and monotone; no deriv or primitive, so the central
        # differences and the quadrature primitive are what the solver sees
        c = draw(st.floats(0.0, 5.0))
        return Nonlinearity.from_callable(lambda t: c * np.arctan(t),
                                          label=f"{c:g}*arctan")
    # kinks at random breakpoints around 0, flat segments included
    left = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3))
    right = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3))
    ts = np.concatenate((-np.cumsum(left)[::-1], [0.0], np.cumsum(right)))
    slopes = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 4.0]),
                           min_size=ts.size - 1, max_size=ts.size - 1))
    gs = np.concatenate(([0.0], np.cumsum(np.diff(ts) * slopes)))
    return Nonlinearity.table(ts, gs - gs[len(left)])


@st.composite
def _principle_cases(draw):
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(1, {1: 30, 2: 12, 3: 6}[dim])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = _draw_measure(draw, rng, grid, nonnegative=False)
    bump = _draw_measure(draw, rng, grid, nonnegative=True)
    return grid, draw(_nonlinearities()), m, bump


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_principle_cases())
def test_linear_envelope_bounds_states_random(case):
    # -Lap_h is an M-matrix: v = (-Lap_h)^-1 |m| bounds |(-Lap_h)^-1 m|,
    # and with g nondecreasing, g(0) = 0, it bounds the semilinear state
    grid, g, m, _ = case
    v, _ = solve_linear(grid, _abs_measure(m))
    u_lin, _ = solve_linear(grid, m)
    u, _ = solve_semilinear(grid, g, m)
    slack = 1e-10 * (1.0 + float(v.values.max()))
    assert np.all(np.abs(u_lin.values) <= v.values + slack)
    assert np.all(np.abs(u.values) <= v.values + slack)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_principle_cases())
def test_comparison_principle_random(case):
    # m1 <= m2 = m1 + (a nonnegative measure) gives u1 <= u2
    grid, g, m1, bump = case
    m2 = DiscreteMeasure(grid.dim, atoms=m1.atoms + bump.atoms,
                         density=ScalarField(grid, m1.density.values + bump.density.values))
    u1, _ = solve_semilinear(grid, g, m1)
    u2, _ = solve_semilinear(grid, g, m2)
    slack = 1e-10 * (1.0 + float(np.abs(u1.values).max() + np.abs(u2.values).max()))
    assert np.all(u1.values <= u2.values + slack)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_principle_cases())
def test_absorption_bound_random(case):
    # ||g(u)||_L1 <= ||mu||_M: testing the equation with sign(u) kills
    # the Laplacian term, because -Lap_h is an M-matrix
    grid, g, m, _ = case
    u, _ = solve_semilinear(grid, g, m)
    assert lp_norm(ScalarField(grid, np.asarray(g(u.values))), 1.0) <= tv_norm(m) + 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_principle_cases())
def test_truncation_shrinks_datum_tv_random(case):
    # w = (-Lap_h)^-1 bump >= 0 is a supersolution for every g >= 0 on
    # t >= 0, and -w a subsolution; truncating the state of m against
    # either never raises the total variation of its datum
    grid, g, m, bump = case
    u, _ = solve_semilinear(grid, g, m)
    w, _ = solve_linear(grid, bump)
    tv_u = tv_norm(residual_measure(grid, g, u))
    _, nu_min = truncate_min(u, w, g)
    _, nu_max = truncate_max(u, ScalarField(grid, -w.values), g)
    assert tv_norm(nu_min) <= tv_u + 1e-8
    assert tv_norm(nu_max) <= tv_u + 1e-8


def test_semilinear_reaches_machine_residual():
    grid = build_grid(2, 15)
    m = DiscreteMeasure.point((0.5, 0.5), 1.0)
    u, report = solve_semilinear(grid, Nonlinearity.power(2.0), m, tol=1e-12)
    assert report.converged
    assert report.final_residual <= 1e-12


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="CG preconditioned with the constant shift mean(g'(u)) stalls "
                          "when g'(u) is huge only near the atom")
def test_semilinear_converges_with_sharply_peaked_shift():
    solve_semilinear(build_grid(2, 31), Nonlinearity.power(8),
                     DiscreteMeasure.point((0.5, 0.5), 50.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_g_stops_the_first_cg_iteration(bad):
    # g is finite only on a band around 0 that the state leaves; the solve
    # must name g instead of handing a non-finite residual to CG
    g = Nonlinearity.from_callable(lambda t: np.where(np.abs(t) <= 0.01, t, bad))
    grid = build_grid(2, 15)
    with pytest.raises(ConvergenceError, match="g returned a non-finite value") as info:
        solve_semilinear(grid, g, DiscreteMeasure.point((0.5, 0.5), 1.0))
    assert info.value.field is not None and info.value.field.grid == grid
    assert info.value.report.iterations <= 1
    assert not info.value.report.converged


def test_variational_identity_against_pairing():
    rng = np.random.default_rng(23)
    grid = build_grid(2, 17)
    g = Nonlinearity.power(2.0)
    m = DiscreteMeasure(2, atoms=(((0.4, 0.6), 1.5),),
                        density=ScalarField(grid, rng.standard_normal(grid.total_interior)))
    u, _ = solve_semilinear(grid, g, m, tol=1e-10)
    gu = np.asarray(g(u.values))
    coords = grid.node_coords()
    border = np.any((coords < 2.5 * grid.h) | (coords > 1.0 - 2.5 * grid.h), axis=1)
    for _ in range(20):
        zeta = rng.standard_normal(grid.total_interior)
        zeta[border] = 0.0  # test fields vanish near the boundary
        zf = ScalarField(grid, zeta)
        lhs = float(u.values @ neg_laplacian_apply(zf).values) * grid.cell_volume \
            + float(gu @ zeta) * grid.cell_volume
        rhs = weak_star_pairing(m, zf)
        assert abs(lhs - rhs) <= 10.0 * 1e-10 * float(np.abs(zeta).max())


def test_solver_rejects_decreasing_nonlinearity():
    grid = build_grid(2, 7)
    wobble = Nonlinearity.from_callable(np.sin, deriv=np.cos)
    m = _const_measure(grid, 60.0)  # pushes the state past the sine cap
    with pytest.raises(ValueError, match="invalid nonlinearity: negative derivative"):
        solve_semilinear(grid, wobble, m)


# ---------------------------------------------------------------------------
# monotone sub/supersolution mode
# ---------------------------------------------------------------------------

def test_monotone_iteration_matches_newton(monkeypatch):
    rng = np.random.default_rng(29)
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)
    dens = ScalarField(grid, rng.uniform(0.0, 2.0, grid.total_interior))
    m = DiscreteMeasure.from_density(dens)
    u_newton, _ = solve_semilinear(grid, g, m)
    upper, _ = solve_linear(grid, m)
    u_mono, report = solve_by_sub_supersolution(grid, g, m, zeros_field(grid), upper)
    assert report.converged
    assert float(np.abs(u_mono.values - u_newton.values).max()) <= 1e-8

    # a steep kink past the origin overshoots the full Newton step, so the
    # line search must halve it: more residual trials than the initial one
    # plus one per iteration, and G is never evaluated
    grid = build_grid(1, 9)
    g = Nonlinearity.table([-1.0, 0.0, 0.1, 10.0], [-1.0, 0.0, 10.0, 10.5])
    m = DiscreteMeasure.point((0.5,), 1.0)
    trials = []
    evaluate = measopt.solver._evaluate

    def counting(*args):
        trials.append(1)
        return evaluate(*args)

    monkeypatch.setattr(measopt.solver, "_evaluate", counting)
    primitive_calls = _count_calls(monkeypatch, "primitive")
    u_newton, newton = solve_semilinear(grid, g, m)
    assert newton.converged and len(trials) > newton.iterations + 1
    assert not primitive_calls
    upper, _ = solve_linear(grid, m)
    u_mono, report = solve_by_sub_supersolution(grid, g, m, zeros_field(grid), upper)
    assert report.converged
    assert float(np.abs(u_mono.values - u_newton.values).max()) <= 1e-12


def test_monotone_iteration_evaluates_g_once_per_iterate(monkeypatch):
    # once at each bound, then once per iterate, reused for the next step
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)
    m = _const_measure(grid, 5.0)
    upper, _ = solve_linear(grid, m)
    g_calls = _count_calls(monkeypatch, "__call__")
    _, report = solve_by_sub_supersolution(grid, g, m, zeros_field(grid), upper)
    assert report.converged and report.iterations > 1
    assert len(g_calls) == 2 + report.iterations


def test_monotone_iteration_runs_no_cg(monkeypatch):
    # every lam-shifted solve is the exact sine-transform solve
    grid = build_grid(2, 9)
    m = _const_measure(grid, 5.0)
    upper, _ = solve_linear(grid, m)

    def no_cg(*args, **kwargs):
        raise AssertionError("a constant-shift solve ran CG")

    monkeypatch.setattr(measopt.kernels, "cg_shifted", no_cg)
    _, report = solve_by_sub_supersolution(grid, Nonlinearity.power(2.0), m,
                                           zeros_field(grid), upper)
    assert report.converged and report.iterations > 1
    assert (report.method, report.inner_iterations) == ("monotone", 0)


def test_monotone_iteration_accepts_the_rounding_floor():
    # on 1-D n = 1023 the residual stalls at 1.6e-10, above tol = 1e-10 but
    # below the rounding floor of its own evaluation (about 7.8e-10)
    grid = build_grid(1, 1023)
    g = Nonlinearity.power(3.0)
    m = DiscreteMeasure.point((0.3,), 1.0)
    upper, _ = solve_linear(grid, m)
    u, report = solve_by_sub_supersolution(grid, g, m, zeros_field(grid), upper, max_iter=300)
    floor = measopt.kernels.rounding_floor(rasterize(m, grid).values, u.values, g(u.values),
                                           grid.dim, grid.n, np.empty(u.values.size))
    assert report.converged and report.iterations < 300
    assert report.final_residual <= floor
    u_newton, _ = solve_semilinear(grid, g, m)
    assert float(np.abs(u.values - u_newton.values).max()) <= 1e-8


@pytest.mark.parametrize("max_iter", [0, -3])
def test_monotone_iteration_rejects_bad_max_iter(max_iter):
    grid = build_grid(1, 7)
    g = Nonlinearity.power(2.0)
    m = _const_measure(grid, 1.0)
    upper, _ = solve_linear(grid, m)
    with pytest.raises(ValueError, match="max_iter must be a positive integer"):
        solve_by_sub_supersolution(grid, g, m, zeros_field(grid), upper, max_iter=max_iter)


def test_monotone_iteration_fixed_point():
    grid = build_grid(1, 7)
    g = Nonlinearity.power(2.0)
    m = _const_measure(grid, 1.0)
    u, _ = solve_semilinear(grid, g, m)
    out, report = solve_by_sub_supersolution(grid, g, m, u, u)
    assert report.iterations == 1
    assert float(np.abs(out.values - u.values).max()) <= 1e-8


def test_monotone_iteration_rejects_bad_brackets():
    grid = build_grid(1, 7)
    g = Nonlinearity.power(2.0)
    m = _const_measure(grid, 1.0)
    upper, _ = solve_linear(grid, m)
    lo = zeros_field(grid)
    with pytest.raises(ValueError):
        solve_by_sub_supersolution(grid, g, m, upper, lo)  # swapped order
    with pytest.raises(ValueError):
        solve_by_sub_supersolution(grid, g, m, constant_field(grid, 10.0),
                                   constant_field(grid, 11.0))  # lower not sub
    with pytest.raises(ValueError):
        solve_by_sub_supersolution(grid, g, m, lo, lo)  # upper not super


def test_monotone_iteration_cap_carries_partial_result():
    grid = build_grid(2, 9)
    g = Nonlinearity.power(3.0)
    m = _const_measure(grid, 20.0)
    upper, _ = solve_linear(grid, m)
    with pytest.raises(ConvergenceError) as err:
        solve_by_sub_supersolution(grid, g, m, zeros_field(grid), upper, max_iter=1)
    assert err.value.field is not None
    assert err.value.report.converged is False
    assert err.value.report.method == "monotone"


# ---------------------------------------------------------------------------
# residual measures and truncation
# ---------------------------------------------------------------------------

def test_residual_measure_roundtrip():
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)
    assert np.all(residual_measure(grid, g, zeros_field(grid)).density.values == 0.0)
    rng = np.random.default_rng(31)
    m = _random_signed_measure(rng, grid)
    u, _ = solve_semilinear(grid, g, m)
    res = residual_measure(grid, g, u)
    diff = res.density.values - rasterize(m, grid).values
    assert lp_norm(ScalarField(grid, diff), 1.0) <= 1e-9


def test_truncate_min_inactive_when_below():
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)
    dens = ScalarField(grid, np.full(grid.total_interior, 0.5))
    m = DiscreteMeasure.from_density(dens)
    u, _ = solve_semilinear(grid, g, m)
    w, _ = solve_linear(grid, m)  # dominates u and is a supersolution
    z, nu = truncate_min(u, w, g)
    np.testing.assert_array_equal(z.values, u.values)
    assert tv_norm(nu) <= tv_norm(residual_measure(grid, g, u)) + 1e-12


def test_truncate_at_zero_keeps_negative_part():
    rng = np.random.default_rng(37)
    grid = build_grid(2, 9)
    g = Nonlinearity.power(3.0)
    u = ScalarField(grid, rng.standard_normal(grid.total_interior))
    z, _ = truncate_min(u, zeros_field(grid), g)
    np.testing.assert_array_equal(z.values, np.minimum(u.values, 0.0))
    zmax, _ = truncate_max(u, zeros_field(grid), g)
    np.testing.assert_array_equal(zmax.values, np.maximum(u.values, 0.0))


def test_truncation_shrinks_datum_tv():
    rng = np.random.default_rng(41)
    grid = build_grid(2, 11)
    g = Nonlinearity.power(2.0)
    for _ in range(10):
        u = ScalarField(grid, 2.0 * rng.standard_normal(grid.total_interior))
        w, _ = solve_linear(grid, _const_measure(grid, rng.uniform(0.5, 4.0)))
        z, nu = truncate_min(u, w, g)
        assert tv_norm(nu) <= tv_norm(residual_measure(grid, g, u)) + 1e-8


def test_truncate_max_is_reflection_of_truncate_min():
    rng = np.random.default_rng(43)
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)  # odd, so self-reflected
    u = ScalarField(grid, rng.standard_normal(grid.total_interior))
    w, _ = solve_linear(grid, _const_measure(grid, 1.0))
    z_min, nu_min = truncate_min(u, w, g)
    z_max, nu_max = truncate_max(ScalarField(grid, -u.values),
                                 ScalarField(grid, -w.values), g)
    np.testing.assert_array_equal(z_max.values, -z_min.values)
    np.testing.assert_array_equal(nu_max.density.values, -nu_min.density.values)


@pytest.mark.parametrize("g", [
    Nonlinearity.table([-1.0, 0.0, 0.5, 2.0], [-3.0, 0.0, 0.2, 4.0]),
    Nonlinearity.from_callable(lambda t: np.where(t > 0.0, t ** 3, 0.5 * t)),
], ids=["kinked-table", "callable"])
def test_truncate_max_with_non_odd_g(g):
    # truncate_max reflects g to t -> -g(-t), which differs from g here
    rng = np.random.default_rng(47)
    grid = build_grid(2, 9)
    u = ScalarField(grid, rng.standard_normal(grid.total_interior))
    v, _ = solve_linear(grid, _const_measure(grid, 1.0))
    w = ScalarField(grid, -v.values)  # -Lap w + g(w) = -1 + g(-v) < 0
    z, nu = truncate_max(u, w, g)
    np.testing.assert_array_equal(z.values, np.maximum(u.values, w.values))
    np.testing.assert_array_equal(nu.density.values,
                                  residual_measure(grid, g, z).density.values)
    peak = -np.ones(grid.total_interior)
    peak[grid.flat_index((5, 5))] = -0.5  # local maximum makes -Lap w > 0
    with pytest.raises(ValueError):
        truncate_max(u, ScalarField(grid, peak), g)


def test_truncate_min_rejects_bad_supersolutions():
    grid = build_grid(2, 5)
    g = Nonlinearity.power(2.0)
    u = constant_field(grid, 1.0)
    with pytest.raises(ValueError):
        truncate_min(u, constant_field(grid, -1.0), g)  # negative w
    dip = np.ones(grid.total_interior)
    dip[grid.flat_index((3, 3))] = 0.0  # local minimum makes -Lap w < 0
    with pytest.raises(ValueError):
        truncate_min(u, ScalarField(grid, dip), g)
    with pytest.raises(ValueError):
        truncate_min(u, constant_field(build_grid(2, 7), 1.0), g)


# ---------------------------------------------------------------------------
# interior truncation inequality
# ---------------------------------------------------------------------------

def _admissible_instance(rng, grid):
    u1 = ScalarField(grid, rng.standard_normal(grid.total_interior))
    a1 = ScalarField(grid, rng.standard_normal(grid.total_interior))
    u2 = ScalarField(grid, rng.standard_normal(grid.total_interior))
    lap2 = neg_laplacian_apply(u2).values
    a2 = ScalarField(grid, np.maximum(-lap2, 0.0)
                     + rng.uniform(0.0, 1.0, grid.total_interior))
    return u1, u2, a1, a2


def test_lemma_check_equality_when_no_excess():
    grid = build_grid(2, 7)
    rng = np.random.default_rng(47)
    u1, u2, a1, a2 = _admissible_instance(rng, grid)
    check = lemma_truncation_check(u2, u2, a2, a2)
    assert check.excess_nodes == 0
    assert check.slack == 0.0
    below = ScalarField(grid, u2.values - np.abs(u1.values) - 10.0)
    check2 = lemma_truncation_check(below, u2, a1, a2)
    assert check2.excess_nodes == 0
    assert check2.slack == 0.0


def test_lemma_check_nonnegative_slack_randomized():
    rng = np.random.default_rng(53)
    grid = build_grid(2, 9)
    for _ in range(25):
        u1, u2, a1, a2 = _admissible_instance(rng, grid)
        check = lemma_truncation_check(u1, u2, a1, a2)
        assert check.slack >= -1e-8


def test_lemma_check_validation():
    grid = build_grid(2, 5)
    rng = np.random.default_rng(59)
    u1, u2, a1, a2 = _admissible_instance(rng, grid)
    other = constant_field(build_grid(2, 7), 0.0)
    with pytest.raises(ValueError):
        lemma_truncation_check(u1, other, a1, a2)
    bad_a2 = ScalarField(grid, a2.values - 100.0)
    with pytest.raises(ValueError):
        lemma_truncation_check(u1, u2, a1, bad_a2)


# ---------------------------------------------------------------------------
# reduced limits along refinement schedules
# ---------------------------------------------------------------------------

def test_reduced_limit_fixed_atom():
    grids = [build_grid(2, n) for n in (15, 31)]
    delta = DiscreteMeasure.point((0.5, 0.5), 1.0)
    result = reduced_limit(grids, [delta, delta], Nonlinearity.power(2.0))
    assert len(result.trace) == 2
    assert [u.grid for u in result.states] == grids
    for rec in result.trace:
        assert rec.tv_mu == 1.0
        assert rec.w11_tv_ratio > 0.0
    # the recovered datum keeps (almost) all of the atom mass
    assert tv_norm(result.mu_sharp) <= 1.0 + 1e-6


def test_reduced_limit_validation():
    g = Nonlinearity.power(2.0)
    delta = DiscreteMeasure.point((0.5, 0.5), 1.0)
    with pytest.raises(ValueError):
        reduced_limit([], [], g)
    with pytest.raises(ValueError):
        reduced_limit([build_grid(2, 15), build_grid(2, 15)], [delta, delta], g)
    with pytest.raises(ValueError):
        reduced_limit([build_grid(2, 7), build_grid(3, 9)], [delta, delta], g)
    with pytest.raises(ValueError):
        reduced_limit([build_grid(2, 7), build_grid(2, 9)], [delta], g)
