"""The grid plan, the CG workspace contract, the exact shifted solve and the allocation bounds."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measopt import (DiscreteMeasure, Nonlinearity, ScalarField, build_grid, rasterize,
                     solve_linear, solve_semilinear)
from measopt.kernels import (_sine_transform, cg_shifted, grid_plan, inverse_eigenvalues,
                             sine_solve)

_MAX_N = {1: 40, 2: 16, 3: 8}


@st.composite
def _systems(draw):
    """A grid, a constant or peaked shift and a right-hand side."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, _MAX_N[dim]))
    grid = build_grid(dim, n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.floats(0.0, 1e3))
    if draw(st.booleans()):
        diag = np.asarray(top)
    else:
        centre = rng.uniform(0.2, 0.8, dim)
        r2 = ((grid.node_coords() - centre) ** 2).sum(axis=1)
        diag = 1.0 + top * np.exp(-r2 / 0.01)
    return grid, diag, rng.standard_normal(grid.total_interior)


def _cg(grid, diag, b, work=None, maxiter=200):
    return cg_shifted(b, diag, grid.dim, grid.n, 1e-12, maxiter, work=work)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems())
def test_cg_with_a_workspace_matches_cg_without_bitwise(system):
    grid, diag, b = system
    x, iters, res, converged = _cg(grid, diag, b)
    # stale contents, here NaN, must never reach the result
    work = np.full((6, b.size), np.nan)
    b_before = b.copy()
    x_w, iters_w, res_w, converged_w = _cg(grid, diag, b, work)
    assert np.array_equal(x_w, x)
    assert (iters_w, res_w, converged_w) == (iters, res, converged)
    assert not np.shares_memory(x_w, work)
    assert np.array_equal(b, b_before)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems())
def test_the_exact_solve_is_the_one_iteration_cg_bitwise(system):
    # with a constant shift CG stops after one iteration at M^-1 b: the
    # Newton start relies on sine_solve returning exactly that iterate
    grid, diag, b = system
    b_before = b.copy()
    for c in {0.0, float(diag.mean())} if diag.ndim == 0 else {0.0}:
        x, iters, _, converged = _cg(grid, np.asarray(c), b)
        work = np.full((6, b.size), np.nan)
        out = np.full(b.size, np.nan)
        inv_eig = inverse_eigenvalues(grid.dim, grid.n, c)
        got = sine_solve(b, inv_eig, grid.dim, grid.n, out, work[0], work[1])
        assert got is out and (iters, converged) == (1, True)
        assert got.tobytes() == x.tobytes()
        assert not np.shares_memory(got, work)
        assert np.array_equal(b, b_before)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems())
def test_cg_is_exactly_odd_in_its_right_hand_side(system):
    # Newton hands CG its residual and steps by minus the result
    grid, diag, b = system
    x, iters, res, converged = _cg(grid, diag, b)
    x_neg, iters_neg, res_neg, converged_neg = _cg(grid, diag, -b)
    assert np.array_equal(x_neg, -x)
    assert (iters_neg, res_neg, converged_neg) == (iters, res, converged)


def _allocating_transform(a):
    """The transform as a chain of allocating products, one per axis."""
    n = a.shape[0]
    s = grid_plan(a.ndim, n).sine
    t = a.reshape(-1, n) @ s
    for ax in range(a.ndim - 1):
        t = s @ t.reshape(n ** ax, n, -1)
    return t.reshape(a.shape)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_sine_transform_into_buffers_matches_the_allocating_products_bitwise(dim, n, seed):
    a = np.random.default_rng(seed).standard_normal((n,) * dim)
    a_before = a.copy()
    ref = _allocating_transform(a)
    out, tmp = np.full(a.size, np.nan), np.full(a.size, np.nan)
    t = _sine_transform(a.reshape(-1), grid_plan(dim, n), out, tmp)
    assert t is out
    assert np.array_equal(t, ref.reshape(-1))
    assert np.array_equal(a, a_before)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_the_grid_plan_holds_the_closed_forms(dim, n):
    plan = grid_plan(dim, n)
    assert plan.h == 1.0 / (n + 1) and plan.hd == plan.h ** dim
    j = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    np.testing.assert_allclose(plan.sine, s, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(plan.sine @ plan.sine, np.eye(n), rtol=0.0, atol=1e-13)
    lam1 = 4.0 * (n + 1) ** 2 * np.sin(np.pi * j / (2.0 * (n + 1))) ** 2
    lam = sum(np.expand_dims(lam1, [k for k in range(dim) if k != ax]) for ax in range(dim))
    np.testing.assert_allclose(plan.eig, np.broadcast_to(lam, (n,) * dim).reshape(-1),
                               rtol=1e-13, atol=0.0)
    again = grid_plan(dim, n)
    assert again.sine is plan.sine and again.eig is plan.eig
    for a in (plan.sine, plan.eig):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_systems())
def test_solve_linear_is_the_exact_sine_solve_bitwise(system):
    # the g = 0 state solve stops at its start, the exact solve at c = 0
    grid, _, b = system
    m = DiscreteMeasure(grid.dim, atoms=((tuple(np.full(grid.dim, 0.4)), float(b[0])),),
                        density=ScalarField(grid, b))
    rhs = rasterize(m, grid).values
    work = np.empty((3, rhs.size))
    exact = sine_solve(rhs, inverse_eigenvalues(grid.dim, grid.n, 0.0), grid.dim, grid.n, *work)
    u, report = solve_linear(grid, m)
    assert u.values.tobytes() == exact.tobytes()
    assert report.converged and (report.iterations, report.inner_iterations) == (0, 0)


def _state_problem(n):
    grid = build_grid(3, n)
    m = DiscreteMeasure(3, atoms=(((0.3, 0.4, 0.6), 0.08), ((0.7, 0.5, 0.4), -0.06)),
                        density=ScalarField(grid, 12.0 * np.exp(
                            -((grid.node_coords() - 0.5) ** 2).sum(axis=1) / 0.02)))
    return grid, Nonlinearity.power(3.0), m


def test_a_solve_after_a_solve_of_another_size_is_bitwise_identical():
    small, large = _state_problem(7), _state_problem(11)
    u_first, report_first = solve_semilinear(*small)
    solve_semilinear(*large)
    u_again, report_again = solve_semilinear(*small)
    assert np.array_equal(u_again.values, u_first.values)
    assert report_again == report_first


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_state_solve_peak_stays_below_the_old_live_set():
    # allocating per CG update and per trial point, a 3-D solve peaked at
    # 16 full-grid arrays at n = 31; the workspace holds it near 14
    problem = _state_problem(31)
    solve_semilinear(*problem)  # fills the per-size caches first
    array_bytes = 8 * 31 ** 3
    assert _traced_peak(lambda: solve_semilinear(*problem)) <= 15 * array_bytes


def test_cg_peak_does_not_grow_with_the_iteration_count():
    grid = build_grid(3, 15)
    r2 = ((grid.node_coords() - 0.4) ** 2).sum(axis=1)
    diag = 1.0 + 500.0 * np.exp(-r2 / 0.01)
    b = np.random.default_rng(3).standard_normal(grid.total_interior)
    work = np.empty((6, b.size))
    _cg(grid, diag, b, work, maxiter=20)
    peaks = [_traced_peak(lambda k=k: _cg(grid, diag, b, work, maxiter=k)) for k in (2, 20)]
    assert _cg(grid, diag, b, work, maxiter=20)[1] > 2
    assert peaks[1] <= peaks[0]
