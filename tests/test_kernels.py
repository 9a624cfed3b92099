"""The grid plan, the CG workspace contract, the exact shifted solve, the allocation
bounds and the two-thread passes."""
import functools
import gc
import hashlib
import os
import select
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measopt import (DiscreteMeasure, Nonlinearity, ScalarField, build_grid, kernels,
                     rasterize, solve_linear, solve_semilinear)
from measopt.kernels import (_sine_transform, cg_shifted, grid_plan, inverse_eigenvalues,
                             neg_laplacian, sine_solve)

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


# ---------------------------------------------------------------------------
# two-thread passes
# ---------------------------------------------------------------------------

TWO_CPUS = kernels._cpu_count() > 1


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _kernel_outputs(dim, n, seed):
    """Every split kernel's output on one random case, as bytes and counts."""
    rng = np.random.default_rng(seed)
    size = n ** dim
    b = rng.standard_normal(size)
    diag = rng.uniform(0.0, 10.0 ** rng.uniform(-2, 3), size)
    c = float(rng.uniform(0.0, 100.0))
    plan = kernels.grid_plan(dim, n)  # the plan of the policy in force
    transform = kernels._transform_halves if plan.halves is kernels._halves else _sine_transform
    outputs = [neg_laplacian(b, dim, n).tobytes(),
               transform(b, plan, np.empty(size), np.empty(size)).tobytes(),
               sine_solve(b, inverse_eigenvalues(dim, n, c), dim, n,
                          *np.empty((3, size))).tobytes()]
    for shift, work in ((diag, None), (diag, np.full((6, size), np.nan)),
                        (np.asarray(c), None)):
        x, *rest = cg_shifted(b, shift, dim, n, 1e-12, 200, work=work)
        outputs += [x.tobytes(), rest]
    grid = build_grid(dim, n)
    m = DiscreteMeasure(dim, atoms=((tuple(rng.uniform(0.2, 0.8, dim)), 0.3),),
                        density=ScalarField(grid, 5.0 * b))
    u, report = solve_semilinear(grid, Nonlinearity.power(3.0), m)
    return outputs + [u.values.tobytes(), report]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 7, 8, 15]), st.integers(0, 2 ** 32 - 1))
def test_every_split_pass_matches_the_serial_pass_bitwise(dim, n, seed):
    serial = _kernel_outputs(dim, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        _split_now(mp, skip=False)
        split = _kernel_outputs(dim, n, seed)
    assert split == serial
    if dim == 3:
        assert (kernels._worker is not None) == TWO_CPUS


def _passes(monkeypatch, split):
    """Every grid's passes split (from 0 nodes, as with one BLAS thread) or whole, on
    plans built afresh: a plan keeps the choice it was built with."""
    monkeypatch.setattr(kernels, "SPLIT_MIN", 0 if split else 10 ** 9)
    monkeypatch.setattr(kernels, "ONE_BLAS_THREAD", True)
    monkeypatch.setattr(kernels, "grid_plan", functools.lru_cache(kernels.grid_plan.__wrapped__))


def test_a_split_grid_runs_each_node_by_node_phase_in_halves(monkeypatch):
    phases = []

    def halves(fn, *args):
        phases.append(fn)
        return halves_fn(fn, *args)

    halves_fn = kernels._halves
    monkeypatch.setattr(kernels, "_halves", halves)
    _split_now(monkeypatch, skip=False)
    solve_semilinear(*_state_problem(7))
    assert {kernels._cg_ap, kernels._cg_step, kernels._cg_directions, kernels._cg_residual,
            np.multiply}.issubset(phases)
    assert any(getattr(fn, "__name__", "") == "_residual" for fn in phases)  # solver._evaluate


def _split_now(monkeypatch, skip=True):
    _passes(monkeypatch, True)
    if skip and not TWO_CPUS:
        pytest.skip("one CPU: every pass runs serially")


def test_an_error_in_the_workers_half_reaches_the_caller_and_the_worker_recovers(monkeypatch):
    _split_now(monkeypatch)

    def half(which):
        if which == "high":
            raise FloatingPointError("in the high half")

    with pytest.raises(FloatingPointError, match="high half"):
        kernels._two(half, ("low",), ("high",))
    worker = kernels._worker
    assert worker.job is None and worker.error is None and not worker.busy.locked()
    grid, g, m = _state_problem(7)
    u, report = solve_semilinear(grid, g, m)
    _passes(monkeypatch, False)
    assert u.values.tobytes() == solve_semilinear(grid, g, m)[0].values.tobytes()


def test_the_worker_keeps_no_array_after_a_job(monkeypatch):
    _split_now(monkeypatch)
    a = np.random.default_rng(0).standard_normal(4096)
    out = np.empty_like(a)
    kernels.runner(3, a.size)(np.multiply, a, 2.0, out)
    assert np.array_equal(out, 2.0 * a)
    refs = weakref.ref(a), weakref.ref(out)
    del a, out
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert kernels._worker.job is None


def test_a_thread_that_finds_the_worker_busy_runs_its_pass_itself(monkeypatch):
    _split_now(monkeypatch)
    kernels._two(lambda: None, (), ())  # start the worker
    release, ran = threading.Event(), []

    def hold(which):
        if which == "high":
            release.wait(30)

    holder = threading.Thread(target=kernels._two, args=(hold, ("low",), ("high",)),
                              daemon=True)
    holder.start()
    try:
        deadline = time.monotonic() + 30
        while not kernels._worker.busy.locked() and time.monotonic() < deadline:
            time.sleep(0.001)
        assert kernels._worker.busy.locked()
        kernels._two(lambda k: ran.append((k, threading.get_ident())), (0,), (1,))
    finally:
        release.set()
        holder.join(30)
    assert not holder.is_alive()
    assert ran == [(0, threading.get_ident()), (1, threading.get_ident())]
    assert not kernels._worker.busy.locked()


def test_threads_that_share_the_worker_get_the_serial_bits(monkeypatch):
    _split_now(monkeypatch)
    grid, g, m = _state_problem(7)
    _passes(monkeypatch, False)
    expected = solve_semilinear(grid, g, m)[0].values.tobytes()
    _split_now(monkeypatch)
    got = []

    def solves():
        for _ in range(5):
            got.append(solve_semilinear(grid, g, m)[0].values.tobytes())

    threads = [threading.Thread(target=solves, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [expected] * 20


def _solve_47():
    return solve_semilinear(*_state_problem(47))[0].values


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_solves_without_its_parents_worker(monkeypatch):
    # the child inherits the worker object but not its thread; handing it
    # a half would wait forever, so the fork hook drops it
    _split_now(monkeypatch, skip=False)
    expected = _digest(_solve_47())
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:
        try:
            os.write(write_end, _digest(_solve_47()).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 120)
        got = os.read(read_end, 64).decode() if ready else None
    finally:
        if not ready:
            os.kill(pid, 9)
        os.waitpid(pid, 0)
        os.close(read_end)
    assert got == expected


_ONE_CPU_SOLVE = """
import os, sys, threading
cpus = sorted(os.sched_getaffinity(0))
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {cpus[0]})
import hashlib
from test_kernels import _solve_47
threads = threading.active_count()
u = _solve_47()
print(hashlib.sha256(u.tobytes()).hexdigest(), threads, threading.active_count())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_runs_every_pass_serially_to_the_same_bits():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(__file__)] + sys.path))
    runs = {}
    for cpus in ("one", "all"):
        proc = subprocess.run([sys.executable, "-c", _ONE_CPU_SOLVE, cpus], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digest, before, after = proc.stdout.split()
        runs[cpus] = digest, int(after) - int(before)
    assert runs["one"] == (runs["all"][0], 0)
    assert runs["all"][1] == (1 if TWO_CPUS else 0)


_CUTS = """
import numpy as np
from measopt import kernels
for dim, n in [(3, 38), (3, 47), (3, 55), (3, 63)]:
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n ** dim) * 10.0 ** rng.integers(-5, 5, n ** dim)
    assert a.size >= kernels.SPLIT_MIN
    split, serial = (transform(a, kernels.grid_plan(dim, n), np.empty(a.size),
                               np.empty(a.size)).tobytes()
                     for transform in (kernels._transform_halves, kernels._sine_transform))
    print(dim, n, split == serial)
"""


def test_the_transform_cuts_keep_the_bits_of_the_whole_products():
    # 3-D grids from SPLIT_MIN nodes up, with one BLAS thread; a cut off the
    # BLAS kernel's tiles changes the rounding of the products at 3-D n = 47
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _CUTS], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert [line.split()[-1] for line in proc.stdout.splitlines()] == ["True"] * 4


def test_only_large_3d_grids_on_two_cpus_with_one_blas_thread_split(monkeypatch):
    least = kernels.SPLIT_MIN
    monkeypatch.setattr(kernels, "ONE_BLAS_THREAD", True)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    assert kernels.runner(3, least) is kernels._halves
    assert kernels.runner(3, least - 1) is None
    assert kernels.runner(2, 10 * least) is None
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    assert kernels.runner(3, least) is None
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(kernels, "ONE_BLAS_THREAD", False)
    assert kernels.runner(3, least) is None


@pytest.mark.parametrize("blas_env, one", [({}, False), ({"OPENBLAS_NUM_THREADS": "1"}, True),
                                           ({"OMP_NUM_THREADS": "1"}, True),
                                           ({"OPENBLAS_NUM_THREADS": "2",
                                             "OMP_NUM_THREADS": "1"}, False)])
def test_blas_counts_as_one_thread_only_when_its_environment_says_so(blas_env, one):
    # a threaded BLAS cuts each product its own way, and so changes the bits of a cut one
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(blas_env, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", "from measopt import kernels; "
                           "print(kernels.ONE_BLAS_THREAD)"], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == [str(one)]
