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

from measopt import (ControlProblem, DiscreteMeasure, Nonlinearity, ScalarField, adjoint_gradient,
                     build_grid, kernels, rasterize, solve_linear, solve_semilinear, solver)
from measopt.kernels import cg_shifted, grid_plan, inverse_eigenvalues, neg_laplacian, sine_solve

from _oracle import sine_transform

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 40), st.floats(0.0, 1e3), st.integers(0, 2 ** 32 - 1))
def test_sine_solve_whole_or_cut_matches_the_allocating_transforms_bitwise(dim, n, c, seed):
    # one job sequence for every grid: whole, or every 3-D grid cut in halves
    b = np.random.default_rng(seed).standard_normal(n ** dim)
    b_before = b.copy()
    inv_eig = inverse_eigenvalues(dim, n, c)
    shape = (n,) * dim
    ref = sine_transform(inv_eig.reshape(shape) * sine_transform(b.reshape(shape))).reshape(-1)
    for cut in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            _passes(mp, split=cut)
            out, mid, tmp = np.full((3, b.size), np.nan)
            got = sine_solve(b, inv_eig, dim, n, out, mid, tmp)
        assert got is out and got.tobytes() == ref.tobytes()
    assert np.array_equal(b, b_before)


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
PLACED = TWO_CPUS and bool(kernels._getcpu)  # Linux with glibc: threads can be placed


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _kernel_outputs(dim, n, seed):
    """Every split kernel's output on one random case, as bytes and counts."""
    rng = np.random.default_rng(seed)
    size = n ** dim
    b = rng.standard_normal(size)
    diag = rng.uniform(0.0, 10.0 ** rng.uniform(-2, 3), size)
    c = float(rng.uniform(0.0, 100.0))
    grid = build_grid(dim, n)
    g = Nonlinearity.power(3.0)
    outputs = [neg_laplacian(b, dim, n).tobytes(),
               inverse_eigenvalues(dim, n, c).tobytes(),
               sine_solve(b, inverse_eigenvalues(dim, n, c), dim, n,
                          *np.empty((3, size))).tobytes(),
               kernels.rounding_floor(b, diag, b, dim, n, out=np.empty(size)),
               kernels.rounding_floor(b, diag, c * b, dim, n, out=np.empty(size)),
               solver._shift(grid, g, b).tobytes()]
    for shift, work in ((diag, None), (diag, np.full((6, size), np.nan)),
                        (np.asarray(c), None)):
        x, *rest = cg_shifted(b, shift, dim, n, 1e-12, 200, work=work)
        outputs += [x.tobytes(), rest]
    m = DiscreteMeasure(dim, atoms=((tuple(rng.uniform(0.2, 0.8, dim)), 0.3),),
                        density=ScalarField(grid, 5.0 * b))
    u, report = solve_semilinear(grid, g, m)
    return outputs + [u.values.tobytes(), report]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 7, 8, 15]), st.integers(0, 2 ** 32 - 1))
def test_every_split_pass_matches_the_serial_pass_bitwise(dim, n, seed):
    # every 3-D grid cut: the worker running the high half changes no byte, and 1-D and
    # 2-D grids, never cut, keep the whole-array path; so do 3-D grids under SPLIT_MIN
    with pytest.MonkeyPatch.context() as mp:
        _passes(mp, split=False)
        whole = _kernel_outputs(dim, n, seed)
    assert kernels.grid_plan(dim, n).two is None
    assert _kernel_outputs(dim, n, seed) == whole
    outputs = {}
    for worker in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            _passes(mp, split=True, worker=worker)
            assert (kernels.grid_plan(dim, n).two is not None) == (dim == 3)
            outputs[worker] = _kernel_outputs(dim, n, seed)
    assert outputs[True] == outputs[False]
    if dim < 3:
        assert outputs[True] == whole
    else:
        assert (kernels._worker is not None) == TWO_CPUS


def _passes(monkeypatch, split, worker=True):
    """Every 3-D grid's passes cut (from 0 nodes) or whole, the high half on the worker (on
    two CPUs) or not (as on one), on plans built afresh: a plan keeps the choice it was
    built with."""
    monkeypatch.setattr(kernels, "SPLIT_MIN", 0 if split else 10 ** 9)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2 if worker and TWO_CPUS else 1)
    monkeypatch.setattr(kernels, "grid_plan", functools.lru_cache(kernels.grid_plan.__wrapped__))


def test_a_split_grid_runs_each_node_by_node_phase_in_halves(monkeypatch):
    # and hands the worker exactly 35 jobs in a state solve of one Newton step and two
    # CG iterations
    phases = []

    def recording(two):
        def halves(fn, lo, hi):
            phases.append(getattr(fn, "__name__", fn))
            return two(fn, lo, hi)
        return halves

    for name in ("_two", "_in_turn"):
        monkeypatch.setattr(kernels, name, recording(getattr(kernels, name)))
    _split_now(monkeypatch, skip=False)
    grid, g, m = _state_problem(7)
    report = solve_semilinear(grid, g, m)[1]
    assert (report.iterations, report.inner_iterations, len(phases)) == (1, 2, 35)
    prob = ControlProblem(grid, g, ScalarField(grid, np.full(grid.total_interior, 0.1)), 2.0, 0.1)
    adjoint_gradient(prob, m)
    # np.matmul (the leading axis) and operator.matmul (CG's r z) share a name
    assert {"_rows", "_last", "matmul", "_scaled", "_middle", "_inverse",  # kernels
            "_floor_sums", "sum", "_cg_start", "_cg_ap", "_cg_step", "_cg_directions",
            "_cg_residual", "_residual", "_clamped", "_trial", "_take"} == set(phases)  # solver


def test_a_negative_derivative_in_either_half_is_caught(monkeypatch):
    # u is 0 in the low half and -1 in the high one, the worker's on two CPUs
    _split_now(monkeypatch, skip=False)
    grid = build_grid(3, 7)
    k = 7 // 2 * 7 ** 2  # row n // 2 of axis 0
    seen = []

    def deriv(t):
        if (t < 0.0).any():
            seen.append(threading.get_ident())
        return np.where(t < 0.0, -1.0, 1.0)

    g = Nonlinearity.from_callable(lambda t: 0.0 * t, deriv=deriv)
    for u in (np.r_[np.zeros(k), -np.ones(grid.total_interior - k)],
              np.r_[-np.ones(k), np.zeros(grid.total_interior - k)]):
        with pytest.raises(ValueError, match="invalid nonlinearity: negative derivative"):
            solver._shift(grid, g, u)
    assert len(seen) == 2
    assert (seen[0] != threading.get_ident()) == TWO_CPUS and seen[1] == threading.get_ident()


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
    _passes(monkeypatch, True, worker=False)
    assert u.values.tobytes() == solve_semilinear(grid, g, m)[0].values.tobytes()


def test_the_worker_keeps_no_array_after_a_job(monkeypatch):
    _split_now(monkeypatch)
    a = np.random.default_rng(0).standard_normal(4096)
    out = np.empty_like(a)
    assert kernels.runner(3, a.size) is kernels._two
    kernels._two(np.multiply, (a[:99], 2.0, out[:99]), (a[99:], 2.0, out[99:]))
    assert np.array_equal(out, 2.0 * a)
    refs = weakref.ref(a), weakref.ref(out)
    del a, out
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert kernels._worker.job is None and kernels._worker.result is None


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
    _passes(monkeypatch, True, worker=False)
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


def _placement():
    """The caller's CPU and the worker's allowed CPUs, just after a hand-off."""
    kernels._two(int, (), ())
    return kernels._getcpu(), os.sched_getaffinity(kernels._worker.native_id)


@pytest.mark.skipif(not PLACED, reason="needs two CPUs and thread placement")
def test_the_worker_leaves_a_cpu_its_caller_moves_to(monkeypatch):
    _split_now(monkeypatch)
    cpu, cpus = _placement()
    assert cpus and cpu not in cpus
    mask, moved_to = os.sched_getaffinity(0), min(cpus)
    os.sched_setaffinity(0, {moved_to})
    try:
        _solve_47()
        assert moved_to not in os.sched_getaffinity(kernels._worker.native_id)
    finally:
        os.sched_setaffinity(0, mask)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("case", ["the OS refuses", "one CPU"])
def test_a_worker_that_cannot_be_placed_runs_unbound_to_the_serial_bits(monkeypatch, case):
    grid, g, m = _state_problem(7)
    _passes(monkeypatch, True, worker=False)
    expected = solve_semilinear(grid, g, m)[0].values.tobytes()
    _passes(monkeypatch, True)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(kernels, "_worker", None)  # a fresh worker, left idle afterwards
    mask = os.sched_getaffinity(0)
    if case == "one CPU":
        os.sched_setaffinity(0, {min(mask)})
    else:
        def refuse(*args):
            raise PermissionError("refused")
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    try:
        creators = os.sched_getaffinity(0)
        got = solve_semilinear(grid, g, m)[0].values.tobytes()
        worker = kernels._worker
        workers = os.sched_getaffinity(worker.native_id)
    finally:
        if case == "one CPU":
            os.sched_setaffinity(0, mask)
    assert got == expected
    assert not worker.cpus and workers == creators


def _solve_47():
    return solve_semilinear(*_state_problem(47))[0].values


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_solves_without_its_parents_worker(monkeypatch):
    # the child inherits the worker object but not its thread; handing it
    # a half would wait forever, so the fork hook drops it.  The child's own
    # worker is placed away from the child's CPU
    _split_now(monkeypatch, skip=False)
    expected = _digest(_solve_47())
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:
        try:
            digest = _digest(_solve_47())
            cpu, cpus = _placement() if PLACED else (None, {0})
            os.write(write_end, f"{digest} {bool(cpus) and cpu not in cpus}".encode())
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 120)
        got = os.read(read_end, 128).decode() if ready else None
    finally:
        if not ready:
            os.kill(pid, 9)
        os.waitpid(pid, 0)
        os.close(read_end)
    assert got == f"{expected} True"


def test_the_transform_cuts_keep_the_bits_of_the_whole_products(monkeypatch):
    # a split sine_solve against the whole one, 3-D grids from SPLIT_MIN nodes up: both run
    # the same jobs, and the leading axis is cut on DGEMM tiles
    least = kernels.SPLIT_MIN
    for n in (38, 41, 47, 49, 55, 57, 63):
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n ** 3) * 10.0 ** rng.integers(-5, 5, n ** 3)
        assert b.size >= least
        got = []
        for cut in (True, False):
            _passes(monkeypatch, cut)
            got.append(sine_solve(b, inverse_eigenvalues(3, n, n), 3, n,
                                  *np.empty((3, b.size))).tobytes())
        assert got[0] == got[1], n


def test_only_large_3d_grids_on_two_cpus_with_one_blas_thread_split(monkeypatch):
    least = kernels.SPLIT_MIN
    assert kernels._set_threads  # numpy's OpenBLAS, set to one thread as measopt loads
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    assert kernels.runner(3, least) is kernels._two
    assert kernels.runner(3, least - 1) is None
    assert kernels.runner(2, 10 * least) is None
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    assert kernels.runner(3, least) is kernels._in_turn
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(kernels, "_set_threads", None)  # a BLAS whose threads measopt can't set
    assert kernels.runner(3, least) is kernels._in_turn


_SETTINGS = """
import hashlib, os, sys, threading
from pathlib import Path
if sys.argv[1] == "one CPU":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from measopt import (DiscreteMeasure, Nonlinearity, ScalarField, build_grid, kernels,
                     run_experiment, solve_semilinear)
threads = threading.active_count()
for n in (38, 47, 63):  # _state_problem(n), without importing the tests' dependencies
    grid = build_grid(3, n)
    m = DiscreteMeasure(3, atoms=(((0.3, 0.4, 0.6), 0.08), ((0.7, 0.5, 0.4), -0.06)),
                        density=ScalarField(grid, 12.0 * np.exp(
                            -((grid.node_coords() - 0.5) ** 2).sum(axis=1) / 0.02)))
    u = solve_semilinear(grid, Nonlinearity.power(3.0), m)[0].values
    print(n, hashlib.sha256(u.tobytes()).hexdigest())
run_experiment("exp_dirac_collapse", {"levels": [31, 47]}, sys.argv[2], seed=0)
for path in sorted(Path(sys.argv[2]).rglob("*.*")):
    print(path.relative_to(sys.argv[2]), hashlib.sha256(path.read_bytes()).hexdigest())
if kernels._worker and kernels._getcpu:
    kernels._two(int, (), ())  # a hand-off: the caller's CPU and the worker's CPUs after it
    print("worker:", kernels._getcpu(), *sorted(os.sched_getaffinity(kernels._worker.native_id)))
else:
    print("worker: unplaced")
print("threads started:", threading.active_count() - threads)
"""


@pytest.fixture(scope="module")
def blas_settings(tmp_path_factory):
    """Per BLAS setting, in a fresh interpreter: digests of 3-D n = 38, 47 and 63 solves (all
    cut) and of exp_dirac_collapse's files at levels (31, 47), then the caller's CPU and the
    worker's CPUs, and the threads started."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs CPU affinity")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out, runs = tmp_path_factory.mktemp("settings"), {}
    for setting, blas in (("unset", {}), ("1", {"OPENBLAS_NUM_THREADS": "1"}),
                          ("2", {"OPENBLAS_NUM_THREADS": "2"}), ("one CPU", {})):
        runs[setting] = subprocess.run(
            [sys.executable, "-c", _SETTINGS, setting, str(out / setting)], env={**env, **blas},
            capture_output=True, text=True, timeout=300, check=True).stdout.splitlines()
    return runs


def test_one_cpu_runs_every_pass_serially_to_the_same_bits(blas_settings):
    assert blas_settings["unset"][-1] == f"threads started: {int(TWO_CPUS)}"
    assert blas_settings["one CPU"][-2:] == ["worker: unplaced", "threads started: 0"]
    assert blas_settings["one CPU"][:3] == blas_settings["unset"][:3]


@pytest.mark.skipif(not PLACED, reason="needs two CPUs and thread placement")
def test_a_fresh_interpreters_worker_is_bound_away_from_its_caller(blas_settings):
    label, cpu, *cpus = blas_settings["unset"][-2].split()
    assert label == "worker:" and cpus and cpu not in cpus


def test_no_blas_thread_setting_or_cpu_count_changes_an_output_byte(blas_settings):
    # a threaded BLAS cuts each product its own way; measopt sets it to one thread itself
    runs = {setting: lines[:-2] for setting, lines in blas_settings.items()}
    assert len(runs["unset"]) == 6  # the three solves, the two tables and summary.json
    assert runs == {setting: runs["unset"] for setting in runs}
