"""Hot numeric kernels: stencil application and the shifted solve.

All kernels act on flat float64 arrays of interior values of the unit
box in lexicographic node order, with an implicit zero Dirichlet
boundary: stencil reads outside the index range contribute 0.  A kernel
takes the grid as (dim, n) and reads all it derives from it from ``grid_plan``.

On this box the orthonormal type-I sine transform S diagonalizes -Lap_h
(the fast Poisson solver of Buzbee, Golub and Nielson, 1970), so
``sine_solve`` applies (-Lap_h + c I)^-1 exactly in two transforms.  The
shifted solve (-Lap_h + diag(d)) x = b runs conjugate gradients
preconditioned by it, M = -Lap_h + c I with c = mean(d).  Writing
A = M + diag(d - c), CG carries M p alongside each direction p
(Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981) and forms A p from it,
so one iteration costs two transforms and no stencil; the stencil runs
once per solve, in the true-residual check after the loop, which alone
decides convergence by one rule: it passes at the caller's tolerance or
at ``rounding_floor``, FLOOR_C eps h^dim sum(|b| + (4 dim/h^2)|x| + |f(x)|),
the rounding error of evaluating it, where a true CG residual stalls
(4 dim/h^2 is the row sum of |-Lap_h|; Greenbaum, SIMAX 18, 1997;
Higham 2002, ch. 7).  For a constant d, CG stops after one iteration at
M^-1 b bit for bit (A p = M p = b, so alpha = 1): what ``sine_solve``
returns without CG's set-up and residual check, so every constant-shift
solve is ``sine_solve`` and CG sees only nodal shifts.  A solve works in
one six-slot workspace (r, z, p, M p, A p and scratch) that a caller may
pass to many solves: every update, both transforms of the preconditioner
and the true-residual check write into its slots, so a CG iteration
allocates no full-grid array and a repeated 3-D solve takes no page
faults (BENCH_19_workspace.json).  The transform is a dense product with the
symmetric n x n sine matrix per axis, O(n^(dim+1)) flops in all, with no
transposed copy: a S per n x n slab of axis 0 for the last axis (in 1-D,
the row), S a for the leading axis and S per slab for the middle one.  At
the sizes measopt runs this beats an FFT, whose cost at small n goes to
axis bookkeeping and padded copies rather than arithmetic: against a
zero-padded real FFT per axis with one BLAS thread it was 1.7-6.7x faster
in 2-D for n = 17..255 and 1.3-8.5x in 3-D for n = 15..191, tying at 2-D n = 511.

From SPLIT_MIN nodes of a 3-D grid (n >= 38) a solve's full-grid work runs
as jobs in two halves cut at row n // 2 of axis 0 (``_halves``), whose partial
sums add low + high.  The stencil, whole or cut, is ``_rows``: one subtraction
per neighbour over the flat nodes, per slab for the middle axis and masked at
the row ends for the last.  ``sine_solve`` runs one job sequence on every
grid: the cut decides only whether a job runs whole or in halves, and changes
no byte of it, as the leading axis is cut on OpenBLAS's DGEMM tiles and every
other job per slab.  The grid alone fixes the bytes: the high half runs
on one daemon worker, which calls no name a tracer may wrap, on two CPUs or
more, else after the low half.  Where the OS says which CPU a thread is on and
lets a thread be bound (Linux with glibc), the worker is bound to the CPUs its
creator may use but the one the creator is on, and bound again whenever a
hand-off finds its caller on one of them: left to itself, the scheduler wakes
the worker on its caller's CPU, and the halves take turns.  The caller is
never bound.  A state solve of one Newton step and two CG iterations hands the
worker 36 jobs, one of them the clip of its start.  Importing measopt starts
numpy's OpenBLAS on one thread, when numpy is not yet loaded, and sets it to
one thread for good, for the whole process and its user threads: a threaded
BLAS cuts each product its own way, so its sums would depend on the thread
count (Demmel and Nguyen, ARITH 21, 2013), and a restore would race with a
solve on another thread.  A BLAS with no such setter (MKL, Accelerate) keeps
its own threads, and every pass runs whole or in turn.

Independent 2-D instances are bound by the interpreter, so threads cannot share
them out; ``_map_instances`` runs them on two processes instead: the truncation
suite's instances, the regularity suite's optimizations and ``alpha_sweep``'s
levels.  One forked child takes the odd-indexed items, bound like the worker to
the CPUs but its parent's, and sends its results back pickled through a pipe.
Each result is computed as in a serial run, so the output bytes do not change.
The map runs serially without ``os.fork``, on one CPU, where a process cannot
be placed, and inside its own child.  Other work stays in one process: the
mollification experiment's six short solves lost more to the fork than they
gained, and 3-D grids already use both CPUs through the worker.
"""
from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
import pickle
import signal
import threading
import warnings
from typing import NamedTuple

import numpy as np

HAVE_NUMBA = False  # no numba backend; perfbench records this flag
FLOOR_C = 8.0  # safety factor of the rounding floor; stalls sit near 1x
SPLIT_MIN = 54_000  # nodes of a 3-D grid from which a full-grid pass runs on two threads
TILE = 24  # a leading-axis product is cut at a multiple of this many columns
_blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # numpy's BLAS, set to one thread
_set_threads = (getattr(_blas, "scipy_openblas_set_num_threads64_", None)  # numpy 2.x
                or getattr(_blas, "openblas_set_num_threads64_", None))  # numpy 1.x
if _set_threads:
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
    _set_threads(1)
# glibc's sched_getcpu, found through the BLAS's libc, where a thread can be bound (Linux)
_getcpu = getattr(_blas, "sched_getcpu", None) if hasattr(os, "sched_setaffinity") else None
if _getcpu:
    _getcpu.argtypes, _getcpu.restype = [], ctypes.c_int


def backend_name() -> str:
    return "numpy"


class Plan(NamedTuple):
    """What the kernels read of the grid with n interior nodes per axis in dim dimensions."""
    h: float
    hd: float        # h^dim, the quadrature weight
    inv_h2: float    # 1/h^2, the stencil's scale
    sine: np.ndarray   # S[j, k] = sqrt(2/(n+1)) sin(pi jk/(n+1)), read-only
    eig: np.ndarray    # the eigenvalues of -Lap_h on the sine modes, flat, read-only
    axes: tuple        # per axis the stride s of the flat nodes: a node's neighbours are i +- s
    mask: np.ndarray   # mask[i]: node i + 1 is i's neighbour along the last axis, read-only
    slabs: tuple       # a flat array as the n x n slabs of axis 0 that S multiplies; 1-D: a row
    two: object        # None (jobs run whole) or ``runner``'s way to run a cut job's halves
    run: object        # run(fn, *args) makes fn(*args) a job: whole, or ``_halves``


@functools.lru_cache(maxsize=32)
def grid_plan(dim: int, n: int) -> Plan:
    """The grid's plan, built once; S is the orthonormal DST-I matrix, its own inverse."""
    h = 1.0 / (n + 1)
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))  # sin's period
    sine = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))
    lam1 = (2.0 / h) ** 2 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2
    # Full-grid sums on purpose: their temporaries size the heap that 3-D solves reuse; a
    # broadcast sum cost 1,800-3,000 page faults per n = 47 or 63 solve (ROADMAP item 8).
    eig = np.zeros((n,) * dim)
    for ax in range(dim):
        eig = eig + lam1.reshape((n,) + (1,) * (dim - 1 - ax))
    mask = np.tile(np.arange(n) < n - 1, n ** (dim - 1))  # node i has i + 1 on its row
    sine.flags.writeable = eig.flags.writeable = mask.flags.writeable = False
    two = runner(dim, n ** dim)
    return Plan(h, h ** dim, 1.0 / (h * h), sine, eig.reshape(-1),
                tuple(n ** (dim - 1 - ax) for ax in range(dim)), mask,
                (-1, n, n) if dim == 3 else (n ** (dim - 1), n), two,
                _call if two is None else functools.partial(_halves, two, n // 2 * n ** (dim - 1)))


_call = getattr(operator, "call", lambda fn, *args: fn(*args))  # operator.call: Python 3.11


def _halves(two, cut, fn, *args):
    """fn(*args) as two halves cut at the flat index ``cut`` (row n // 2 of axis 0), run by
    ``two``: each array in args with an axis is cut there, a tuple gives each half its own
    entry and any other argument goes to both.  The halves' results add low + high when
    they are numbers or tuples of numbers; any other result is dropped."""
    low, high = two(fn, *([a[i] if type(a) is tuple else
                           a[part] if isinstance(a, np.ndarray) and a.ndim else a for a in args]
                          for i, part in enumerate((slice(0, cut), slice(cut, None)))))
    if isinstance(low, tuple):
        return tuple(lo + hi for lo, hi in zip(low, high))
    return low + high if isinstance(low, float) else None


class _Worker(threading.Thread):
    """The daemon thread that runs the high half of a split pass while its caller runs the low."""

    def __init__(self):
        super().__init__(name="measopt-split", daemon=True)
        self.busy, self.go, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire(), self.done.acquire()
        self.job = self.result = self.error = None
        self.cpus = frozenset()  # the CPUs it is bound to; none: unbound
        self.start()
        if _getcpu:
            self.allowed = frozenset(os.sched_getaffinity(0))  # its creator's, and so its own
            self.bind(_getcpu())

    def bind(self, cpu):
        """Bind this thread to the allowed CPUs but ``cpu``, its caller's.  With no other
        CPU, or if the OS refuses, leave its CPUs as they are and place it no more."""
        others = self.allowed - {cpu}
        try:
            if others:
                os.sched_setaffinity(self.native_id, others)
        except OSError:
            others = frozenset()
        self.cpus = others

    def run(self):
        while self.go.acquire():
            try:
                self.result = self.job[0](*self.job[1])
            except BaseException as exc:  # re-raised by the caller
                self.error = exc
            self.job = None  # keep no array past the job
            self.done.release()


_worker, _worker_lock = None, threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child inherits the worker but not its thread
    os.register_at_fork(after_in_child=lambda: globals().update(
        _worker=None, _worker_lock=threading.Lock()))


_cpu_count = ((lambda: len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity")
              else lambda: os.cpu_count() or 1)  # the CPUs this process may run on


def runner(dim: int, size: int):
    """How the full-grid passes over ``size`` nodes of a dim-D grid run: whole (None) outside
    3-D or below SPLIT_MIN nodes; else in two halves, the high one on the worker (``_two``)
    on two CPUs with BLAS on one thread, or else after the low one (``_in_turn``), to the
    same bytes.  ``grid_plan`` asks once per grid."""
    if dim != 3 or size < SPLIT_MIN:
        return None
    return _two if _set_threads and _cpu_count() > 1 else _in_turn


def _two(fn, lo, hi):
    """(fn(*lo) here, fn(*hi) in the worker, kept off this thread's CPU), whose error is
    re-raised here; both here, in turn, when another thread holds the worker."""
    global _worker
    with _worker_lock:
        worker = _worker = _worker or _Worker()
    if not worker.busy.acquire(blocking=False):
        return _in_turn(fn, lo, hi)
    if worker.cpus and (cpu := _getcpu()) in worker.cpus:  # the caller moved onto them
        worker.bind(cpu)
    worker.job = fn, hi
    worker.go.release()
    try:
        low = fn(*lo)
    finally:
        worker.done.acquire()  # if interrupted, busy stays held and passes run serially
        error, high, worker.error, worker.result = worker.error, worker.result, None, None
        worker.busy.release()
    if error is not None:
        raise error
    return low, high


def _in_turn(fn, lo, hi):
    return fn(*lo), fn(*hi)


_forked = False  # True in a child of ``_map_instances``, whose maps run serially


def _map_instances(fn, items) -> list:
    """[fn(x) for x in items], the even-indexed items here and the odd ones in one forked child.

    Both processes iterate all of ``items`` in order, so items drawn from a random generator
    are the serial run's, and neither process holds them all.  The child binds itself to the
    CPUs but this process's (unbound, the scheduler kept it there and the halves took turns)
    and sends its results, or its exception, pickled through a pipe; they are merged here in
    input order, or the exception (a ``ConvergenceError`` keeps its report) is raised.  The
    child leaves through ``os._exit`` and is reaped on every path, killed first if this half
    raises or is interrupted.  Serial on one CPU, where a process cannot be placed (no
    ``_getcpu``, as wherever ``os.fork`` is missing), inside a child and when the fork
    fails.  Python 3.12 warns when a process with threads forks; that is ignored: the child
    runs fn alone, and the at-fork hook drops the split worker, measopt's one thread.
    """
    if _forked or not _getcpu or _cpu_count() < 2:
        return [fn(x) for x in items]
    cpu = _getcpu()
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
            pid = os.fork()
    except OSError:  # no process to be had (EAGAIN, ENOMEM): every item runs here
        os.close(read_end), os.close(write_end)
        return [fn(x) for x in items]
    if pid == 0:
        _child_half(fn, items, cpu, write_end)  # never returns
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            ours = [fn(x) for i, x in enumerate(items) if i % 2 == 0]
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"the process mapping the odd-indexed instances ended without "
                           f"a result ({how})")
    ok, theirs = pickle.loads(reply)  # bytes the child wrote
    if not ok:
        raise theirs
    merged = ours + theirs
    merged[::2], merged[1::2] = ours, theirs
    return merged


def _child_half(fn, items, cpu, write_end):
    """In the child: fn of the odd-indexed items, or the error raised, pickled into write_end;
    then the child exits."""
    global _forked
    code = 1
    try:
        _forked = True
        try:
            os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
        except OSError:
            pass  # refused: run where the scheduler puts it
        try:
            reply = True, [fn(x) for i, x in enumerate(items) if i % 2]
        except BaseException as exc:  # re-raised by the parent
            reply = False, exc
        with open(write_end, "wb") as pipe:  # a reply that cannot be pickled exits with 1
            pipe.write(pickle.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def neg_laplacian_numpy(u, dim: int, n: int, out=None):
    """(2 dim u_i - sum of the 2 dim neighbours) / h^2 for the flat array u of
    n**dim values in lexicographic order, reading out-of-range neighbours as 0.

    Written into the flat array ``out`` when given, which must not be u.
    """
    plan = grid_plan(dim, n)
    if out is None:
        out = np.empty(u.size)
    if plan.two:
        cut = n // 2 * n ** (dim - 1)
        plan.two(_rows, (u, out, 0, cut, plan), (u, out, cut, u.size, plan))
    else:
        _rows(u, out, 0, u.size, plan)
    return out


neg_laplacian = neg_laplacian_numpy


def _rows(u, out, lo, hi, plan: Plan):
    """Nodes lo:hi (whole rows of axis 0) of -Lap_h u into out, in ``neg_laplacian``'s order:
    per axis the upper, then the lower neighbour, one subtraction over the nodes that have it."""
    rows = np.multiply(u[lo:hi], 2.0 * len(plan.axes), out=out[lo:hi])
    for ax, s in enumerate(plan.axes):
        top, bottom = min(hi, u.size - s), max(lo, s)  # out[:top] has i + s, out[bottom:] i - s
        up, down = out[lo:top], out[bottom:hi]
        if ax == 0:  # no node in range lacks it; where=True would take a slower masked loop
            np.subtract(up, u[lo + s:top + s], out=up)
            np.subtract(down, u[bottom - s:hi - s], out=down)
        elif s > 1:  # the middle axis, slab by slab: a slab's rows but the last, or the first
            o, a = (v[lo:hi].reshape(-1, len(plan.sine) * s) for v in (out, u))
            np.subtract(o[:, :-s], a[:, s:], out=o[:, :-s])
            np.subtract(o[:, s:], a[:, :-s], out=o[:, s:])
        else:  # the last axis, masked at the ends of each row
            np.subtract(up, u[lo + 1:top + 1], out=up, where=plan.mask[lo:top])
            np.subtract(down, u[bottom - 1:hi - 1], out=down, where=plan.mask[bottom - 1:hi - 1])
    rows *= plan.inv_h2


def inverse_eigenvalues(dim: int, n: int, c: float) -> np.ndarray:
    """(lam + c)^-1 for the eigenvalues lam of -Lap_h, flat; a fresh array."""
    plan = grid_plan(dim, n)
    inv_eig = np.empty(plan.eig.size)
    plan.run(_inverse, plan.eig, c, inv_eig)
    return inv_eig


def _inverse(eig, c, out):
    np.divide(1.0, np.add(eig, c, out=out), out=out)


def sine_solve(b, inv_eig, dim: int, n: int, out, mid, tmp):
    """out = S(inv_eig * S b) = (-Lap_h + c I)^-1 b for ``inverse_eigenvalues(dim, n, c)``.

    ``out``, ``mid`` and ``tmp`` are flat, disjoint from b and each other.  Each transform
    takes the last axis, then the leading one, then the middle one.  1-D is two row products;
    2-D and 3-D run the jobs ``_last``, [``_leading``,] ``_scaled`` (the middle axis, the
    scaling and the inverse's last axis), [``_leading``,] ``_middle``, whole or in halves.
    """
    plan = grid_plan(dim, n)
    run = plan.run
    run(_last, b, tmp, plan)
    if dim == 1:  # one row: its last axis is the whole transform
        run(_last, np.multiply(tmp, inv_eig, out=tmp), out, plan)
        return out
    if dim == 3:
        _leading(tmp, mid, plan)
        run(_scaled, mid, inv_eig, tmp, plan)
        _leading(mid, tmp, plan)
    else:
        run(_scaled, tmp, inv_eig, mid, plan)
    run(_middle, tmp, out, plan)
    return out


def _last(a, out, plan: Plan):  # out = a S, one product per slab
    np.matmul(a.reshape(plan.slabs), plan.sine, out=out.reshape(plan.slabs))


def _middle(a, out, plan: Plan):  # out = S a, one product per slab
    np.matmul(plan.sine, a.reshape(plan.slabs), out=out.reshape(plan.slabs))


def _scaled(a, inv_eig, tmp, plan: Plan):  # a = (inv_eig * S a) S, slab by slab
    _middle(a, tmp, plan)
    _last(np.multiply(tmp, inv_eig, out=tmp), a, plan)


def _leading(a, out, plan: Plan):  # out = S a along axis 0; cut, in column halves on DGEMM tiles
    s, n = plan.sine, len(plan.sine)
    a, out, cols = a.reshape(n, n * n), out.reshape(n, n * n), n * n // 2 // TILE * TILE
    if plan.two is None:
        np.matmul(s, a, out=out)
    else:
        plan.two(np.matmul, (s, a[:, :cols], out[:, :cols]), (s, a[:, cols:], out[:, cols:]))


def rounding_floor(b, x, fx, dim: int, n: int, out) -> float:
    """Rounding floor of the weighted-L1 norm of b - (-Lap_h x + f(x)); sum |fx| >= sum |f(x)|.

    ``out`` is scratch of b's size for the absolute values; it may be fx, and fx may be b.
    """
    plan = grid_plan(dim, n)
    sum_b, sum_x, sum_fx = plan.run(_floor_sums, b, x, fx, out)
    total = float(sum_b + 4.0 * dim / (plan.h * plan.h) * sum_x + sum_fx)
    return FLOOR_C * float(np.finfo(np.float64).eps) * plan.hd * total


def _floor_sums(b, x, fx, out):  # sum |fx| first, so that out may be fx
    sum_fx = np.abs(fx, out=out).sum()
    return np.abs(b, out=out).sum(), np.abs(x, out=out).sum(), sum_fx


def cg_shifted(b, diag, dim: int, n: int, atol_l1: float, maxiter: int, work=None):
    """Preconditioned conjugate gradients for (-Lap_h + diag(d)) x = b from x = 0.

    ``diag`` is a flat array or, for a constant shift, a 0-d one.  The
    preconditioner is M^-1 with M = -Lap_h + c I and c = mean(d),
    applied exactly by the sine transform.  Every direction is
    p = z + beta * p_old with M z = r, so M p = r + beta * M p_old, and
    A p = M p + (d - c) p needs no stencil.  The loop has one exit: the
    recurrence residual drops to ``atol_l1`` in the quadrature-weighted
    L1 norm, or it is not finite, or p A p <= 0, or ``maxiter`` is
    reached.  The true residual b - A x then decides ``converged`` by the
    module's one rule, so recurrence drift cannot fake convergence.

    ``work`` is a (6, b.size) float64 workspace for r, z, p, M p, A p and
    scratch; every update, transform and the true-residual check write
    into it, so an iteration allocates nothing.  A caller that solves
    repeatedly passes one workspace to every call; without it CG
    allocates its own.  Slots are written before they are read, and x is
    a fresh array that aliases none of them.  Each node-by-node phase is
    one ``Plan.run`` pass that returns the sums its step reads.

    Returns
    -------
    (x, iterations, residual_l1, converged)
    """
    plan = grid_plan(dim, n)
    if work is None:
        work = np.empty((6, b.size))
    hd = plan.hd
    r, z, p, mp_slot, ap, tmp = work
    c = float(plan.run(np.ndarray.sum, diag) if diag.ndim else diag) / diag.size  # mean(d)
    inv_eig = inverse_eigenvalues(dim, n, c)
    d_minus_c, x = np.empty(b.size), np.empty(b.size)
    res_l1 = hd * float(plan.run(_cg_start, b, diag, c, d_minus_c, x, r, tmp))
    if res_l1 <= atol_l1:
        return x, 0, res_l1, True
    sine_solve(r, inv_eig, dim, n, p, ap, tmp)  # the first direction is z = M^-1 r
    mp = b  # M p = r = b; the first update moves it into its slot
    rz = float(plan.run(operator.matmul, r, p))
    pAp = float(plan.run(_cg_ap, mp, d_minus_c, p, ap))
    it = 0
    while it < maxiter:
        if pAp <= 0.0:
            break  # loss of positive definiteness: bail to true-residual check
        alpha = rz / pAp
        res_l1 = hd * float(plan.run(_cg_step, x, r, p, ap, alpha, tmp))
        it += 1
        if res_l1 <= atol_l1 or not math.isfinite(res_l1):  # NaN or inf in b or d
            break
        sine_solve(r, inv_eig, dim, n, z, ap, tmp)
        rz_new = float(plan.run(operator.matmul, r, z))
        beta = rz_new / rz
        pAp = float(plan.run(_cg_directions, z, beta, mp_slot, r, mp, p, d_minus_c, ap))
        mp, rz = mp_slot, rz_new
    neg_laplacian_numpy(x, dim, n, out=ap)
    res_l1 = hd * float(plan.run(_cg_residual, b, diag, x, ap, tmp, r, z))
    return x, it, res_l1, res_l1 <= atol_l1 or res_l1 <= rounding_floor(b, x, tmp, dim, n, out=tmp)


# the phases of ``cg_shifted``

def _cg_start(b, diag, c, d_minus_c, x, r, tmp):  # d - c, x = 0 and r = b; sum |r|
    np.subtract(diag, c, out=d_minus_c)
    x.fill(0.0)
    np.copyto(r, b)
    return np.abs(r, out=tmp).sum()


def _cg_ap(mp, d_minus_c, p, ap):  # A p; p A p
    np.add(mp, np.multiply(d_minus_c, p, out=ap), out=ap)
    return p @ ap


def _cg_step(x, r, p, ap, alpha, tmp):  # x and r; sum |r|
    x += np.multiply(p, alpha, out=tmp)
    r -= np.multiply(ap, alpha, out=tmp)
    return np.abs(r, out=tmp).sum()


def _cg_directions(z, beta, mp_slot, r, mp, p, d_minus_c, ap):  # the next p, M p and A p
    np.add(z, np.multiply(p, beta, out=p), out=p)
    return _cg_ap(np.add(r, np.multiply(mp, beta, out=mp_slot), out=mp_slot), d_minus_c, p, ap)


def _cg_residual(b, diag, x, ap, fx, r, z):  # r = b - (ap + fx), fx = diag x; sum |r|
    return np.abs(np.subtract(b, np.add(ap, np.multiply(diag, x, out=fx), out=ap), out=r),
                  out=z).sum()
