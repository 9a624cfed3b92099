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
symmetric n x n sine matrix per axis, O(n^(dim+1)) flops in all:
a.reshape(-1, n) @ S for the last axis and S @ a.reshape(n**ax, n, -1)
for every other axis ax, with no transposed copy.  At the sizes measopt
runs this beats an FFT, whose cost at small n goes to axis bookkeeping
and padded copies rather than arithmetic: against a zero-padded real FFT
per axis with one BLAS thread it was 1.7-6.7x faster in 2-D for
n = 17..255 and 1.3-8.5x in 3-D for n = 15..191, tying at 2-D n = 511.

From SPLIT_MIN nodes of a 3-D grid (n >= 38) every full-grid pass of a
solve (transform products, stencil, g and g', vector updates) runs as
two halves cut at row n // 2 of axis 0 (``_halves``), each returning
its pass's partial sums, which add low + high.  The grid alone fixes the
sums' order and a product is cut on OpenBLAS's DGEMM tiles, so the bytes
do not depend on where the high half runs: on one daemon worker, which
calls no name a tracer may wrap, with one BLAS thread and two CPUs or
more, else after the low half.  A threaded BLAS cuts its products its
own way and already spreads them over both cores, so without
OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) = 1 the worker stays idle.
Split, one transform took 0.55-0.71 of its whole time at n = 63 (in four
runs of five) and 0.68-0.89 at n = 47, but 1.4-2.1 times it at n = 31,
where the 30 us hand-off loses (BENCH_30_two_core.json).
"""
from __future__ import annotations

import functools
import math
import operator
import os
import threading
from typing import NamedTuple

import numpy as np

HAVE_NUMBA = False  # no numba backend; perfbench records this flag
FLOOR_C = 8.0  # safety factor of the rounding floor; stalls sit near 1x
SPLIT_MIN = 54_000  # nodes of a 3-D grid from which a full-grid pass runs on two threads
TILE = 24  # a product is cut at a multiple of this many rows or columns
# OpenBLAS reads its thread count as numpy loads it
ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) == "1"


def backend_name() -> str:
    return "numpy"


class Plan(NamedTuple):
    """What the kernels read of the grid with n interior nodes per axis in dim dimensions."""
    h: float
    hd: float        # h^dim, the quadrature weight
    inv_h2: float    # 1/h^2, the stencil's scale
    sine: np.ndarray   # S[j, k] = sqrt(2/(n+1)) sin(pi jk/(n+1)), read-only
    eig: np.ndarray    # the eigenvalues of -Lap_h on the sine modes, flat, read-only
    slices: tuple      # per axis (lo, hi), then (hi, lo): out[lo] -= a[hi]
    passes: tuple      # the shape of each transform pass: last axis first
    two: object        # None (passes run whole) or ``runner``'s way to run a cut pass's halves
    run: object        # run(fn, *args) makes fn(*args) a pass: whole, or ``_halves``


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
    sine.flags.writeable = eig.flags.writeable = False  # and so is eig's flat view
    lo, hi = slice(0, n - 1), slice(1, n)
    slices = []
    for ax in range(dim):
        pre, post = (slice(None),) * ax, (slice(None),) * (dim - 1 - ax)
        below, above = pre + (lo,) + post, pre + (hi,) + post
        slices += [(below, above), (above, below)]
    passes = ((n ** (dim - 1), n),) + tuple((n ** ax, n, n ** (dim - 1 - ax))
                                            for ax in range(dim - 1))
    two = runner(dim, n ** dim)
    return Plan(h, h ** dim, 1.0 / (h * h), sine, eig.reshape(-1), tuple(slices), passes, two,
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
        self.start()

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
    with one BLAS thread and two CPUs, or else after the low one (``_in_turn``), to the
    same bytes.  ``grid_plan`` asks once per grid."""
    if dim != 3 or size < SPLIT_MIN:
        return None
    return _two if ONE_BLAS_THREAD and _cpu_count() > 1 else _in_turn


def _two(fn, lo, hi):
    """(fn(*lo) here, fn(*hi) in the worker), whose error is re-raised here; both here, in
    turn, when another thread holds the worker."""
    global _worker
    with _worker_lock:
        worker = _worker = _worker or _Worker()
    if not worker.busy.acquire(blocking=False):
        return _in_turn(fn, lo, hi)
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


def neg_laplacian_numpy(u, dim: int, n: int, out=None):
    """(2 dim u_i - sum of the 2 dim neighbours) / h^2 for the flat array u of
    n**dim values in lexicographic order, reading out-of-range neighbours as 0.

    Written into the flat array ``out`` when given, which must not be u.
    """
    plan = grid_plan(dim, n)
    a = u.reshape((n,) * dim)
    if out is None:
        out = np.empty(u.size)
    if plan.two:
        res = out.reshape(a.shape)
        plan.two(_slab, (a, res, 0, n // 2, plan), (a, res, n // 2, n, plan))
        return out
    res = np.multiply(a, 2.0 * dim, out=out.reshape(a.shape))
    for lo, hi in plan.slices:
        o = res[lo]  # a view: the subtraction writes into res, with no copy back
        np.subtract(o, a[hi], out=o)
    res *= plan.inv_h2
    return out


neg_laplacian = neg_laplacian_numpy


def _slab(a, res, lo, hi, plan: Plan):
    """Rows lo:hi (along axis 0) of -Lap_h a into res, each node in ``neg_laplacian``'s order."""
    rows, a_rows = np.multiply(a[lo:hi], 2.0 * a.ndim, out=res[lo:hi]), a[lo:hi]
    top, bottom = min(hi, a.shape[0] - 1), max(lo, 1)
    pairs = [(res[lo:top], a[lo + 1:top + 1]), (res[bottom:hi], a[bottom - 1:hi - 1])]
    for o, b in pairs + [(rows[below], a_rows[above]) for below, above in plan.slices[2:]]:
        np.subtract(o, b, out=o)
    rows *= plan.inv_h2


def _sine_transform(a, plan: Plan, out, tmp):
    """Orthonormal type-I sine transform of the flat array a over every axis.

    The last axis is one product ``a.reshape(-1, n) @ S``; every other
    axis ``ax`` is ``S @ a.reshape(n**ax, n, -1)``, a single product for
    the leading axis and a batched one for a middle axis.  S is
    symmetric, so no pass needs a transposed copy.  The products
    ping-pong between ``out`` and ``tmp``, flat buffers of a's size that
    must not overlap a or each other, so that the last lands in ``out``.
    a is left unchanged.
    """
    s = plan.sine
    first, *rest = plan.passes
    dst, src = (out, tmp) if len(plan.passes) % 2 else (tmp, out)
    np.matmul(a.reshape(first), s, out=dst.reshape(first))
    for shape in rest:
        src, dst = dst, src
        np.matmul(s, src.reshape(shape), out=dst.reshape(shape))
    return out


def _transform_halves(a, plan: Plan, out, tmp):
    """``_sine_transform`` on a 3-D grid, each product cut in two at (axis, k): the last
    axis's by rows and the leading axis's by columns at a multiple of TILE, the middle
    axis's by batch."""
    s, n = plan.sine, len(plan.sine)
    half = n * n // 2 // TILE * TILE
    for i, (x, y, axis, k) in enumerate(((a, out, 0, half), (out, tmp, 2, half),
                                         (tmp, out, 0, n // 2))):
        x, y = x.reshape(plan.passes[i]), y.reshape(plan.passes[i])
        lo, hi = ((slice(None),) * axis + (part,) for part in (slice(0, k), slice(k, None)))
        plan.two(np.matmul, *((x[c], s, y[c]) if i == 0 else (s, x[c], y[c]) for c in (lo, hi)))
    return out


def inverse_eigenvalues(dim: int, n: int, c: float) -> np.ndarray:
    """(lam + c)^-1 for the eigenvalues lam of -Lap_h, flat; a fresh array."""
    plan = grid_plan(dim, n)
    inv_eig = np.empty(plan.eig.size)
    plan.run(np.add, plan.eig, c, inv_eig)
    plan.run(np.divide, 1.0, inv_eig, inv_eig)
    return inv_eig


def sine_solve(b, inv_eig, dim: int, n: int, out, mid, tmp):
    """out = S(inv_eig * S b) = (-Lap_h + c I)^-1 b for ``inverse_eigenvalues(dim, n, c)``.

    ``out``, ``mid`` (the first transform) and ``tmp`` are flat, disjoint from b and each other.
    """
    plan = grid_plan(dim, n)
    transform = _transform_halves if plan.two else _sine_transform
    transform(b, plan, mid, tmp)
    plan.run(np.multiply, mid, inv_eig, mid)
    return transform(mid, plan, out, tmp)


def rounding_floor(b, x, fx, dim: int, n: int, out) -> float:
    """Rounding floor of the weighted-L1 norm of b - (-Lap_h x + f(x)); sum |fx| >= sum |f(x)|.

    ``out`` is scratch of b's size for the absolute values; it may be fx, and fx may be b.
    """
    plan = grid_plan(dim, n)
    sum_b, sum_x, sum_fx = plan.run(_floor_sums, b, x, fx, out, fx is b)
    total = float(sum_b + 4.0 * dim / (plan.h * plan.h) * sum_x + sum_fx)
    return FLOOR_C * float(np.finfo(np.float64).eps) * plan.hd * total


def _floor_sums(b, x, fx, out, fx_is_b):  # sum |fx| first, so that out may be fx
    sum_fx = np.abs(fx, out=out).sum()
    return sum_fx if fx_is_b else np.abs(b, out=out).sum(), np.abs(x, out=out).sum(), sum_fx


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
