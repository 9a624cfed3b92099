"""Hot numeric kernels: stencil application and the shifted solve.

All kernels act on flat float64 arrays of interior values of the unit
box in lexicographic node order, with an implicit zero Dirichlet
boundary: stencil reads outside the index range contribute 0.

The shifted solve (-Lap_h + diag(d)) x = b runs conjugate gradients
preconditioned by the exact solve with M = -Lap_h + c I, c = mean(d).
On this box the orthonormal type-I sine transform diagonalizes -Lap_h
(the fast Poisson solver of Buzbee, Golub and Nielson, 1970), so one
preconditioner application costs two transforms.  Writing
A = M + diag(d - c), CG carries M p alongside each direction p
(Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981) and forms A p from it,
so one iteration costs two transforms and no stencil; the stencil runs
once per solve, in the true-residual check after the loop, which alone
decides convergence by one rule: it passes at the caller's tolerance or
at ``rounding_floor``, FLOOR_C eps h^dim sum(|b| + (4 dim/h^2)|x| + |f(x)|),
the rounding error of evaluating it, where a true CG residual stalls
(4 dim/h^2 is the row sum of |-Lap_h|; Greenbaum, SIMAX 18, 1997;
Higham 2002, ch. 7).  CG stops after one iteration whenever d is
constant.  The transform is a dense product with the symmetric
n x n sine matrix per axis, O(n^(dim+1)) flops in all: a.reshape(-1, n)
@ S for the last axis and S @ a.reshape(n**ax, n, -1) for every other
axis ax, with no transposed copy.  At the sizes measopt runs this beats
an FFT, whose cost at small n goes to axis bookkeeping and padded
copies rather than arithmetic.  Against a zero-padded real FFT per
axis, with one BLAS thread on a 2-core host, a dense product per axis
was 1.7-6.7x faster in 2-D for n = 17..255 and 1.3-8.5x faster in 3-D
for n = 15..191; the two tie at 2-D n = 511.  Dropping the transposed
copies made the transform a further 1.2-2.2x faster in 3-D
(n = 15..127) and left 2-D within timing noise (n = 17..511).
"""
from __future__ import annotations

import functools
import math

import numpy as np

HAVE_NUMBA = False  # no numba backend; perfbench records this flag
FLOOR_C = 8.0  # safety factor of the rounding floor; stalls sit near 1x


def backend_name() -> str:
    return "numpy"


def neg_laplacian_numpy(u, dim: int, n: int, inv_h2: float):
    """(2 dim u_i - sum of the 2 dim neighbours) * inv_h2 for the flat array u of
    n**dim values in lexicographic order, reading out-of-range neighbours as 0."""
    a = u.reshape((n,) * dim)
    out = (2.0 * dim) * a
    for lo, hi in _neighbour_slices(dim, n):
        o = out[lo]  # a view: the subtraction writes into out, with no copy back
        np.subtract(o, a[hi], out=o)
    out *= inv_h2
    return out.reshape(-1)


@functools.lru_cache(maxsize=32)
def _neighbour_slices(dim: int, n: int) -> tuple:
    """Per axis (lo, hi), then (hi, lo): out[lo] -= a[hi] subtracts the upper neighbours."""
    lo, hi = slice(0, n - 1), slice(1, n)
    pairs = []
    for ax in range(dim):
        pre, post = (slice(None),) * ax, (slice(None),) * (dim - 1 - ax)
        below, above = pre + (lo,) + post, pre + (hi,) + post
        pairs += [(below, above), (above, below)]
    return tuple(pairs)


neg_laplacian = neg_laplacian_numpy


@functools.lru_cache(maxsize=32)
def _eigenvalues(dim: int, n: int, h: float) -> np.ndarray:
    """Eigenvalues of -Lap_h on the sine modes, shaped (n,) * dim."""
    lam1 = (2.0 / h) ** 2 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2
    lam = np.zeros((n,) * dim)
    for ax in range(dim):
        lam = lam + lam1.reshape((n,) + (1,) * (dim - 1 - ax))
    return lam


@functools.lru_cache(maxsize=8)
def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix S[j, k] = sqrt(2/(n+1)) sin(pi jk/(n+1)), j, k = 1..n.

    S is symmetric and its own inverse.  The cached array is read-only.
    """
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))  # sin's period
    s = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))
    s.flags.writeable = False
    return s


def _sine_transform(a):
    """Orthonormal type-I sine transform over every axis (all of length n).

    The last axis is one product ``a.reshape(-1, n) @ S``; every other
    axis ``ax`` is ``S @ a.reshape(n**ax, n, -1)``, a single product for
    the leading axis and a batched one for a middle axis.  S is
    symmetric, so no pass needs a transposed copy.
    """
    shape = a.shape
    n = shape[0]
    s = _sine_matrix(n)
    a = a.reshape(-1, n) @ s
    for ax in range(len(shape) - 1):
        a = s @ a.reshape(n ** ax, n, -1)
    return a.reshape(shape)


def rounding_floor(b, x, fx, dim: int, h: float) -> float:
    """Rounding floor of the weighted-L1 norm of b - (-Lap_h x + f(x)); sum |fx| >= sum |f(x)|."""
    total = float(np.abs(b).sum() + 4.0 * dim / (h * h) * np.abs(x).sum() + np.abs(fx).sum())
    return FLOOR_C * float(np.finfo(np.float64).eps) * h ** dim * total


def cg_shifted(b, diag, dim: int, n: int, h: float, atol_l1: float, maxiter: int):
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

    Returns
    -------
    (x, iterations, residual_l1, converged)
    """
    inv_h2 = 1.0 / (h * h)
    hd = h ** dim
    shape = (n,) * dim
    c = float(diag.mean())
    inv_eig = 1.0 / (_eigenvalues(dim, n, h) + c)
    d_minus_c = diag - c

    def precondition(r):
        r_hat = _sine_transform(r.reshape(shape))
        return _sine_transform(r_hat * inv_eig).reshape(-1)

    x = np.zeros(b.size)
    r = b.copy()
    res_l1 = hd * float(np.abs(r).sum())
    if res_l1 <= atol_l1:
        return x, 0, res_l1, True
    p = z = precondition(r)
    mp = r  # M p; aliases r, so r is never updated in place
    rz = float(r @ z)
    it = 0
    while it < maxiter:
        Ap = mp + d_minus_c * p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break  # loss of positive definiteness: bail to true-residual check
        alpha = rz / pAp
        x += alpha * p
        r = r - alpha * Ap
        it += 1
        res_l1 = hd * float(np.abs(r).sum())
        if res_l1 <= atol_l1 or not math.isfinite(res_l1):  # NaN or inf in b or d
            break
        z = precondition(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        mp = r + beta * mp
        rz = rz_new
    r = b - (neg_laplacian_numpy(x, dim, n, inv_h2) + diag * x)
    res_l1 = hd * float(np.abs(r).sum())
    return x, it, res_l1, res_l1 <= atol_l1 or res_l1 <= rounding_floor(b, x, diag * x, dim, h)
