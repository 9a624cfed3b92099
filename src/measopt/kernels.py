"""Hot numeric kernels: stencil application and the shifted solve.

All kernels act on flat float64 arrays of interior values of the unit
box in lexicographic node order, with an implicit zero Dirichlet
boundary: stencil reads outside the index range contribute 0.

The shifted solve (-Lap_h + diag(d)) x = b runs conjugate gradients
preconditioned by the exact solve with the constant shift c = mean(d).
On this box the orthonormal type-I sine transform diagonalizes -Lap_h
(the fast Poisson solver of Buzbee, Golub and Nielson, 1970), so one
preconditioner application costs two transforms, and CG stops after
one iteration whenever d is constant.  The transform is built from
``numpy.fft``, which numpy loads anyway: importing ``scipy.fft`` pulls
in ``scipy.special`` and added about 80 ms and 3 MB to start-up
(scipy 1.17 on a 2-core host).
"""
from __future__ import annotations

import functools
import math

import numpy as np

HAVE_NUMBA = False  # no numba backend; perfbench records this flag


def backend_name() -> str:
    return "numpy"


def neg_laplacian_numpy(u, dim: int, n: int, inv_h2: float):
    """Apply the (2*dim+1)-point negative Laplacian stencil.

    Parameters
    ----------
    u : flat float64 array of length n**dim, lexicographic order.
    dim, n : grid shape.
    inv_h2 : 1/h**2 with h the grid spacing.

    Returns
    -------
    Flat float64 array: (2*dim*u_i - sum of neighbors) * inv_h2, with
    out-of-range neighbors read as 0.
    """
    a = u.reshape((n,) * dim)
    out = (2.0 * dim) * a
    out = out.copy() if out is a else out
    for ax in range(dim):
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[ax] = slice(0, n - 1)
        hi[ax] = slice(1, n)
        out[tuple(lo)] -= a[tuple(hi)]
        out[tuple(hi)] -= a[tuple(lo)]
    return (out * inv_h2).reshape(-1)


neg_laplacian = neg_laplacian_numpy


def _apply_shifted(u, diag, dim, n, inv_h2):
    return neg_laplacian_numpy(u, dim, n, inv_h2) + diag * u


@functools.lru_cache(maxsize=32)
def _eigenvalues(dim: int, n: int, h: float) -> np.ndarray:
    """Eigenvalues of -Lap_h on the sine modes, shaped (n,) * dim."""
    lam1 = (2.0 / h) ** 2 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2
    lam = np.zeros((n,) * dim)
    for ax in range(dim):
        lam = lam + lam1.reshape((n,) + (1,) * (dim - 1 - ax))
    return lam


def _sine_transform(a):
    """Orthonormal type-I sine transform over every axis (all of length n).

    Each pass takes the last axis through a real FFT of the zero-padded
    sequence (0, a_1, ..., a_n, 0, ..., 0) of length 2(n+1), whose
    imaginary part is -sum_j a_j sin(pi j k / (n+1)), and moves the
    result to the front, so after ndim passes the axes are back in order.
    """
    n = a.shape[0]
    scale = -math.sqrt(2.0 / (n + 1))
    for _ in range(a.ndim):
        padded = np.zeros(a.shape[:-1] + (2 * n + 2,))
        padded[..., 1:n + 1] = a
        a = np.moveaxis(np.fft.rfft(padded)[..., 1:n + 1].imag * scale, -1, 0)
    return a


def cg_shifted(b, diag, dim: int, n: int, h: float,
               atol_l1: float, rtol: float, maxiter: int):
    """Preconditioned conjugate gradients for (-Lap_h + diag(d)) x = b from x = 0.

    ``diag`` is a flat array or, for a constant shift, a 0-d one.  The
    preconditioner is (-Lap_h + mean(d) I)^-1, applied exactly by
    the sine transform.  Stops when the quadrature-weighted L1 residual
    drops to ``atol_l1`` or the 2-norm residual falls below
    ``rtol * ||b||``, and gives up at the first residual that is not
    finite.  The true residual is recomputed before accepting
    convergence so recurrence drift cannot fake it.

    Returns
    -------
    (x, iterations, residual_l1, converged)
    """
    inv_h2 = 1.0 / (h * h)
    hd = h ** dim
    shape = (n,) * dim
    inv_eig = 1.0 / (_eigenvalues(dim, n, h) + float(diag.mean()))

    def precondition(r):
        r_hat = _sine_transform(r.reshape(shape))
        return _sine_transform(r_hat * inv_eig).reshape(-1)

    x = np.zeros(b.size)
    r = b.copy()
    bnorm = float(np.sqrt(b @ b))
    floor2 = rtol * bnorm
    res_l1 = hd * float(np.abs(r).sum())
    if res_l1 <= atol_l1 or bnorm == 0.0:
        return x, 0, res_l1, True
    p = z = precondition(r)
    rz = float(r @ z)
    it = 0
    while it < maxiter:
        Ap = _apply_shifted(p, diag, dim, n, inv_h2)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break  # loss of positive definiteness: bail to true-residual check
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        res_l1 = hd * float(np.abs(r).sum())
        if not math.isfinite(res_l1):
            break  # NaN or inf in b or d: no further iteration can recover
        if res_l1 <= atol_l1 or np.sqrt(float(r @ r)) <= floor2:
            r_true = b - _apply_shifted(x, diag, dim, n, inv_h2)
            res_l1 = hd * float(np.abs(r_true).sum())
            if res_l1 <= atol_l1 or np.sqrt(float(r_true @ r_true)) <= floor2:
                return x, it, res_l1, True
            r = r_true
            p = z = precondition(r)
            rz = float(r @ z)
            continue
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    r_true = b - _apply_shifted(x, diag, dim, n, inv_h2)
    res_l1 = hd * float(np.abs(r_true).sum())
    return x, it, res_l1, res_l1 <= atol_l1
