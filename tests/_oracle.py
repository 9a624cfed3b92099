"""Sparse-direct reference solve that the iterative solver is checked against."""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from measopt.grid import Grid


def _solve_direct(grid: Grid, diag, rhs):
    """Sparse-direct solve of (-Lap_h + diag) x = rhs, the reference for tests."""
    e = np.ones(grid.n)
    a1 = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1]) / grid.h ** 2
    a = a1
    for _ in range(grid.dim - 1):  # Kronecker sum, last index fastest
        a = sp.kron(a, sp.identity(grid.n)) + sp.kron(sp.identity(a.shape[0]), a1)
    a = a + sp.diags(np.broadcast_to(np.asarray(diag, dtype=np.float64), (a.shape[0],)))
    return spla.splu(sp.csc_matrix(a)).solve(rhs)
