"""References the package is checked against: a sparse-direct solve, the
sine transform as allocating products, the weak-* pairing of a measure with
a grid field and the Jordan split of a measure."""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from measopt.grid import Grid, ScalarField
from measopt.kernels import grid_plan
from measopt.measures import DiscreteMeasure


def _solve_direct(grid: Grid, diag, rhs):
    """Sparse-direct solve of (-Lap_h + diag) x = rhs, the reference for tests."""
    e = np.ones(grid.n)
    a1 = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1]) / grid.h ** 2
    a = a1
    for _ in range(grid.dim - 1):  # Kronecker sum, last index fastest
        a = sp.kron(a, sp.identity(grid.n)) + sp.kron(sp.identity(a.shape[0]), a1)
    a = a + sp.diags(np.broadcast_to(np.asarray(diag, dtype=np.float64), (a.shape[0],)))
    return spla.splu(sp.csc_matrix(a)).solve(rhs)


def sine_transform(a):
    """The orthonormal type-I sine transform of the array a over every axis, one
    allocating product per axis in ``kernels.sine_solve``'s order: the last axis (one
    product per n x n slab of axis 0; in 1-D the row), the leading axis, the middle one."""
    n = a.shape[0]
    s = grid_plan(a.ndim, n).sine
    t = a.reshape(1, n) @ s if a.ndim == 1 else a.reshape(-1, n, n) @ s
    for ax in range(a.ndim - 1):
        t = s @ t.reshape(n ** ax, n, -1)
    return t.reshape(a.shape)


def weak_star_pairing(m: DiscreteMeasure, phi: ScalarField) -> float:
    """Pairing <m, phi>: atom weights sample phi at nearest nodes, the
    density integrates against phi with h^dim weights."""
    total = 0.0
    grid = phi.grid
    if m.dim != grid.dim:
        raise ValueError("invalid measure: dimension does not match test field")
    for loc, w in m.atoms:
        total += w * float(phi.values[grid.flat_index(grid.nearest_index(loc))])
    if m.density is not None:
        if m.density.grid != grid:
            raise ValueError("invalid measure: density lives on a different grid")
        total += float(m.density.values @ phi.values) * grid.cell_volume
    return total


def jordan_decompose(m: DiscreteMeasure):
    """Split into nonnegative (pos, neg) parts with m = pos - neg.

    Atom weights split by sign; the density splits pointwise.  The split
    is exactly norm-additive: tv(m) = tv(pos) + tv(neg).
    """
    pos_atoms = tuple((loc, w) for loc, w in m.atoms if w > 0.0)
    neg_atoms = tuple((loc, -w) for loc, w in m.atoms if w < 0.0)
    pos_density = neg_density = None
    if m.density is not None:
        v = m.density.values
        pos_density = ScalarField(m.density.grid, np.maximum(v, 0.0))
        neg_density = ScalarField(m.density.grid, np.maximum(-v, 0.0))
    pos = DiscreteMeasure(m.dim, atoms=pos_atoms, density=pos_density)
    neg = DiscreteMeasure(m.dim, atoms=neg_atoms, density=neg_density)
    return pos, neg
