"""Finite signed measures on the box: atoms plus an optional density.

A DiscreteMeasure combines finitely many point masses at continuous
locations inside the open box with an optional L1 density field on a
grid.  Atom positions are stored continuously so the same measure can
be rasterized on grids of any resolution.  Atoms and density are
treated as mutually singular when computing the total variation.
Mollification is linear in the signed measure, keeps its mass exactly
(up to rounding) and does not raise the total variation:
||mollify(m)||_1 <= tv(m).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, _lp


def _validate_location(x, dim: int) -> tuple:
    loc = tuple(float(c) for c in x)
    if len(loc) != dim:
        raise ValueError(f"invalid measure: atom location {loc} is not {dim}-dimensional")
    if not all(0.0 < c < 1.0 for c in loc):
        raise ValueError(f"invalid measure: atom location {loc} outside the open unit box")
    return loc


@dataclass(frozen=True)
class DiscreteMeasure:
    dim: int
    atoms: tuple = ()
    density: ScalarField | None = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"invalid measure: dim must be in {{1,2,3}}, got {self.dim!r}")
        merged: dict = {}
        for loc, w in self.atoms:
            loc = _validate_location(loc, self.dim)
            w = float(w)
            if not math.isfinite(w):
                raise ValueError("invalid measure: atom weight must be finite")
            merged[loc] = merged.get(loc, 0.0) + w
        atoms = tuple((loc, w) for loc, w in merged.items() if w != 0.0)
        object.__setattr__(self, "atoms", atoms)
        if self.density is not None and self.density.grid.dim != self.dim:
            raise ValueError("invalid measure: density grid dimension mismatch")

    @classmethod
    def zero(cls, dim: int) -> "DiscreteMeasure":
        return cls(dim)

    @classmethod
    def point(cls, x, w: float) -> "DiscreteMeasure":
        return cls(len(tuple(x)), atoms=((tuple(x), w),))

    @classmethod
    def from_atoms(cls, dim: int, atoms) -> "DiscreteMeasure":
        return cls(dim, atoms=tuple((tuple(x), w) for x, w in atoms))

    @classmethod
    def from_density(cls, field: ScalarField) -> "DiscreteMeasure":
        return cls(field.grid.dim, density=field)

    def total_mass(self) -> float:
        mass = sum(w for _, w in self.atoms)
        if self.density is not None:
            mass += float(self.density.values.sum()) * self.density.grid.cell_volume
        return mass


def tv_norm(m: DiscreteMeasure) -> float:
    """Total variation: sum of |atom weights| plus the density L1 norm."""
    total = sum(abs(w) for _, w in m.atoms)
    if m.density is not None:
        total += _lp(m.density.values, 1.0, m.density.grid)
    return total


def scale(m: DiscreteMeasure, c: float) -> DiscreteMeasure:
    density = None
    if m.density is not None:
        density = ScalarField(m.density.grid, c * m.density.values)
    return DiscreteMeasure(m.dim, atoms=tuple((loc, c * w) for loc, w in m.atoms),
                           density=density)


def negate(m: DiscreteMeasure) -> DiscreteMeasure:
    return scale(m, -1.0)


def rasterize(m: DiscreteMeasure, grid: Grid) -> ScalarField:
    """Project the measure to a density field on ``grid``.

    Each atom of weight w lands on its nearest node with value w/h^dim;
    a density is carried over verbatim (its grid must match).  Exactly
    mass preserving.
    """
    if m.dim != grid.dim:
        raise ValueError("invalid measure: dimension does not match grid")
    vals = np.zeros(grid.total_interior)
    if m.density is not None:
        if m.density.grid != grid:
            raise ValueError("invalid measure: density lives on a different grid")
        vals += m.density.values
    w_scale = 1.0 / grid.cell_volume
    for loc, w in m.atoms:
        vals[grid.flat_index(grid.nearest_index(loc))] += w * w_scale
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def bump_kernel(r2_over_rad2: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump exp(-1/(1-s)) on s = |x/r|^2 < 1."""
    out = np.zeros_like(r2_over_rad2)
    inside = r2_over_rad2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2_over_rad2[inside]))
    return out


def mollify(m: DiscreteMeasure, radius: float, grid: Grid) -> ScalarField:
    """Convolve the measure with a smooth bump of the given radius.

    The map is linear in m and takes the signed measure in one pass.
    Each atom, of either sign, is spread by its own bump, scaled to
    discrete mass w.  The density is convolved once with the bump
    sampled at node offsets and normalized to sum 1, over the field
    padded by reflection across the boundary; the bump is radial, so
    every node keeps its mass.  The discrete integral of the result
    equals m(box) and its L1 norm is at most tv(m), both up to rounding.

    Parameters
    ----------
    radius : bump support radius; must be at least 2h to be resolved.
    """
    if m.dim != grid.dim:
        raise ValueError("invalid measure: dimension does not match grid")
    if m.density is not None and m.density.grid != grid:
        raise ValueError("invalid measure: density lives on a different grid")
    h = grid.h
    n = grid.n
    if radius < 2.0 * h:
        raise ValueError(
            f"under-resolved kernel: radius {radius} below 2h = {2.0 * h}")
    vals = np.zeros(grid.shape)
    ax = grid.axis_coords()
    for loc, w in m.atoms:
        windows = []
        for k in range(grid.dim):
            lo = max(int(math.ceil((loc[k] - radius) / h)), 1)
            hi = min(int(math.floor((loc[k] + radius) / h)), n)
            windows.append((lo, hi))
        if any(lo > hi for lo, hi in windows):
            continue
        d2 = np.zeros([hi - lo + 1 for lo, hi in windows])
        for k, (lo, hi) in enumerate(windows):
            shape = [1] * grid.dim
            shape[k] = hi - lo + 1
            d2 = d2 + ((ax[lo - 1:hi] - loc[k]) ** 2).reshape(shape)
        kern = bump_kernel(d2 / radius ** 2)
        s = kern.sum() * grid.cell_volume
        if s <= 0.0:
            raise ValueError("under-resolved kernel: no node mass under the bump")
        sl = tuple(slice(lo - 1, hi) for lo, hi in windows)
        vals[sl] += (w / s) * kern
    if m.density is not None:
        reach = int(math.floor(radius / h))
        offs = np.arange(-reach, reach + 1) * h
        mesh = np.meshgrid(*([offs] * grid.dim), indexing="ij")
        w_k = bump_kernel(sum(mm ** 2 for mm in mesh) / radius ** 2)
        w_k /= w_k.sum()
        dens = np.pad(m.density.reshaped(), reach, mode="symmetric")
        for off in np.argwhere(w_k).tolist():
            vals += w_k[tuple(off)] * dens[tuple(slice(o, o + n) for o in off)]
    return ScalarField(grid, vals.reshape(-1))


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def describe(m: DiscreteMeasure) -> str:
    """One-paragraph human-readable summary of a measure."""
    parts = [f"measure on ({m.dim})-d box: {len(m.atoms)} atom(s)"]
    for loc, w in m.atoms[:8]:
        parts.append(f"  {w:+.6g} at ({', '.join(f'{c:.4g}' for c in loc)})")
    if len(m.atoms) > 8:
        parts.append(f"  ... {len(m.atoms) - 8} more")
    if m.density is not None:
        g = m.density.grid
        parts.append(f"  density on dim={g.dim} n={g.n} grid, "
                     f"L1 mass {float(np.abs(m.density.values).sum()) * g.cell_volume:.6g}")
    parts.append(f"  tv norm {tv_norm(m):.6g}, signed mass {m.total_mass():.6g}")
    return "\n".join(parts)
