"""Box-domain grids, interior scalar fields, discrete norms and operators.

The domain is the open unit box (0,1)^dim discretized by n interior
nodes per axis with spacing h = 1/(n+1).  Interior node coordinates are
x_i = (i_1 h, ..., i_dim h) for 1 <= i_k <= n; fields store one float64
value per interior node in lexicographic index order.  The Dirichlet
boundary is implicit: every stencil read outside the interior index
range evaluates to 0.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .checks import array, count, real


@dataclass(frozen=True)
class Grid:
    """dim must be 1, 2 or 3 and n >= 1, both integers (not bool)."""
    dim: int
    n: int

    def __post_init__(self):
        dim = count(self.dim, "dim")
        if dim > 3:
            raise ValueError(f"invalid grid config: dim must be in {{1,2,3}}, got {dim!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", count(self.n, "n"))

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def total_interior(self) -> int:
        return self.n ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        # midpoint quadrature weight h^dim
        return self.h ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Interior coordinates along one axis: h, 2h, ..., nh."""
        return np.arange(1, self.n + 1, dtype=np.float64) * self.h

    def node_coords(self) -> np.ndarray:
        """(total_interior, dim) array of node coordinates, lexicographic."""
        ax = self.axis_coords()
        mesh = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def nearest_index(self, x) -> tuple:
        """1-based multi-index of the interior node closest to point x."""
        idx = []
        for k in range(self.dim):
            i = int(round(x[k] / self.h))
            idx.append(min(max(i, 1), self.n))
        return tuple(idx)

    def flat_index(self, multi) -> int:
        f = 0
        for k in range(self.dim):
            f = f * self.n + (multi[k] - 1)
        return f


def build_grid(dim: int, n: int) -> Grid:
    return Grid(dim, n)


@dataclass(frozen=True)
class ScalarField:
    """Real values on the interior nodes of a grid (implicit zero boundary)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise ValueError(f"invalid field: grid must be a Grid, got {self.grid!r}")
        vals = np.ascontiguousarray(array(self.values, "values")).reshape(-1)
        if vals.size != self.grid.total_interior:
            raise ValueError(
                f"field length {vals.size} does not match grid "
                f"({self.grid.total_interior} interior nodes)")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def _owned_field(grid: Grid, values: np.ndarray) -> ScalarField:
    """A field of a fresh, flat, finite float64 array, set read-only: no copy, no scan."""
    values.flags.writeable = False
    field = object.__new__(ScalarField)
    object.__setattr__(field, "grid", grid)
    object.__setattr__(field, "values", values)
    return field


def zeros_field(grid: Grid) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.total_interior))


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.total_interior, real(value, "value")))


def lp_norm(f: ScalarField, p) -> float:
    """Discrete L^p norm with midpoint quadrature.

    ``(sum |f_i|^p h^dim)^(1/p)`` for finite p >= 1, ``max |f_i|`` for
    p = inf.  Exponents below 1 are rejected.
    """
    p = real(p, "p", allow_inf=True)
    if not p >= 1.0:
        raise ValueError(f"invalid exponent: p must satisfy p >= 1 or be inf, got {p!r}")
    return _lp(f.values, p, f.grid)


def _lp(values: np.ndarray, p: float, grid: Grid) -> float:
    """lp_norm of node values for an exponent p that is already checked."""
    a = np.abs(values)
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    if p == 1.0:
        return float(a.sum() * grid.cell_volume)
    return float((a ** p).sum() * grid.cell_volume) ** (1.0 / p)


def w11_norm(f: ScalarField) -> float:
    """Discrete W^{1,1} norm: L1 norm plus total variation of edges.

    Sums |f_j - f_i| * h^(dim-1) over all forward-difference edges along
    each axis, including the edges that connect interior nodes to the
    zero boundary.
    """
    grid = f.grid
    a = f.reshaped()
    total = _lp(f.values, 1.0, grid)
    w = grid.h ** (grid.dim - 1)
    for ax in range(grid.dim):
        pad = [(0, 0)] * grid.dim
        pad[ax] = (1, 1)
        padded = np.pad(a, pad)
        total += float(np.abs(np.diff(padded, axis=ax)).sum()) * w
    return total


def neg_laplacian_apply(f: ScalarField) -> ScalarField:
    """Apply the (2*dim+1)-point stencil (2*dim*f_i - sum_neighbors)/h^2."""
    grid = f.grid
    out = kernels.neg_laplacian(f.values, grid.dim, grid.n)
    return ScalarField(grid, out)


# ---------------------------------------------------------------------------
# serialization: flat binary or CSV values plus a JSON sidecar {dim, n}
# ---------------------------------------------------------------------------

def save_field(f: ScalarField, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix.lower() == ".csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("value\n")
            for v in f.values:
                fh.write(repr(float(v)) + "\n")
    else:
        f.values.astype("<f8").tofile(path)
    sidecar = {"dim": f.grid.dim, "n": f.grid.n}
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
        fh.write("\n")


def load_field(path) -> ScalarField:
    path = Path(path)
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        grid = build_grid(sidecar["dim"], sidecar["n"])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"invalid field sidecar for {path}: {exc}") from exc
    if path.suffix.lower() == ".csv":
        vals = np.loadtxt(path, skiprows=1, dtype=np.float64, ndmin=1)
    else:
        vals = np.fromfile(path, dtype="<f8")
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# named deterministic field generators (CLI / experiment targets)
# ---------------------------------------------------------------------------

_FIELD_KEYS = {"zero": (), "constant": ("value",), "sines": ("amplitude", "waves"),
               "bump": ("amplitude", "center", "width")}


def named_field(grid: Grid, name: str, params: dict | None = None) -> ScalarField:
    """Build one of the deterministic target fields by name.

    Known names and their keys: ``zero``, ``constant`` (value), ``sines``
    (amplitude, waves) and ``bump`` (amplitude, center, width).  A
    ``name`` key is ignored, so a whole field spec can be passed; any
    other key, a non-real value or a non-positive-integer ``waves`` is a
    ValueError.
    """
    if name not in _FIELD_KEYS:
        raise ValueError(f"unknown field generator {name!r}")
    params = params or {}
    unknown = sorted(set(params) - set(_FIELD_KEYS[name]) - {"name"})
    if unknown:
        raise ValueError(f"invalid config: unknown key(s) for field generator "
                         f"{name!r}: {unknown}")
    if name == "zero":
        return zeros_field(grid)
    if name == "constant":
        return constant_field(grid, params.get("value", 1.0))
    coords = grid.node_coords()
    amp = real(params.get("amplitude", 1.0), "amplitude")
    if name == "sines":
        waves = count(params.get("waves", 1), "waves")
        return ScalarField(grid, amp * np.prod(np.sin(math.pi * waves * coords), axis=1))
    center = array(params.get("center", (0.5,) * grid.dim), "center")
    if center.shape != (grid.dim,):
        raise ValueError(f"invalid config: center must list {grid.dim} reals, "
                         f"got {params['center']!r}")
    width = real(params.get("width", 0.25), "width", positive=True)
    d2 = ((coords - center) ** 2).sum(axis=1)
    return ScalarField(grid, amp * np.exp(-d2 / width ** 2))
