import json
import math

import numpy as np
import pytest

from measopt import (ScalarField, build_grid, constant_field, load_field,
                     lp_norm, named_field, neg_laplacian_apply, save_field,
                     w11_norm, zeros_field)


def test_build_grid_examples():
    g = build_grid(1, 3)
    assert g.h == 0.25
    assert g.total_interior == 3
    g = build_grid(2, 31)
    assert g.h == pytest.approx(1.0 / 32.0, abs=0)
    assert g.total_interior == 961
    g = build_grid(3, 15)
    assert g.h == pytest.approx(1.0 / 16.0, abs=0)
    assert g.total_interior == 3375
    assert g.shape == (15, 15, 15)


@pytest.mark.parametrize("dim,n", [(0, 3), (4, 3), (2, 0), (1, -5),
                                   (True, 3), (2, True), (2.0, 3), (2, 3.5),
                                   (2, "9")])
def test_build_grid_rejects_bad_config(dim, n):
    with pytest.raises(ValueError):
        build_grid(dim, n)


def test_grid_coordinates():
    g = build_grid(2, 3)
    coords = g.node_coords()
    assert coords.shape == (9, 2)
    # lexicographic order: last axis fastest
    np.testing.assert_allclose(coords[0], [0.25, 0.25])
    np.testing.assert_allclose(coords[1], [0.25, 0.50])
    np.testing.assert_allclose(coords[3], [0.50, 0.25])
    assert g.nearest_index((0.26, 0.74)) == (1, 3)
    assert g.flat_index((1, 3)) == 2
    # clipped into the interior index range
    assert g.nearest_index((0.001, 0.999)) == (1, 3)


def test_field_validation():
    g = build_grid(2, 3)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(8))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(9, np.nan))
    f = ScalarField(g, np.arange(9.0))
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # frozen contents


def test_lp_norm_examples():
    g = build_grid(2, 3)
    assert lp_norm(constant_field(g, 1.0), 2.0) == pytest.approx(0.75, abs=1e-15)
    vals = np.zeros(3)
    vals[1] = 2.0
    f = ScalarField(build_grid(1, 3), vals)
    assert lp_norm(f, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert lp_norm(f, math.inf) == 2.0
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_norm_is_a_norm():
    rng = np.random.default_rng(3)
    g = build_grid(2, 7)
    for p in (1.0, 2.0, 3.5, math.inf):
        a = ScalarField(g, rng.standard_normal(g.total_interior))
        b = ScalarField(g, rng.standard_normal(g.total_interior))
        ab = ScalarField(g, a.values + b.values)
        ca = ScalarField(g, -2.5 * a.values)
        assert lp_norm(ab, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-12
        assert lp_norm(ca, p) == pytest.approx(2.5 * lp_norm(a, p), rel=1e-12)


def test_w11_norm_examples():
    g1 = build_grid(1, 1)
    a = -1.75
    f = ScalarField(g1, np.array([a]))
    assert w11_norm(f) == pytest.approx(2.5 * abs(a), rel=1e-14)
    assert w11_norm(zeros_field(build_grid(2, 5))) == 0.0


def test_w11_norm_matches_edge_enumeration():
    # brute force: every interior-interior and interior-boundary edge once
    rng = np.random.default_rng(11)
    g = build_grid(2, 3)
    f = ScalarField(g, rng.standard_normal(9))
    a = np.pad(f.values.reshape(3, 3), 1)
    total = 0.0
    for i in range(5):
        for j in range(5):
            if i + 1 < 5:
                total += abs(a[i + 1, j] - a[i, j]) * g.h
            if j + 1 < 5:
                total += abs(a[i, j + 1] - a[i, j]) * g.h
    # drop edges lying entirely on the boundary (both endpoints zero): free
    expected = lp_norm(f, 1.0) + total
    assert w11_norm(f) == pytest.approx(expected, rel=1e-13)
    assert w11_norm(f) >= lp_norm(f, 1.0)


def test_neg_laplacian_quadratic_exact():
    g = build_grid(1, 3)
    f = ScalarField(g, np.array([3.0, 4.0, 3.0]) / 32.0)
    out = neg_laplacian_apply(f)
    np.testing.assert_allclose(out.values, np.ones(3), atol=1e-13)
    z = neg_laplacian_apply(zeros_field(build_grid(2, 4)))
    np.testing.assert_array_equal(z.values, 0.0)


def _dense_stencil(grid):
    N = grid.total_interior
    A = np.zeros((N, N))
    shape = grid.shape
    inv_h2 = 1.0 / grid.h ** 2
    for flat in range(N):
        multi = np.unravel_index(flat, shape)
        A[flat, flat] = 2.0 * grid.dim * inv_h2
        for ax in range(grid.dim):
            for step in (-1, 1):
                nb = list(multi)
                nb[ax] += step
                if 0 <= nb[ax] < grid.n:
                    A[flat, np.ravel_multi_index(nb, shape)] = -inv_h2
    return A


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 5), (3, 3)])
def test_neg_laplacian_matches_dense_assembly(dim, n):
    rng = np.random.default_rng(dim * 10 + n)
    g = build_grid(dim, n)
    A = _dense_stencil(g)
    f = rng.standard_normal(g.total_interior)
    out = neg_laplacian_apply(ScalarField(g, f))
    np.testing.assert_allclose(out.values, A @ f, rtol=1e-12, atol=1e-12)


def test_neg_laplacian_linear_and_spd():
    rng = np.random.default_rng(5)
    g = build_grid(2, 6)
    f1 = rng.standard_normal(g.total_interior)
    f2 = rng.standard_normal(g.total_interior)
    lhs = neg_laplacian_apply(ScalarField(g, 2.0 * f1 - 3.0 * f2)).values
    rhs = 2.0 * neg_laplacian_apply(ScalarField(g, f1)).values \
        - 3.0 * neg_laplacian_apply(ScalarField(g, f2)).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    for _ in range(5):
        f = rng.standard_normal(g.total_interior)
        quad = float(f @ neg_laplacian_apply(ScalarField(g, f)).values)
        assert quad * g.cell_volume > 0.0
    # symmetry through the dense assembly
    A = _dense_stencil(g)
    np.testing.assert_allclose(A, A.T, atol=0)


@pytest.mark.parametrize("suffix", [".f64", ".csv"])
def test_field_serialization_roundtrip(tmp_path, suffix):
    rng = np.random.default_rng(17)
    g = build_grid(2, 4)
    f = ScalarField(g, rng.standard_normal(16))
    path = tmp_path / ("field" + suffix)
    save_field(f, path)
    assert json.loads((tmp_path / ("field" + suffix + ".json")).read_text()) == \
        {"dim": 2, "n": 4}
    back = load_field(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_load_field_missing_sidecar(tmp_path):
    p = tmp_path / "orphan.f64"
    np.zeros(4).tofile(p)
    with pytest.raises(ValueError):
        load_field(p)


def test_named_field_generators():
    g = build_grid(2, 9)
    assert named_field(g, "zero").values.sum() == 0.0
    np.testing.assert_array_equal(named_field(g, "constant", {"value": 2.0}).values, 2.0)
    s = named_field(g, "sines", {"amplitude": 3.0, "waves": 1})
    mid = g.flat_index((5, 5))
    assert s.values[mid] == pytest.approx(3.0, rel=1e-12)
    b = named_field(g, "bump", {"amplitude": 1.0, "center": (0.5, 0.5), "width": 0.2})
    assert b.values.max() == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        named_field(g, "perlin")


BAD_FIELD_SPECS = [
    ("sines", {"amplitud": 5}, "amplitud"),
    ("zero", {"value": 3}, "value"),
    ("constant", {"amplitude": 1.0}, "amplitude"),
    ("sines", {"waves": 2.7}, "waves"),
    ("sines", {"waves": 0}, "waves"),
    ("sines", {"waves": True}, "waves"),
    ("sines", {"amplitude": "0.1"}, "amplitude"),
    ("constant", {"value": True}, "value"),
    ("constant", {"value": math.nan}, "value"),
    ("bump", {"width": "0.2"}, "width"),
    ("bump", {"width": 0.0}, "width"),
    ("bump", {"center": [0.5, False]}, "center"),
    ("bump", {"center": [0.5]}, "center"),
    ("bump", {"center": 0.5}, "center"),
]


@pytest.mark.parametrize("name,params,key", BAD_FIELD_SPECS,
                         ids=[f"{name}-{key}={params[key]!r}"
                              for name, params, key in BAD_FIELD_SPECS])
def test_named_field_rejects_bad_keys_and_values(name, params, key):
    with pytest.raises(ValueError, match=key):
        named_field(build_grid(2, 5), name, params)
