import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measopt import (DiscreteMeasure, ScalarField,
                     build_grid, bump_kernel, constant_field, describe,
                     lp_norm, mollify, negate, rasterize,
                     scale, tv_norm, zeros_field)

from _oracle import jordan_decompose, weak_star_pairing


def _random_measure(rng, grid, n_atoms=3):
    atoms = [(tuple(rng.uniform(0.05, 0.95, grid.dim)), rng.normal())
             for _ in range(n_atoms)]
    dens = ScalarField(grid, rng.standard_normal(grid.total_interior))
    return DiscreteMeasure(grid.dim, atoms=tuple(atoms), density=dens)


def test_measure_construction():
    m = DiscreteMeasure.point((0.5, 0.5), 2.0)
    assert m.dim == 2
    assert m.atoms == (((0.5, 0.5), 2.0),)
    assert DiscreteMeasure.zero(3).atoms == ()
    assert tv_norm(DiscreteMeasure.zero(1)) == 0.0


def test_duplicate_atoms_merge_and_zero_weights_drop():
    m = DiscreteMeasure.from_atoms(1, [((0.5,), 1.5), ((0.5,), -0.5), ((0.25,), 0.0)])
    assert m.atoms == (((0.5,), 1.0),)
    cancel = DiscreteMeasure.from_atoms(1, [((0.5,), 1.0), ((0.5,), -1.0)])
    assert cancel.atoms == ()


def test_measure_rejects_bad_locations():
    with pytest.raises(ValueError):
        DiscreteMeasure.point((0.5, 1.0), 1.0)  # on the boundary
    with pytest.raises(ValueError):
        DiscreteMeasure.point((-0.1, 0.5), 1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(2, atoms=(((0.5,), 1.0),))  # wrong arity
    with pytest.raises(ValueError):
        DiscreteMeasure(2, density=constant_field(build_grid(3, 3), 1.0))
    with pytest.raises(ValueError):
        DiscreteMeasure.point((0.5,), math.nan)


def test_tv_and_jordan_examples():
    m = DiscreteMeasure.from_atoms(2, [((0.25, 0.25), 2.0), ((0.75, 0.75), -3.0)])
    assert tv_norm(m) == 5.0
    assert m.total_mass() == -1.0
    pos, neg = jordan_decompose(m)
    assert pos.atoms == (((0.25, 0.25), 2.0),)
    assert neg.atoms == (((0.75, 0.75), 3.0),)


def test_jordan_is_norm_additive():
    rng = np.random.default_rng(7)
    g = build_grid(2, 5)
    for _ in range(10):
        m = _random_measure(rng, g)
        pos, neg = jordan_decompose(m)
        assert tv_norm(pos) + tv_norm(neg) == pytest.approx(tv_norm(m), rel=1e-12)
        assert pos.total_mass() - neg.total_mass() == pytest.approx(
            m.total_mass(), rel=1e-10, abs=1e-12)
        for _, w in pos.atoms + neg.atoms:
            assert w > 0.0


def test_scale_and_negate():
    m = DiscreteMeasure.point((0.5,), 2.0)
    assert scale(m, 2.5).atoms == (((0.5,), 5.0),)
    assert negate(m).atoms == (((0.5,), -2.0),)
    assert tv_norm(scale(m, -3.0)) == pytest.approx(3.0 * tv_norm(m), abs=0)


def test_rasterize_atom_value():
    g = build_grid(2, 3)
    m = DiscreteMeasure.point((0.5, 0.5), 1.0)
    f = rasterize(m, g)
    # unit atom at a node carries 1/h^dim = 16
    assert f.values[g.flat_index((2, 2))] == 16.0
    assert np.count_nonzero(f.values) == 1


def test_rasterize_preserves_mass_and_cancels():
    rng = np.random.default_rng(19)
    g = build_grid(2, 9)
    for _ in range(10):
        m = _random_measure(rng, g)
        f = rasterize(m, g)
        mass = float(f.values.sum()) * g.cell_volume
        assert mass == pytest.approx(m.total_mass(), rel=1e-12, abs=1e-12)
    opp = DiscreteMeasure.from_atoms(2, [((0.31, 0.31), 1.0), ((0.32, 0.32), -1.0)])
    # both atoms snap to the same node on a coarse grid and cancel
    coarse = build_grid(2, 3)
    assert np.all(rasterize(opp, coarse).values == 0.0)
    with pytest.raises(ValueError):
        rasterize(DiscreteMeasure.point((0.5,), 1.0), g)


def test_rasterize_returns_a_fresh_read_only_field_and_rejects_an_overflowing_atom():
    g = build_grid(2, 3)
    dens = ScalarField(g, np.r_[-0.0, 1.0, np.zeros(7)])
    f = rasterize(DiscreteMeasure(2, atoms=(((0.5, 0.5), 1.0),), density=dens), g)
    assert not np.signbit(f.values[0]) and f.values[1] == 1.0 and f.values[4] == 16.0
    assert not f.values.flags.writeable and not np.shares_memory(f.values, dens.values)
    # w / h^dim overflows alone, or on top of the density at its node
    for m in (DiscreteMeasure.point((0.5, 0.5), 1e308),
              DiscreteMeasure(2, atoms=(((0.25, 0.5), 1e307),),
                              density=ScalarField(g, np.full(9, 1.7e308)))):
        with pytest.raises(ValueError, match="invalid measure: w/h"), np.errstate(over="ignore"):
            rasterize(m, g)


def test_weak_star_pairing():
    g = build_grid(2, 7)
    one = constant_field(g, 1.0)
    delta = DiscreteMeasure.point((0.5, 0.5), 1.0)
    assert weak_star_pairing(delta, one) == 1.0
    assert weak_star_pairing(DiscreteMeasure.zero(2), one) == 0.0
    rng = np.random.default_rng(23)
    m = _random_measure(rng, g)
    phi1 = ScalarField(g, rng.standard_normal(g.total_interior))
    phi2 = ScalarField(g, rng.standard_normal(g.total_interior))
    both = ScalarField(g, phi1.values + 2.0 * phi2.values)
    assert weak_star_pairing(m, both) == pytest.approx(
        weak_star_pairing(m, phi1) + 2.0 * weak_star_pairing(m, phi2), rel=1e-12)
    assert weak_star_pairing(scale(m, -1.5), phi1) == pytest.approx(
        -1.5 * weak_star_pairing(m, phi1), rel=1e-12)
    # pairing against a rasterized measure agrees with the field pairing
    assert weak_star_pairing(m, phi1) == pytest.approx(
        float(rasterize(m, g).values @ phi1.values) * g.cell_volume, rel=1e-10)


def test_bump_kernel_support():
    s = np.array([0.0, 0.5, 0.999, 1.0, 4.0])
    k = bump_kernel(s)
    assert k[0] == pytest.approx(math.exp(-1.0))
    assert k[3] == 0.0 and k[4] == 0.0
    assert np.all(k >= 0.0)


def test_mollify_atom_mass_exact():
    g = build_grid(2, 33)
    m = DiscreteMeasure.point((0.47, 0.53), 2.5)
    f = mollify(m, 0.15, g)
    assert float(f.values.sum()) * g.cell_volume == pytest.approx(2.5, abs=1e-10)
    assert lp_norm(f, 1.0) <= tv_norm(m) + 1e-10
    assert np.all(f.values >= 0.0)


def test_mollify_rejects_under_resolved_radius():
    g = build_grid(2, 9)
    with pytest.raises(ValueError):
        mollify(DiscreteMeasure.point((0.5, 0.5), 1.0), 1.9 * g.h, g)


def test_mollify_rejects_density_on_another_grid():
    # the convolution would read a field of another shape without complaint
    dens = constant_field(build_grid(2, 33), 1.0)
    with pytest.raises(ValueError, match="different grid"):
        mollify(DiscreteMeasure.from_density(dens), 0.2, build_grid(2, 17))


_MAX_N = {1: 40, 2: 16, 3: 7}


@st.composite
def _mollification_cases(draw):
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(1, _MAX_N[dim])))
    radius = draw(st.floats(2.0, 6.0)) * grid.h
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def signed_measure():
        atoms = tuple((tuple(rng.uniform(0.01, 0.99, dim)), 2.0 * rng.normal())
                      for _ in range(rng.integers(0, 4)))
        dens = None
        if rng.random() < 0.8:
            dens = ScalarField(grid, 2.0 * rng.standard_normal(grid.total_interior))
        return DiscreteMeasure(dim, atoms=atoms, density=dens)

    a, b = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    return grid, radius, signed_measure(), signed_measure(), a, b


def _combination(grid, a, m1, b, m2):
    """The measure a m1 + b m2."""
    dens = [c * m.density.values for c, m in ((a, m1), (b, m2)) if m.density is not None]
    return DiscreteMeasure(grid.dim, atoms=scale(m1, a).atoms + scale(m2, b).atoms,
                           density=ScalarField(grid, sum(dens)) if dens else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_mollification_cases())
def test_mollify_is_linear_mass_exact_and_tv_bounded(case):
    grid, radius, m1, m2, a, b = case
    f1, f2 = mollify(m1, radius, grid).values, mollify(m2, radius, grid).values
    combined = mollify(_combination(grid, a, m1, b, m2), radius, grid).values
    top = abs(a) * np.abs(f1).max() + abs(b) * np.abs(f2).max()
    np.testing.assert_allclose(combined, a * f1 + b * f2, rtol=0.0, atol=1e-12 * (1.0 + top))

    pos, neg = (mollify(part, radius, grid).values for part in jordan_decompose(m1))
    top = np.abs(pos).max() + np.abs(neg).max()
    np.testing.assert_allclose(f1, pos - neg, rtol=0.0, atol=1e-12 * (1.0 + top))

    assert float(f1.sum()) * grid.cell_volume == pytest.approx(m1.total_mass(), abs=1e-10)
    assert lp_norm(ScalarField(grid, f1), 1.0) <= tv_norm(m1) + 1e-10


def test_mollify_signed_tv_bound():
    rng = np.random.default_rng(29)
    g = build_grid(2, 17)
    for _ in range(5):
        m = _random_measure(rng, g)
        f = mollify(m, 0.2, g)
        assert lp_norm(f, 1.0) <= tv_norm(m) + 1e-10
        assert float(f.values.sum()) * g.cell_volume == pytest.approx(
            m.total_mass(), abs=1e-10)


def test_mollify_density_matches_direct_convolution():
    # independent O(N^2) pairwise oracle for the density path: kernel
    # evaluated between nodes and boundary-folded source images, for a
    # positive and a signed density
    rng = np.random.default_rng(31)
    g = build_grid(2, 33)
    n, h = g.n, g.h
    radius = 0.11
    reach = int(math.floor(radius / h))
    ext = np.arange(-reach, n + reach)
    folded = np.where(ext < 0, -1 - ext, np.where(ext >= n, 2 * n - 1 - ext, ext))
    e1, e2 = np.meshgrid(ext, ext, indexing="ij")
    src_pos = (np.stack([e1.reshape(-1), e2.reshape(-1)], axis=1) + 1) * h
    f1, f2 = np.meshgrid(folded, folded, indexing="ij")
    diff = g.node_coords()[:, None, :] - src_pos[None, :, :]
    kmat = bump_kernel((diff ** 2).sum(axis=2) / radius ** 2)
    offs = np.arange(-reach, reach + 1) * h
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    s_full = bump_kernel((ox ** 2 + oy ** 2) / radius ** 2).sum()

    for values in (rng.uniform(0.2, 1.0, g.total_interior),
                   rng.standard_normal(g.total_interior)):
        dens = ScalarField(g, values)
        m = DiscreteMeasure.from_density(dens)
        f = mollify(m, radius, g)
        conv = kmat @ dens.reshaped()[f1.reshape(-1), f2.reshape(-1)] / s_full
        np.testing.assert_allclose(f.values, conv, rtol=1e-10, atol=1e-12)
        # exact mass preservation even for a boundary-heavy density
        assert float(f.values.sum()) * g.cell_volume == pytest.approx(
            m.total_mass(), abs=1e-12)


def test_mollify_constant_density_plateau():
    g = build_grid(2, 33)
    radius = 0.1
    m = DiscreteMeasure.from_density(constant_field(g, 3.0))
    f = mollify(m, radius, g)
    coords = g.node_coords()
    interior = np.all((coords > radius + g.h) & (coords < 1.0 - radius - g.h), axis=1)
    np.testing.assert_allclose(f.values[interior], 3.0, atol=1e-3)


def test_mollifier_sequence():
    g = build_grid(2, 63)
    delta = DiscreteMeasure.point((0.5, 0.5), 1.0)
    for radius in (0.3, 0.15, 0.075):
        d = mollify(delta, radius, g)
        assert float(d.values.sum()) * g.cell_volume == pytest.approx(1.0, abs=1e-10)
        assert np.all(d.values >= 0.0)
    with pytest.raises(ValueError):
        DiscreteMeasure.point((1.5, 0.5), 1.0)


def test_mollifier_pairing_converges_to_point_value():
    g = build_grid(2, 63)
    delta = DiscreteMeasure.point((0.5, 0.5), 1.0)
    coords = g.node_coords()
    phi = ScalarField(g, np.sin(math.pi * coords[:, 0]) * np.sin(math.pi * coords[:, 1]))
    errs = [abs(weak_star_pairing(DiscreteMeasure.from_density(mollify(delta, r, g)), phi) - 1.0)
            for r in (0.3, 0.15, 0.075)]
    assert errs[2] < errs[0]
    assert errs[2] < 0.02


def test_describe_mentions_tv():
    m = DiscreteMeasure.point((0.5, 0.5), 1.25)
    text = describe(m)
    assert "tv norm" in text
    assert "1.25" in text
