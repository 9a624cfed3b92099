import math

import numpy as np
import pytest
from scipy.integrate import quad

from measopt import Nonlinearity, nonlinearity_from_config


def test_power_values():
    g = Nonlinearity.power(3.0)
    assert float(g(2.0)) == 8.0
    assert float(g(-2.0)) == -8.0
    assert float(g(0.0)) == 0.0
    assert float(g.derivative(-2.0)) == 12.0
    assert float(g.primitive(2.0)) == 4.0
    assert float(g.primitive(-2.0)) == 4.0
    assert g.max_derivative(-1.0, 3.0) == 27.0


def test_power_q1_is_identity():
    g = Nonlinearity.power(1.0)
    t = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(g(t), t, atol=0)
    np.testing.assert_allclose(g.derivative(t), 1.0, atol=0)
    assert g.max_derivative(-5.0, 5.0) == 1.0


def test_power_matches_signed_power_on_random_inputs():
    rng = np.random.default_rng(7)
    for q in rng.uniform(1.0, 4.0, 20):
        g = Nonlinearity.power(q)
        t = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-3.0, 1.0, 200)
        a = np.abs(t)
        np.testing.assert_allclose(g(t), np.sign(t) * a ** q, rtol=1e-13, atol=0)
        np.testing.assert_allclose(g.primitive(t), a ** (q + 1.0) / (q + 1.0),
                                   rtol=1e-13, atol=0)


def test_power_rejects_subunit_exponent():
    with pytest.raises(ValueError):
        Nonlinearity.power(0.5)
    with pytest.raises(ValueError):
        Nonlinearity.power(math.nan)


def test_linear_and_zero():
    g = Nonlinearity.linear(0.7)
    t = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(g(t), 0.7 * t, atol=0)
    np.testing.assert_allclose(g.derivative(t), 0.7, atol=0)
    np.testing.assert_allclose(g.primitive(t), 0.35 * t * t, rtol=0, atol=0)
    z = Nonlinearity.zero()
    assert float(z(5.0)) == 0.0
    assert z.max_derivative(-10, 10) == 0.0
    with pytest.raises(ValueError):
        Nonlinearity.linear(-0.1)


def test_table_interpolation_and_extension():
    g = Nonlinearity.table([-1.0, 0.0, 1.0, 2.0], [-2.0, 0.0, 0.5, 3.0])
    assert float(g(0.5)) == 0.25
    assert float(g(1.5)) == pytest.approx(1.75)
    # linear extension beyond both ends
    assert float(g(3.0)) == pytest.approx(5.5)
    assert float(g(-2.0)) == pytest.approx(-4.0)
    # right derivative at the kinks
    assert float(g.derivative(0.0)) == 0.5
    assert float(g.derivative(1.0)) == 2.5
    assert g.max_derivative(-0.5, 1.5) == 2.5
    assert g.max_derivative(0.1, 0.9) == 0.5


def test_absorption_bound_inverts_g_at_the_datas_extremes():
    rhs = np.array([-8.0, 1.0, 27.0])
    assert Nonlinearity.power(3.0).absorption_bound(rhs) == (-2.0, 3.0)
    assert Nonlinearity.linear(2.0).absorption_bound(rhs) == (-4.0, 13.5)
    # a level of 0 where the data keep one sign
    assert Nonlinearity.power(2.0).absorption_bound(np.array([4.0, 9.0])) == (0.0, 3.0)
    assert Nonlinearity.linear(2.0).absorption_bound(np.array([-4.0])) == (-2.0, 0.0)
    # no bound for g = 0 and for callables, which never evaluate g for it
    calls = []
    cubic = Nonlinearity.from_callable(lambda t: calls.append(1) or t ** 3)
    calls.clear()
    for g in (Nonlinearity.zero(), cubic):
        assert g.absorption_bound(rhs) == (-math.inf, math.inf)
    assert not calls


def test_absorption_bound_of_a_table_ends_flat_segments_at_their_upper_end():
    # flat at 0 on [0, 1], rising to 2 at t = 2, flat at 2 on [2, 3], then slope 1;
    # flat at -1 left of -1
    g = Nonlinearity.table([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0],
                           [-1.0, -1.0, 0.0, 0.0, 2.0, 2.0, 3.0])
    for (low, high), (lo, hi) in {(0.0, 0.0): (0.0, 1.0), (-0.5, 1.0): (-0.5, 1.5),
                                  (0.0, 2.0): (0.0, 3.0), (0.0, 5.0): (0.0, 6.0),
                                  (-1.0, 0.5): (-math.inf, 1.25)}.items():
        assert g.absorption_bound(np.array([low, high])) == (lo, hi)
    # where g stays below the level for good, the bound is infinite
    bounded = Nonlinearity.table([-1.0, 0.0, 1.0, 2.0], [-1.0, 0.0, 1.0, 1.0])
    assert bounded.absorption_bound(np.array([-3.0, 1.0])) == (-3.0, math.inf)
    # a table that starts at 0 with a rounding-level g(0) > 0 bounds t >= 0 at 0
    assert Nonlinearity.table([0.0, 1.0], [1e-13, 1.0]).absorption_bound(
        np.array([0.0]))[1] == 0.0


def _integrate_piecewise(fn, t, kinks):
    # quad each smooth piece so corners cost no accuracy
    lo, hi = min(0.0, t), max(0.0, t)
    pts = sorted({lo, hi, *(k for k in kinks if lo < k < hi)})
    total = sum(quad(fn, a, b)[0] for a, b in zip(pts, pts[1:]))
    return total if t >= 0.0 else -total


def test_table_primitive_matches_quadrature():
    kinks = [-1.0, 0.0, 1.0, 2.0]
    g = Nonlinearity.table(kinks, [-2.0, 0.0, 0.5, 3.0])
    assert float(g.primitive(0.0)) == 0.0
    for t in (-1.7, -0.3, 0.4, 1.2, 2.6):
        ref = _integrate_piecewise(lambda s: float(g(s)), t, kinks)
        assert float(g.primitive(t)) == pytest.approx(ref, abs=1e-10)


def test_table_validation():
    with pytest.raises(ValueError):
        Nonlinearity.table([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])  # repeated t
    with pytest.raises(ValueError):
        Nonlinearity.table([-1.0, 0.0, 1.0], [0.0, 1.0, 0.5])  # decreasing g
    with pytest.raises(ValueError):
        Nonlinearity.table([1.0, 2.0], [0.0, 1.0])  # 0 outside range
    with pytest.raises(ValueError):
        Nonlinearity.table([-1.0, 1.0], [1.0, 2.0])  # g(0) != 0
    with pytest.raises(ValueError):
        Nonlinearity.table([0.0], [0.0])


def test_size_one_arrays_keep_their_shape():
    t = np.array([0.4])
    table = Nonlinearity.table([-1.0, 0.0, 2.0], [-3.0, 0.0, 1.0])
    for out in (table(t), table.derivative(t), table.primitive(t),
                Nonlinearity.from_callable(lambda s: np.asarray(s) ** 3).primitive(t)):
        assert np.shape(out) == (1,)


def test_from_callable_with_analytic_parts():
    g = Nonlinearity.from_callable(
        lambda t: t + 0.1 * np.sin(t),
        deriv=lambda t: 1.0 + 0.1 * np.cos(t),
        primitive=lambda t: 0.5 * np.asarray(t) ** 2 - 0.1 * np.cos(t) + 0.1)
    assert float(g(0.0)) == 0.0
    assert float(g(1.0)) == pytest.approx(1.0 + 0.1 * math.sin(1.0))
    assert float(g.derivative(2.0)) == pytest.approx(1.0 + 0.1 * math.cos(2.0))
    assert float(g.primitive(2.0)) == pytest.approx(2.0 - 0.1 * math.cos(2.0) + 0.1)
    assert g.max_derivative(-1.0, 1.0) == pytest.approx(1.1, abs=1e-6)


def test_from_callable_fallbacks():
    g = Nonlinearity.from_callable(lambda t: np.asarray(t) ** 3)
    assert float(g.derivative(2.0)) == pytest.approx(12.0, rel=1e-8)
    assert float(g.primitive(2.0)) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        Nonlinearity.from_callable(lambda t: np.asarray(t) + 1.0)  # g(0) != 0


def test_monotone_sampled():
    rng = np.random.default_rng(41)
    fns = [Nonlinearity.power(1.5), Nonlinearity.power(3.0),
           Nonlinearity.linear(2.0),
           Nonlinearity.table([-2.0, -0.5, 0.0, 1.0], [-4.0, -1.0, 0.0, 0.0])]
    for g in fns:
        t = np.sort(rng.uniform(-5, 5, 64))
        assert np.all(np.diff(np.asarray(g(t))) >= -1e-12)
        assert np.all(np.asarray(g.derivative(t)) >= -1e-12)


def test_from_config():
    assert float(nonlinearity_from_config({"kind": "power", "q": 2.0})(3.0)) == 9.0
    assert float(nonlinearity_from_config({"kind": "linear", "lam": 2.0})(3.0)) == 6.0
    assert float(nonlinearity_from_config({"kind": "zero"})(3.0)) == 0.0
    tab = nonlinearity_from_config({"kind": "table", "t": [-1, 0, 1], "g": [-1, 0, 1]})
    assert float(tab(0.5)) == 0.5
    with pytest.raises(ValueError):
        nonlinearity_from_config({"kind": "cubic-spline"})
    # each kind takes only its own keys; "lam" is the only spelling of the slope
    for cfg, key in [({"kind": "power", "Q": 3}, "Q"),
                     ({"kind": "power", "q": 3, "lam": 1.0}, "lam"),
                     ({"kind": "linear", "lambda": 2.0}, "lambda"),
                     ({"kind": "zero", "q": 2.0}, "q"),
                     ({"kind": "table", "t": [-1, 0, 1], "g": [-1, 0, 1], "q": 2}, "q")]:
        with pytest.raises(ValueError, match=f"'{key}'"):
            nonlinearity_from_config(cfg)


NON_NUMBER_CONFIGS = [
    ({"kind": "power", "q": "3"}, "q"),
    ({"kind": "power", "q": True}, "q"),
    ({"kind": "power", "q": math.nan}, "q"),
    ({"kind": "linear", "lam": "2"}, "lam"),
    ({"kind": "linear", "lam": False}, "lam"),
    ({"kind": "table", "t": [-1, "0", 1], "g": [-1, 0, 1]}, "t"),
    ({"kind": "table", "t": [-1, 0, 1], "g": [-1, 0, True]}, "g"),
]


@pytest.mark.parametrize("cfg,key", NON_NUMBER_CONFIGS,
                         ids=[f"{cfg['kind']}-{key}={cfg[key]!r}"
                              for cfg, key in NON_NUMBER_CONFIGS])
def test_from_config_rejects_non_numbers(cfg, key):
    # the problem-file number rule: bools, strings and NaN are not numbers
    with pytest.raises(ValueError, match=rf"\b{key} must be"):
        nonlinearity_from_config(cfg)


# (id, constructor call, what the error must name)
NON_FINITE_PARAMETERS = [
    ("linear-nan", lambda: Nonlinearity.linear(math.nan), r"\blam must be"),
    ("linear-inf", lambda: Nonlinearity.linear(math.inf), r"\blam must be"),
    ("power-inf", lambda: Nonlinearity.power(math.inf), r"\bq must be"),
    ("table-nan-breakpoint", lambda: Nonlinearity.table([-1.0, math.nan, 1.0], [-1.0, 0.0, 1.0]),
     r"\bt must be"),
    ("table-inf-breakpoint", lambda: Nonlinearity.table([-1.0, 0.0, math.inf], [-1.0, 0.0, 1.0]),
     r"\bt must be"),
    ("table-nan-value", lambda: Nonlinearity.table([-1.0, 0.0, 1.0], [-1.0, 0.0, math.nan]),
     r"\bg must be"),
    ("table-minus-inf-value", lambda: Nonlinearity.table([-1.0, 0.0, 1.0], [-math.inf, 0.0, 1.0]),
     r"\bg must be"),
    ("callable-nan-at-zero", lambda: Nonlinearity.from_callable(lambda t: t * math.nan),
     r"invalid nonlinearity: g\(0\)"),
]


@pytest.mark.parametrize("build,key", [case[1:] for case in NON_FINITE_PARAMETERS],
                         ids=[case[0] for case in NON_FINITE_PARAMETERS])
def test_constructors_reject_non_finite_parameters(build, key):
    # each would break g(0) = 0 or make g' non-finite, and fail only inside a solve
    with pytest.raises(ValueError, match=key):
        build()
