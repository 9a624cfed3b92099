"""Monotone absorption nonlinearities g with g(0) = 0.

Four kinds are supported: signed power |t|^(q-1) t with q >= 1, linear
lambda*t with lambda >= 0, monotone piecewise-linear tables, and
user-supplied callables.  Every kind exposes pointwise evaluation, a
one-sided (right) derivative, which is all that Newton's residual line
search reads, a primitive with G(0) = 0 (the discrete energy, which
tests evaluate), and a derivative bound over an interval.
"""
from __future__ import annotations

import math

import numpy as np

from .checks import array, real

class Nonlinearity:
    def __init__(self, fns: dict, label: str):
        self._fns = fns
        self.label = label

    def __repr__(self):
        return f"Nonlinearity({self.label})"

    def __call__(self, t):
        return self._fns["g"](np.asarray(t, dtype=np.float64))

    def derivative(self, t):
        """Right derivative of g (slope of the right segment at kinks)."""
        return self._fns["dg"](np.asarray(t, dtype=np.float64))

    def primitive(self, t):
        """G(t) = integral of g from 0 to t."""
        return self._fns["G"](np.asarray(t, dtype=np.float64))

    def max_derivative(self, lo: float, hi: float) -> float:
        """Upper bound for g' on [lo, hi]; used by the monotone iteration."""
        lam = float(self._fns["max_dg"](min(lo, hi), max(lo, hi)))
        if not math.isfinite(lam) or lam > 1e14:
            raise ValueError("invalid bracket: derivative bound unavailable on the bracket")
        return lam

    # ------------------------------------------------------------------
    @classmethod
    def power(cls, q: float) -> "Nonlinearity":
        """g(t) = |t|^(q-1) t, q >= 1."""
        q = real(q, "q")
        if not q >= 1.0:
            raise ValueError(f"invalid nonlinearity: power exponent must be a finite real >= 1, "
                             f"got {q}")

        def g(t):
            return t * np.abs(t) ** (q - 1.0)

        def dg(t):
            return q * np.abs(t) ** (q - 1.0)

        def G(t):
            return t * t * np.abs(t) ** (q - 1.0) / (q + 1.0)

        def max_dg(lo, hi):
            return q * max(abs(lo), abs(hi)) ** (q - 1.0) if q > 1.0 else q

        return cls({"g": g, "dg": dg, "G": G, "max_dg": max_dg},
                   label=f"power(q={q:g})")

    @classmethod
    def linear(cls, lam: float) -> "Nonlinearity":
        """g(t) = lam * t with lam >= 0; lam = 0 turns absorption off."""
        lam = real(lam, "lam")
        if not lam >= 0.0:
            raise ValueError(f"invalid nonlinearity: linear slope must be a finite real >= 0, "
                             f"got {lam}")
        return cls({"g": lambda t: lam * t,
                    "dg": lambda t: np.full_like(t, lam),
                    "G": lambda t: 0.5 * lam * t * t,
                    "max_dg": lambda lo, hi: lam},
                   label=f"linear(lam={lam:g})")

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls.linear(0.0)

    @classmethod
    def table(cls, ts, gs) -> "Nonlinearity":
        """Piecewise-linear monotone interpolant through (ts, gs).

        Breakpoints must be strictly increasing, values nondecreasing,
        the range must bracket 0, and the interpolated g(0) must vanish.
        Outside the table the end segments extend linearly.
        """
        ts, gs = array(ts, "t"), array(gs, "g")
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError(f"invalid config: t must be a 1-d array of length >= 2, "
                             f"got shape {ts.shape}")
        if gs.shape != ts.shape:
            raise ValueError(f"invalid config: g must be a 1-d array as long as t, "
                             f"got shape {gs.shape}")
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("invalid nonlinearity: table breakpoints must be strictly increasing")
        if np.any(np.diff(gs) < 0.0):
            raise ValueError("invalid nonlinearity: table values must be nondecreasing")
        if not (ts[0] <= 0.0 <= ts[-1]):
            raise ValueError("invalid nonlinearity: table range must contain 0")
        slopes = np.diff(gs) / np.diff(ts)
        # exact piecewise-quadratic primitive from ts[0], accumulated at breakpoints
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (gs[1:] + gs[:-1]) * np.diff(ts))))

        def segment(t):
            """Index of the right-continuous segment holding t, and t's offset in it."""
            seg = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, slopes.size - 1)
            return seg, t - ts[seg]

        def g(t):
            seg, dt = segment(t)
            return gs[seg] + slopes[seg] * dt

        def primitive_from_start(t):
            seg, dt = segment(t)
            return cum[seg] + gs[seg] * dt + 0.5 * slopes[seg] * dt * dt

        g0 = float(g(0.0))
        if abs(g0) > 1e-12:
            raise ValueError(f"invalid nonlinearity: table gives g(0) = {g0:g}, expected 0")
        G0 = primitive_from_start(0.0)

        def max_dg(lo, hi):
            (a, b), _ = segment(np.array([lo, hi]))
            return float(slopes[a:b + 1].max())

        return cls({"g": g, "dg": lambda t: slopes[segment(t)[0]],
                    "G": lambda t: primitive_from_start(t) - G0, "max_dg": max_dg},
                   label=f"table({ts.size} pts)")

    @classmethod
    def from_callable(cls, fn, deriv=None, primitive=None, label="callable") -> "Nonlinearity":
        """Wrap a user-supplied monotone g with g(0) = 0.

        fn must be pointwise: its value at each node depends on that
        node's t alone, as the solver's Jacobian diag(g'(u)) assumes.
        Missing derivative falls back to central differences; a missing
        primitive to 32-point Gauss-Legendre quadrature on [0, t].
        Monotonicity is only spot-checked during solves.
        """
        def g(t):
            return np.asarray(fn(t), dtype=np.float64)

        g0 = float(np.asarray(fn(np.asarray(0.0))))
        if not abs(g0) <= 1e-12:  # NaN fails here too
            raise ValueError(f"invalid nonlinearity: g(0) = {g0:g}, expected 0")

        if deriv is not None:
            def dg(t):
                return np.asarray(deriv(t), dtype=np.float64)
        else:
            def dg(t):
                step = 1e-6 * np.maximum(1.0, np.abs(t))
                return (g(t + step) - g(t - step)) / (2.0 * step)

        if primitive is not None:
            def G(t):
                return np.asarray(primitive(t), dtype=np.float64)
        else:
            nodes, weights = np.polynomial.legendre.leggauss(32)

            def G(t):
                pts = 0.5 * t[..., None] * (nodes + 1.0)
                return 0.5 * t * (g(pts) @ weights)

        def max_dg(lo, hi):
            samples = np.linspace(lo, hi, 4097)
            return float(np.max(dg(samples)))

        return cls({"g": g, "dg": dg, "G": G, "max_dg": max_dg},
                   label=label or "callable")


_CONFIG_KEYS = {"power": {"q"}, "linear": {"lam"}, "zero": set(), "table": {"t", "g"}}


def nonlinearity_from_config(cfg: dict) -> Nonlinearity:
    """Build a Nonlinearity from {"kind": ..., ...}; each kind takes only its keys."""
    kind = cfg.get("kind")
    if kind not in _CONFIG_KEYS:
        raise ValueError(f"invalid config: unknown nonlinearity kind {kind!r}")
    unknown = sorted(set(cfg) - _CONFIG_KEYS[kind] - {"kind"})
    if unknown:
        raise ValueError(f"invalid config: unknown key(s) for nonlinearity kind "
                         f"{kind!r}: {unknown}")
    if kind == "power":
        return Nonlinearity.power(cfg.get("q", 2.0))
    if kind == "linear":
        return Nonlinearity.linear(cfg.get("lam", 0.0))
    if kind == "zero":
        return Nonlinearity.zero()
    for key in ("t", "g"):
        if not isinstance(values := cfg.get(key), list):
            raise ValueError(f"invalid config: {key} must be a list of reals, got {values!r}")
    return Nonlinearity.table(cfg["t"], cfg["g"])
