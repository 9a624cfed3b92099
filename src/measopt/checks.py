"""The number rules of problem files, experiment parameters and the Python API.

A real is a JSON number: bools, strings and NaN are rejected, never
converted.  A count is an integer, at least 1 unless the caller lowers
the bound; a float, bool or string is rejected even when it would round
to one.  An array holds finite reals.  Every error names its key.  The
rules serve ``Grid``, ``ScalarField``, ``constant_field``, ``lp_norm``,
``Nonlinearity.power``, ``linear`` and ``table``, ``DiscreteMeasure``
(so ``point`` and ``from_atoms``), ``scale``, ``mollify``,
``ControlProblem``, ``OptimizeConfig`` and ``run_experiment``'s seed.
"""
from __future__ import annotations

import math

import numpy as np


def real(value, key: str, positive: bool = False, allow_inf: bool = False) -> float:
    """value as a float, else a ValueError naming key.

    positive requires value > 0; allow_inf admits infinity, also spelled
    "inf" or "infinity".
    """
    if allow_inf and isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or math.isnan(value) or (math.isinf(value) and not allow_inf)
            or (positive and not value > 0.0)):
        kind = 'a real or "inf"' if allow_inf else "a finite real"
        raise ValueError(f"invalid config: {key} must be {kind}"
                         f"{' > 0' if positive else ''}, got {value!r}")
    return float(value)


def count(value, key: str, least: int = 1) -> int:
    """value as an int >= least, else a ValueError naming key."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"invalid config: {key} must be {kind}, got {value!r}")
    return int(value)


def array(values, key: str) -> np.ndarray:
    """values as a float64 array, else a ValueError naming key; a list's entries pass ``real``."""
    if not isinstance(values, np.ndarray):
        entries = np.asarray(values, dtype=object)
        values = np.array([real(v, key) for v in entries.flat]).reshape(entries.shape)
    if values.dtype.kind not in "iuf" or not np.isfinite(values).all():
        what = "a non-finite entry" if values.dtype.kind in "iuf" else f"{values.dtype} entries"
        raise ValueError(f"invalid config: {key} must be an array of finite reals, got {what}")
    return np.asarray(values, dtype=np.float64)
