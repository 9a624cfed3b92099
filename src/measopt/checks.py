"""The number rules of problem files, experiment parameters and configs.

A real is a JSON number: bools, strings and NaN are rejected, never
converted.  A count is a positive integer, and a float, bool or string
is rejected even when it would round to one.  Every error names its key.
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


def count(value, key: str) -> int:
    """value as a positive int, else a ValueError naming key."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"invalid config: {key} must be a positive integer, got {value!r}")
    return int(value)
