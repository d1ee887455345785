"""Least-squares convergence-order estimation on refinement ladders."""

from __future__ import annotations

import numpy as np


def fit_order(hs, errs) -> float:
    """Slope of log(err) against log(h), by least squares over >= 2 distinct h.

    Exact zeros are clipped to 1e-300 so degenerate (identically zero)
    residual ladders report a huge order rather than NaN.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.maximum(np.asarray(errs, dtype=float), 1e-300)
    if np.unique(hs).size < 2:
        raise ValueError(f"need at least two ladder levels of distinct h, got {hs.tolist()}")
    A = np.vstack([np.log(hs), np.ones_like(hs)]).T
    slope, _ = np.linalg.lstsq(A, np.log(errs), rcond=None)[0]
    return float(slope)
