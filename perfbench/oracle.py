"""Benchmark-local reference for the program's numbers.

Written from the method description, not from ``emanet``: the 2-day EMA
backfill, the context pools, the Pearson network (a constant column
correlates 0 with everything, diagonal 1) and connectivity (sum of the
strict upper triangle).
"""

from __future__ import annotations

import numpy as np

from gen import MISSING, Days

BACKFILL_WINDOW = 2


def backfill(ema: np.ndarray) -> np.ndarray:
    """A day without a report takes the report of day d+1, else d+2."""
    reported = ema[:, 0] != MISSING
    out = ema.copy()
    n = ema.shape[0]
    for d in np.flatnonzero(~reported):
        for k in range(1, BACKFILL_WINDOW + 1):
            if d + k < n and reported[d + k]:
                out[d] = ema[d + k]
                break
    return out


def pools(days: Days, sensor: int) -> dict:
    """Day indices (in date order) of the baseline, isolation and sociability pools."""
    has_ema = backfill(days.ema)[:, 0] != MISSING
    count = days.sensors[:, sensor]
    return {
        "baseline": np.flatnonzero(has_ema),
        "isolation": np.flatnonzero(has_ema & (count == 0)),
        "sociability": np.flatnonzero(has_ema & (count > 0)),
    }


def pearson(data: np.ndarray) -> np.ndarray:
    """Correlation matrices of the columns of (..., n_days, k) data."""
    x = np.asarray(data, dtype=np.float64)
    x = x - x.mean(axis=-2, keepdims=True)
    ss = (x * x).sum(axis=-2)
    constant = ss == 0
    x = x / np.sqrt(np.where(constant, 1.0, ss))[..., None, :]
    corr = np.swapaxes(x, -1, -2) @ x
    corr[constant[..., :, None] | constant[..., None, :]] = 0.0
    k = corr.shape[-1]
    corr[..., np.arange(k), np.arange(k)] = 1.0
    return np.clip(corr, -1.0, 1.0)


def connectivity(corr: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(corr.shape[-1], k=1)
    return corr[..., i, j].sum(axis=-1)
