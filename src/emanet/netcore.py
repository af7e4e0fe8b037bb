"""Pearson correlation networks over EMA item subsets, and their connectivity.

An item subset is a tuple of EMA column indices (ALL10, POSITIVE_ONLY,
NEGATIVE_ONLY); a network is built from a days x items integer score array.

Connectivity is the sum of the strictly-upper-triangle entries: every unordered
item pair counted once, diagonal excluded. Networks can be exported as JSON
(verbatim matrix) or Graphviz DOT (display-thresholded, signed edge colors).

One kernel, correlation_matrix, computes every network, alone or in an
(..., n_days, k) stack of integer scores; upper_triangle_sum gives each one's
connectivity. The co-moments n·Σxy − Σx·Σy are float64 matmuls of integer
values whose every product and partial sum is an integer below 2^53, so BLAS
computes them exactly whatever its summation order, blocking or FMA use, and
whatever the order of the days. Each r is one correctly rounded division, and
connectivity adds the pair correlations left to right in np.triu_indices
order. So a network has the same bits alone, in any batch, for any day order
and on any numpy/BLAS build.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .ingest import EMA_ITEMS

DOT_EDGE_THRESHOLD = 0.1

# Scores with n²·max|x|² up to this keep every product, partial sum and
# co-moment of the float64 kernel an exact integer.
MAX_EXACT_MOMENT = 2**52


class InsufficientData(ValueError):
    """Too few days to estimate a correlation network."""


# EMA column indices of each item subset.
ALL10 = tuple(range(10))
POSITIVE_ONLY = (0, 1, 2, 3, 4)
NEGATIVE_ONLY = (5, 6, 7, 8, 9)


@dataclass(frozen=True, eq=False)
class CorrelationNetwork:
    items: tuple
    matrix: np.ndarray = field(repr=False)
    n_samples: int

    def __post_init__(self):
        m = self.matrix
        if m.shape != (len(self.items), len(self.items)):
            raise ValueError("matrix dimension must match item count")
        m.flags.writeable = False


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the columns of an (n_days x k) integer array,
    or of each slice of an (..., n_days, k) stack: r = cm_ij / sqrt(cm_ii·cm_jj)
    from the co-moments cm = n·Σxy − Σx·Σy.

    Zero-variance columns get correlation 0 against everything; the diagonal
    is forced to 1. Entries are clipped to [-1, 1] against rounding. The
    co-moments are exact integers, so the result does not depend on row order.
    """
    data = np.asarray(data)
    if data.ndim < 2:
        raise ValueError("expected a days x items array or a stack of them")
    n = data.shape[-2]
    if n < 2:
        raise InsufficientData(f"need at least 2 days, got {n}")
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"expected integer scores, got dtype {data.dtype}")
    if n * n * max(int(data.max()), -int(data.min())) ** 2 > MAX_EXACT_MOMENT:
        raise ValueError("scores too large for exact integer moments")
    x = data.astype(float)
    sums = np.ones(n) @ x
    cm = n * (np.swapaxes(x, -1, -2) @ x) - sums[..., :, None] * sums[..., None, :]
    var = np.diagonal(cm, axis1=-2, axis2=-1)
    denom = np.sqrt(var[..., :, None] * var[..., None, :])
    corr = np.divide(cm, denom, out=np.zeros_like(cm), where=denom > 0)
    np.clip(corr, -1.0, 1.0, out=corr)
    k = corr.shape[-1]
    corr[..., np.arange(k), np.arange(k)] = 1.0
    return corr


def pearson_network(ema: np.ndarray, items: tuple) -> CorrelationNetwork:
    """Estimate the correlation network of the EMA columns `items` across days.

    `ema` is an (n_days x 10) integer array of scores, one row per day, such
    as the EMA rows of a category pool. Each node is labelled by the first three
    letters of its item's name, upper-cased ("calm" -> "CAL").
    """
    labels = tuple(EMA_ITEMS[i][:3].upper() for i in items)
    return CorrelationNetwork(items=labels, matrix=correlation_matrix(ema[:, items]), n_samples=len(ema))


@functools.cache
def _pairs(k: int) -> tuple:
    """np.triu_indices(k, 1), built once per k and read-only, as callers share it."""
    i, j = np.triu_indices(k, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def upper_triangle_sum(matrix: np.ndarray):
    """Sum of strictly-upper-triangle entries (each pair once, no diagonal; 0 if k < 2)
    of a matrix or of each matrix in a (..., k, k) stack, added left to right by
    np.add.accumulate: the same bits alone and in any stack, unlike pairwise .sum()."""
    i, j = _pairs(matrix.shape[-1])
    pairs = np.asarray(matrix, dtype=float)[..., i, j]
    total = np.add.accumulate(pairs, axis=-1)[..., -1] if len(i) else np.zeros(pairs.shape[:-1])
    return total if total.ndim else float(total)


def network_to_json(net: CorrelationNetwork) -> str:
    payload = {
        "items": list(net.items),
        "n_samples": net.n_samples,
        "matrix": [[float(v) for v in row] for row in net.matrix],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def network_to_dot(net: CorrelationNetwork) -> str:
    """Render an undirected weighted graph; display-only edge threshold DOT_EDGE_THRESHOLD.

    Edge width scales as 1 + 4|r|; blue for positive correlations, red for
    negative. The underlying matrix is never thresholded, only this view.
    """
    lines = ["graph ema_network {", "  node [shape=circle];"]
    for label in net.items:
        lines.append(f"  {label};")
    k = len(net.items)
    for i in range(k):
        for j in range(i + 1, k):
            r = float(net.matrix[i, j])
            if abs(r) < DOT_EDGE_THRESHOLD:
                continue
            color = "blue" if r > 0 else "red"
            width = 1.0 + 4.0 * abs(r)
            lines.append(
                f"  {net.items[i]} -- {net.items[j]} "
                f"[penwidth={format(width, '.6g')}, color={color}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_network(net: CorrelationNetwork, fmt: str) -> str:
    if fmt == "json":
        return network_to_json(net)
    if fmt == "dot":
        return network_to_dot(net)
    raise ValueError(f"unknown export format {fmt!r}")
