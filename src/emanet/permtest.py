"""Permutation engine: resampled connectivity differences and the paired t-test.

The engine sees only integer score arrays, one per pool (a row per day, a
column per item); the caller picks the days and the items. Each context
iteration draws a fixed-size day sample per category (without
replacement within the draw, fresh draws across iterations), builds one
Pearson network per sample, and records the connectivity difference. Each
baseline iteration draws two disjoint samples from the unfiltered pool
instead. run_paired draws both sides in one loop, block by block, each from
its own generator, and compares them with a paired-sample t-test, paired by
iteration index.

Samples are drawn BLOCK iterations at a time by one vectorized pass of Floyd's
algorithm (Bentley & Floyd, "A sample of brilliance", CACM 30(9), 1987), which
costs O(sample size) per row whatever the pool size. Which days an iteration
draws depends on BLOCK, so the CLI records the sampler id SAMPLER with each
run's config.

Caveat, also printed in report footers: the iterations resample heavily
overlapping day sets, so the t-test's independence assumptions are only
approximate; the procedure is reproduced as published.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import stats
from .netcore import correlation_matrix, upper_triangle_sum

# Iterations per draw and kernel pass: enough to amortise numpy call overhead,
# few enough that peak RSS stays flat (all 2000 in one pass raised it by half).
# The block shapes the generator calls, so changing BLOCK changes every output.
BLOCK = 64
SAMPLER = f"floyd-block-{BLOCK}"


class InsufficientPool(ValueError):
    def __init__(self, category: str, have: int, need: int):
        self.category = category
        self.have = have
        self.need = need
        super().__init__(f"{category} pool has {have} days, need {need}")


class InvalidConfig(ValueError):
    """A PermutationConfig value is out of range."""


@dataclass(frozen=True)
class PermutationConfig:
    n_permutations: int = 2000
    sample_size: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.n_permutations < 2:
            raise InvalidConfig("n_permutations must be >= 2")
        if self.sample_size < 2:
            raise InvalidConfig("sample_size must be >= 2")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


@dataclass(frozen=True)
class PermutationRun:
    differences: tuple
    mean: float
    std: float
    sampled_indices: tuple | None = None


@dataclass(frozen=True)
class TTest:
    t_score: float
    p_value: float
    df: int


def child_rng(master_seed: int, stream_id: str) -> np.random.Generator:
    """Seeded generator for one named stream, derived from the master seed
    plus a hash of the stream id. Every run names its streams by its context
    feature and by BASELINE alone, so its results depend only on the input
    bytes and the flags: not on the order of contexts, the file's name or the
    command. A cohort participant's outputs are analyze's on its file, byte
    for byte.
    """
    digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
    salt = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed, salt]))


def _subsets(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    """m independent uniform k-subsets of range(n), one per (m, k) row.

    Floyd's algorithm vectorized over rows: step s draws v in [0, n-k+s] and
    takes n-k+s, above every earlier value, when a "taken" mask of m·n bytes
    (row r at r·n) shows v already in the row. Rows hold distinct values in
    insertion order, which is not a uniformly random order.
    """
    hi = np.arange(n - k, n)
    v = rng.integers(0, hi + 1, size=(m, k))
    base = np.arange(0, m * n, n)
    taken = np.zeros(m * n, dtype=bool)
    for s in range(k):
        col = v[:, s]
        col[taken[base + col]] = hi[s]
        taken[base + col] = True
    return v


def _disjoint_halves(rng: np.random.Generator, n: int, k: int, m: int) -> tuple:
    """m pairs of disjoint uniform k-subsets of range(n), as two (m, k) arrays:
    one 2k-subset per row, shuffled out of Floyd's insertion order, then split."""
    idx = rng.permuted(_subsets(rng, n, 2 * k, m), axis=1)
    return idx[:, :k], idx[:, k:]


def run_paired(iso: np.ndarray, soc: np.ndarray, data: np.ndarray, cfg: PermutationConfig,
               context_rng: np.random.Generator, baseline_rng: np.random.Generator, log_indices: bool = False) -> tuple:
    """Context and baseline runs, paired by iteration index, and their t-test.

    iso, soc and data are the (n_days x k) integer scores of the isolation,
    sociability and unfiltered baseline pools, one row per day and one column
    per item. Each block of BLOCK iterations draws the isolation and
    sociability samples from context_rng, then two disjoint halves of one
    2*sample_size draw from the unfiltered pool from baseline_rng. Context differences are isolation
    minus sociability; baseline differences are first half minus second, which
    makes their distribution symmetric around 0. The kernel's result does not
    depend on row order, so samples go to it as drawn, and a sample covering
    the whole pool is bit-identical every iteration. Each side is one kernel
    pass of 2m networks per block, because one pass of all 4m networks is
    slower. With log_indices the sample positions (rows of each pool's array)
    are kept, in ascending order, so every difference can be recomputed after
    the fact.

    Returns (context_run, baseline_run, TTest); each run carries the mean and
    sample std of its differences. The t-test takes the baseline first, so t is
    negative when the context mean exceeds it.
    """
    k = cfg.sample_size
    for category, rows, need in (("isolation", iso, k), ("sociability", soc, k), ("baseline", data, 2 * k)):
        if len(rows) < need:
            raise InsufficientPool(category, len(rows), need)
    sides = ((iso, soc, [], [] if log_indices else None), (data, data, [], [] if log_indices else None))
    for start in range(0, cfg.n_permutations, BLOCK):
        m = min(BLOCK, cfg.n_permutations - start)
        draws = (
            (_subsets(context_rng, len(iso), k, m), _subsets(context_rng, len(soc), k, m)),
            _disjoint_halves(baseline_rng, len(data), k, m),
        )
        for (a, b, differences, log), (idx_a, idx_b) in zip(sides, draws):
            conn = upper_triangle_sum(correlation_matrix(np.concatenate((a[idx_a], b[idx_b]))))
            differences += (conn[:m] - conn[m:]).tolist()
            if log is not None:
                idx_a, idx_b = (np.sort(idx, axis=1).tolist() for idx in (idx_a, idx_b))
                log += zip(map(tuple, idx_a), map(tuple, idx_b))
    context_run, baseline_run = (
        PermutationRun(tuple(differences), stats.mean(differences), stats.sample_std(differences),
                       tuple(log) if log is not None else None)
        for _, _, differences, log in sides
    )
    return context_run, baseline_run, paired_t_test(baseline_run.differences, context_run.differences)


def paired_t_test(xs, ys) -> TTest:
    """Paired-sample t-test on index-matched sequences.

    With d = x - y: t = mean(d) / (std(d)/sqrt(n)), df = n - 1, and the
    two-sided p-value of t. Degenerate variance is handled, not raised:
    all-zero differences give t = 0, p = 1; a constant nonzero difference
    gives signed infinity, p = 0.
    """
    n = len(xs)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = [float(a) - float(b) for a, b in zip(xs, ys, strict=True)]
    d_mean = stats.mean(d)
    d_std = stats.sample_std(d)
    if d_std == 0.0:
        t = math.copysign(math.inf, d_mean) if d_mean else 0.0
    else:
        t = d_mean / (d_std / math.sqrt(n))
    return TTest(t_score=t, p_value=stats.t_sf(t, n - 1), df=n - 1)
