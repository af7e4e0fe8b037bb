"""Synthetic participant generator with planted, known correlation structure.

Days are assigned a category (isolation or sociability) per sensor feature.
EMA scores come from a latent multivariate normal whose correlation matrix
depends on the planted feature's category on the report day, discretized onto
the 0-3 scale at standard-normal quartile boundaries (equiprobable levels).
The discretization attenuates latent correlations; ground_truth() measures the
attenuated targets with a large-sample oracle rather than an analytic
correction.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .ingest import EMA_ITEMS, NO_EMA, NOT_MEASURED, REPORTED, SENSOR_FEATURES, ParticipantDataset
from .netcore import ALL10, POSITIVE_ONLY, ItemSubset, correlation_from_comoments, upper_triangle_sum

# Standard normal quartiles: equiprobable mapping onto {0, 1, 2, 3}.
DISCRETIZE_THRESHOLDS = (-0.6744897501960817, 0.0, 0.6744897501960817)

START_DATE = dt.date(2023, 1, 1)

_N_ITEMS = len(EMA_ITEMS)


class InvalidConfig(ValueError):
    """Synthetic configuration violates its invariants."""


def correlated_block(r: float, indices=POSITIVE_ONLY.indices) -> tuple:
    """Identity 10x10 target with correlation r among the given item indices."""
    m = [[1.0 if i == j else 0.0 for j in range(_N_ITEMS)] for i in range(_N_ITEMS)]
    for i in indices:
        for j in indices:
            if i != j:
                m[i][j] = r
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class SynthConfig:
    n_days: int
    seed: int = 0
    report_cadence: int = 3
    planted_feature: str = "locations_visited"
    context_mix: float = 0.5
    isolation_corr: tuple = correlated_block(0.0, ())
    sociability_corr: tuple = correlated_block(0.0, ())
    isolation_mean: tuple = (0.0,) * _N_ITEMS
    sociability_mean: tuple = (0.0,) * _N_ITEMS
    missing_sensor_rate: float = 0.0

    def __post_init__(self):
        if self.n_days < 0:
            raise InvalidConfig("n_days must be >= 0")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")
        if self.report_cadence < 1:
            raise InvalidConfig("report_cadence must be >= 1")
        if self.planted_feature not in SENSOR_FEATURES:
            raise InvalidConfig(f"unknown planted feature {self.planted_feature!r}")
        if not 0.0 <= self.context_mix <= 1.0:
            raise InvalidConfig("context_mix must be in [0, 1]")
        if not 0.0 <= self.missing_sensor_rate <= 1.0:
            raise InvalidConfig("missing_sensor_rate must be in [0, 1]")
        for name in ("isolation_corr", "sociability_corr"):
            _validate_corr(np.asarray(getattr(self, name), dtype=float), name)
        for name in ("isolation_mean", "sociability_mean"):
            if len(getattr(self, name)) != _N_ITEMS:
                raise InvalidConfig(f"{name} must have {_N_ITEMS} entries")


def _validate_corr(m: np.ndarray, name: str) -> None:
    if m.shape != (_N_ITEMS, _N_ITEMS):
        raise InvalidConfig(f"{name} must be {_N_ITEMS}x{_N_ITEMS}")
    if not np.allclose(m, m.T, atol=1e-12):
        raise InvalidConfig(f"{name} must be symmetric")
    if not np.allclose(np.diag(m), 1.0, atol=1e-12):
        raise InvalidConfig(f"{name} must have unit diagonal")
    if np.linalg.eigvalsh(m).min() < -1e-8:
        raise InvalidConfig(f"{name} must be positive semidefinite")


def _factor(corr: np.ndarray) -> np.ndarray:
    """The unique symmetric square root S of corr, so S @ S.T = corr.

    S = V diag(sqrt(w)) V.T (Higham, Functions of Matrices, 2008, ch. 6) does
    not depend on which orthonormal basis LAPACK returns inside a repeated
    eigenspace, unlike V diag(sqrt(w)), so synthetic output is the same on
    every BLAS/LAPACK build. Clipping w at 0 tolerates semidefinite targets.
    """
    w, v = np.linalg.eigh(corr)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def discretize(z: np.ndarray) -> np.ndarray:
    """Map latent normal values onto 0-3 at the fixed quartile thresholds."""
    return np.searchsorted(DISCRETIZE_THRESHOLDS, z, side="left").astype(np.int64)


def generate(cfg: SynthConfig) -> ParticipantDataset:
    """Produce a CSV-writable dataset with the planted context structure.

    Reports land on every report_cadence-th day (the last day of each cadence
    block), so the 2-day backfill covers every day when the cadence is <= 3.
    Sensor counts satisfy the category predicates exactly: isolation days have
    count 0, sociability days a positive geometric count.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    l_iso = _factor(np.asarray(cfg.isolation_corr, dtype=float))
    l_soc = _factor(np.asarray(cfg.sociability_corr, dtype=float))
    mu_iso = np.asarray(cfg.isolation_mean, dtype=float)
    mu_soc = np.asarray(cfg.sociability_mean, dtype=float)
    n = cfg.n_days
    planted = SENSOR_FEATURES.index(cfg.planted_feature)
    ema = np.zeros((n, _N_ITEMS), dtype=np.int8)
    ema_source = np.full(n, NO_EMA, dtype=np.int8)
    sensors = np.zeros((n, len(SENSOR_FEATURES)), dtype=np.int64)
    planted_sociable = False
    for i in range(n):
        # The planted feature's category persists over each reporting block,
        # so the days covered by one report share the context it was made in.
        if i % cfg.report_cadence == 0:
            planted_sociable = bool(rng.random() < cfg.context_mix)
        sociable = [
            planted_sociable if j == planted else bool(rng.random() < cfg.context_mix)
            for j in range(len(SENSOR_FEATURES))
        ]
        for j, is_sociable in enumerate(sociable):
            if cfg.missing_sensor_rate and rng.random() < cfg.missing_sensor_rate:
                sensors[i, j] = NOT_MEASURED
            elif is_sociable:
                sensors[i, j] = rng.geometric(0.5)
        if i % cfg.report_cadence == cfg.report_cadence - 1:
            if sociable[planted]:
                z = mu_soc + l_soc @ rng.standard_normal(_N_ITEMS)
            else:
                z = mu_iso + l_iso @ rng.standard_normal(_N_ITEMS)
            ema[i] = discretize(z)
            ema_source[i] = REPORTED
    return ParticipantDataset(
        participant_id=f"synth-{cfg.seed}",
        dates=np.datetime64(START_DATE, "D") + np.arange(n),
        ema=ema,
        ema_source=ema_source,
        sensors=sensors,
    )


def discretized_correlation(corr: tuple, n_draws: int = 4_000_000, seed: int = 0) -> np.ndarray:
    """Large-sample correlation matrix of the discretized latent model.

    Accumulates integer cross-moments in chunks: scores are 0-3 so the sums
    stay exact in int64 and memory stays flat regardless of n_draws. The
    network kernel's integer-moment step turns them into r.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6F7261636C65]))
    l = _factor(np.asarray(corr, dtype=float))
    cross = np.zeros((_N_ITEMS, _N_ITEMS), dtype=np.int64)
    sums = np.zeros(_N_ITEMS, dtype=np.int64)
    remaining = n_draws
    chunk = 250_000
    while remaining > 0:
        m = min(chunk, remaining)
        x = discretize(rng.standard_normal((m, _N_ITEMS)) @ l.T)
        cross += x.T @ x
        sums += x.sum(axis=0)
        remaining -= m
    return correlation_from_comoments(n_draws * cross - np.outer(sums, sums))


def ground_truth(
    cfg: SynthConfig,
    subset: ItemSubset = ALL10,
    n_draws: int = 4_000_000,
    oracle_seed: int = 0,
) -> float:
    """Expected connectivity difference (isolation minus sociability).

    Brute-force oracle: simulates the discretization pipeline at large sample
    size, so Likert coarsening attenuation is priced into the planted effect.
    """
    if cfg.isolation_corr == cfg.sociability_corr:
        return 0.0
    idx = list(subset.indices)
    r_iso = discretized_correlation(cfg.isolation_corr, n_draws, oracle_seed)[np.ix_(idx, idx)]
    r_soc = discretized_correlation(cfg.sociability_corr, n_draws, oracle_seed + 1)[np.ix_(idx, idx)]
    return upper_triangle_sum(r_iso) - upper_triangle_sum(r_soc)
