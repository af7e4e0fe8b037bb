"""Synthetic participant generator with planted, known correlation structure.

Days are assigned a category (isolation or sociability) per sensor feature.
EMA scores are latent normals, correlated as the planted feature's category on
the report day asks by its Cholesky factor, with no BLAS or LAPACK call, then
cut at the standard-normal quartiles onto 0-3 (equiprobable levels). The
discretization attenuates latent correlations; the test suite's oracle
(tests/synth_oracle.py) prices that in exactly.
"""

from __future__ import annotations

import datetime as dt
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ingest import EMA_ITEMS, NO_EMA, NOT_MEASURED, REPORTED, SENSOR_FEATURES, ParticipantDataset
from .netcore import POSITIVE_ONLY

# Standard normal quartiles: equiprobable mapping onto {0, 1, 2, 3}.
DISCRETIZE_THRESHOLDS = (-0.6744897501960817, 0.0, 0.6744897501960817)

START_DATE = dt.date(2023, 1, 1)

_N_ITEMS = len(EMA_ITEMS)
MAX_DAYS = 10**6  # the most days a config may ask for, checked before any allocation


class InvalidConfig(ValueError):
    """Synthetic configuration violates its invariants."""


def _real(value) -> float:
    """value as a float if it is a real number, else TypeError: a bool, which
    Python counts as an int, and a string that float() would parse are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    return float(value)  # OverflowError past the float range


def correlated_block(r: float) -> tuple:
    """Identity 10x10 target with correlation r among the positive items."""
    return tuple(tuple(1.0 if i == j else r if i in POSITIVE_ONLY and j in POSITIVE_ONLY else 0.0
                       for j in range(_N_ITEMS)) for i in range(_N_ITEMS))


@dataclass(frozen=True)
class SynthConfig:
    n_days: int = 300
    seed: int = 0
    report_cadence: int = 3
    planted_feature: str = "locations_visited"
    context_mix: float = 0.5
    isolation_corr: tuple = correlated_block(0.0)
    sociability_corr: tuple = correlated_block(0.0)
    isolation_mean: tuple = (0.0,) * _N_ITEMS
    sociability_mean: tuple = (0.0,) * _N_ITEMS
    missing_sensor_rate: float = 0.0

    def __post_init__(self):
        # Cell types first: a config with several faults names a cell before a range.
        for name in ("isolation_corr", "sociability_corr"):
            self._store_reals(name, lambda m: tuple(tuple(map(_real, row)) for row in m),
                              f"a {_N_ITEMS}x{_N_ITEMS} list of numbers")
        for name in ("isolation_mean", "sociability_mean"):
            self._store_reals(name, lambda v: tuple(map(_real, v)), f"a list of {_N_ITEMS} numbers")
        for name in ("context_mix", "missing_sensor_rate"):
            self._store_reals(name, _real, f"a number, got {getattr(self, name)!r}")
        for name in ("n_days", "seed", "report_cadence"):
            if type(getattr(self, name)) is not int:  # bool is not an integer here
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_days < 0:
            raise InvalidConfig("n_days must be >= 0")
        if self.n_days > MAX_DAYS:
            raise InvalidConfig(f"n_days must be <= {MAX_DAYS}")
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
            _validate_corr(getattr(self, name), name)
        for name in ("isolation_mean", "sociability_mean"):
            if len(getattr(self, name)) != _N_ITEMS:
                raise InvalidConfig(f"{name} must have {_N_ITEMS} entries")
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidConfig(f"{name} entries must be finite")

    def _store_reals(self, name: str, convert, shape: str) -> None:
        """Replace field name by convert(value), its cells as floats, or raise
        InvalidConfig("name must be <shape>")."""
        try:
            object.__setattr__(self, name, convert(getattr(self, name)))
        except (TypeError, OverflowError):
            raise InvalidConfig(f"{name} must be {shape}") from None


def _validate_corr(m: tuple, name: str) -> None:
    if len(m) != _N_ITEMS or any(len(row) != _N_ITEMS for row in m):
        raise InvalidConfig(f"{name} must be {_N_ITEMS}x{_N_ITEMS}")
    if not np.isfinite(m).all():
        raise InvalidConfig(f"{name} entries must be finite")
    if not np.allclose(m, np.transpose(m), rtol=0, atol=1e-12):
        raise InvalidConfig(f"{name} must be symmetric")
    if not np.allclose(np.diag(m), 1.0, rtol=0, atol=1e-12):
        raise InvalidConfig(f"{name} must have unit diagonal")
    _factor(m, name)


def _factor(corr: tuple, name: str) -> list:
    """The lower-triangular Cholesky factor L of corr, L Lᵀ = corr (Cholesky-
    Banachiewicz; Golub & Van Loan, Matrix Computations, 4th ed., §4.2): entry
    (i, j) is corr[i][j] minus the sum of L[i][k]·L[j][k] over k < j, added left
    to right, over L[j][j] if i > j. Only correctly rounded + - × ÷ and sqrt, so
    the same bits on every IEEE 754 platform. InvalidConfig("<name> must be
    positive semidefinite") for a pivot below -1e-8 (a larger one is clipped at
    0), or for an entry more than 1e-8 from 0 below a root <= 1e-8 (set to 0)."""
    L = [[0.0] * len(corr) for _ in corr]
    for i, row in enumerate(L):
        for j in range(i + 1):
            total = 0.0
            for k in range(j):
                total += row[k] * L[j][k]
            rest = corr[i][j] - total
            if i == j and rest >= -1e-8:
                row[j] = math.sqrt(max(rest, 0.0))
            elif i > j and L[j][j] > 1e-8:
                row[j] = rest / L[j][j]
            elif i == j or not abs(rest) <= 1e-8:  # NaN, from an overflow, is refused too
                raise InvalidConfig(f"{name} must be positive semidefinite")
    return L


def discretize(z: np.ndarray) -> np.ndarray:
    """Map latent normal values onto 0-3 at the fixed quartile thresholds."""
    return np.searchsorted(DISCRETIZE_THRESHOLDS, z, side="left").astype(np.int64)


def generate(cfg: SynthConfig) -> ParticipantDataset:
    """Produce a CSV-writable dataset with the planted context structure.

    Reports land on the last day of each report_cadence-day block, so the
    2-day backfill covers every day when the cadence is <= 3. Each random
    quantity is one array, drawn from one generator in this order:
    1. the planted feature's category per block (sociable below context_mix),
       so the days one report covers share its context;
    2. every feature's category per day, the planted column then set from step 1;
    3. a geometric(0.5) count per cell: sociable cells keep it (>= 1),
       isolated cells count 0;
    4. a uniform per cell; below missing_sensor_rate, the cell is NOT_MEASURED;
    5. ten standard normals z per report, made latent scores by the mean and
       Cholesky factor L of the planted category on the report day, item i as
       mean_i + L[i][0]·z_0 + ... + L[i][i]·z_i left to right, then discretized.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n, mix = cfg.n_days, cfg.context_mix
    cadence = min(cfg.report_cadence, n + 1)  # any longer cadence makes one block and no report
    shape = (n, len(SENSOR_FEATURES))
    planted = SENSOR_FEATURES.index(cfg.planted_feature)
    day = np.arange(n)
    block_sociable = rng.random(-(-n // cadence)) < mix
    sociable = rng.random(shape) < mix
    sociable[:, planted] = block_sociable[day // cadence]
    sensors = np.where(sociable, rng.geometric(0.5, shape), 0)
    sensors[rng.random(shape) < cfg.missing_sensor_rate] = NOT_MEASURED
    reported = day % cadence == cadence - 1
    reports = day[reported]
    z = rng.standard_normal((len(reports), _N_ITEMS))
    ema = np.zeros((n, _N_ITEMS), dtype=np.int8)
    report_sociable = sociable[reports, planted]
    for rows, corr, mean in ((~report_sociable, cfg.isolation_corr, cfg.isolation_mean),
                             (report_sociable, cfg.sociability_corr, cfg.sociability_mean)):
        days, zt = reports[rows], z[rows].T.copy()  # one contiguous row of zt per item
        for i, factor_row in enumerate(_factor(corr, "corr")):
            latent = mean[i] + factor_row[0] * zt[0]
            for j in range(1, i + 1):
                latent += factor_row[j] * zt[j]
            ema[days, i] = discretize(latent)
    ema_source = np.where(reported, REPORTED, NO_EMA).astype(np.int8)
    return ParticipantDataset(
        participant_id=f"synth-{cfg.seed}",
        dates=np.datetime64(START_DATE, "D") + day,
        ema=ema,
        ema_source=ema_source,
        sensors=sensors,
    )
