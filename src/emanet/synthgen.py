"""Synthetic participant generator with planted, known correlation structure.

Days are assigned a category (isolation or sociability) per sensor feature.
EMA scores come from a latent multivariate normal whose correlation matrix
depends on the planted feature's category on the report day, discretized onto
the 0-3 scale at standard-normal quartile boundaries (equiprobable levels).
The discretization attenuates latent correlations; the test suite's oracle
(tests/synth_oracle.py) prices that in exactly.
"""

from __future__ import annotations

import datetime as dt
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
    m = [[1.0 if i == j else 0.0 for j in range(_N_ITEMS)] for i in range(_N_ITEMS)]
    for i in POSITIVE_ONLY:
        for j in POSITIVE_ONLY:
            if i != j:
                m[i][j] = r
    return tuple(tuple(row) for row in m)


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
            try:
                corr = np.asarray(getattr(self, name), dtype=float)
            except ValueError:  # ragged rows
                raise InvalidConfig(f"{name} must be {_N_ITEMS}x{_N_ITEMS}") from None
            _validate_corr(corr, name)
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


def _validate_corr(m: np.ndarray, name: str) -> None:
    if m.shape != (_N_ITEMS, _N_ITEMS):
        raise InvalidConfig(f"{name} must be {_N_ITEMS}x{_N_ITEMS}")
    if not np.isfinite(m).all():
        raise InvalidConfig(f"{name} entries must be finite")
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

    Reports land on the last day of each report_cadence-day block, so the
    2-day backfill covers every day when the cadence is <= 3. Each random
    quantity is one array, drawn from one generator in this order:
    1. the planted feature's category per block (sociable below context_mix),
       so the days one report covers share its context;
    2. every feature's category per day, the planted column then set from step 1;
    3. a geometric(0.5) count per cell: sociable cells keep it (>= 1),
       isolated cells count 0;
    4. a uniform per cell; below missing_sensor_rate, the cell is NOT_MEASURED;
    5. ten standard normals per report, made latent scores by the mean and
       factor of the planted category on the report day, then discretized.
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
    reports = day[day % cadence == cadence - 1]
    z = rng.standard_normal((len(reports), _N_ITEMS))
    latent = np.where(sociable[reports, planted, None],
                      np.asarray(cfg.sociability_mean) + z @ _factor(np.asarray(cfg.sociability_corr)).T,
                      np.asarray(cfg.isolation_mean) + z @ _factor(np.asarray(cfg.isolation_corr)).T)
    ema = np.zeros((n, _N_ITEMS), dtype=np.int8)
    ema[reports] = discretize(latent)
    ema_source = np.full(n, NO_EMA, dtype=np.int8)
    ema_source[reports] = REPORTED
    return ParticipantDataset(
        participant_id=f"synth-{cfg.seed}",
        dates=np.datetime64(START_DATE, "D") + day,
        ema=ema,
        ema_source=ema_source,
        sensors=sensors,
    )
