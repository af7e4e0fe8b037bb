"""Behavioral contexts: split EMA-bearing days into isolation vs sociability pools.

Each context is a daily sensor count with a zero/nonzero split: a count of 0
is a period of social isolation, a count of 1 or more a period of sociability.
The baseline pseudo-context has no predicates and feeds random unfiltered
sampling. Pools are arrays of row indices into the participant's day table,
in date order, computed as masks over its EMA sources and sensor counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import SENSOR_FEATURES, ParticipantDataset

BASELINE = "baseline"

# CLI flag value -> sensor feature (or baseline).
CONTEXT_FLAGS = {
    "locations": "locations_visited",
    "calls_made": "calls_made",
    "calls_received": "calls_received",
    "sms_sent": "sms_sent",
    "sms_received": "sms_received",
    "conversations": "conversations_detected",
    "baseline": BASELINE,
}

DISPLAY_NAMES = {
    "locations_visited": "Daily Number of Locations Visited",
    "calls_made": "Daily Number of Calls Made",
    "calls_received": "Daily Number of Calls Received",
    "sms_sent": "Daily Number of SMS Messages Sent",
    "sms_received": "Daily Number of SMS Messages Received",
    "conversations_detected": "Daily Number of Conversations Detected",
    BASELINE: "Baseline",
}


@dataclass(frozen=True)
class ContextSpec:
    """A behavioral feature plus its isolation (== 0) / sociability (>= 1) split."""

    feature: str

    def __post_init__(self):
        if self.feature != BASELINE and self.feature not in SENSOR_FEATURES:
            raise ValueError(f"unknown context feature {self.feature!r}")

    @property
    def is_baseline(self) -> bool:
        return self.feature == BASELINE

    @classmethod
    def from_flag(cls, flag: str) -> "ContextSpec":
        try:
            return cls(CONTEXT_FLAGS[flag])
        except KeyError:
            raise ValueError(f"unknown context flag {flag!r}") from None


def all_context_specs() -> tuple:
    """The six non-baseline contexts in feature order."""
    return tuple(ContextSpec(f) for f in SENSOR_FEATURES)


@dataclass(frozen=True, eq=False)
class CategoryPools:
    """Row indices of the days in each category, in date order."""

    feature: str
    isolation_days: np.ndarray
    sociability_days: np.ndarray


def categorize(ds: ParticipantDataset, ctx: ContextSpec) -> CategoryPools:
    """Assign every day to a category pool, or exclude it.

    A day is pooled only if it has an EMA (reported or backfilled) and the
    context's feature was measured that day; a day missing the feature belongs
    to neither category. Pooling depends only on sensor counts and EMA
    presence, never on EMA values.
    """
    if ctx.is_baseline:
        raise ValueError("categorize is undefined for the baseline context")
    count = ds.sensors[:, SENSOR_FEATURES.index(ctx.feature)]
    pooled = ds.has_ema & (count >= 0)
    return CategoryPools(
        feature=ctx.feature,
        isolation_days=np.flatnonzero(pooled & (count == 0)),
        sociability_days=np.flatnonzero(pooled & (count > 0)),
    )


def baseline_pool(ds: ParticipantDataset) -> np.ndarray:
    """Row indices of all EMA-bearing days, unfiltered by any sensor feature."""
    return np.flatnonzero(ds.has_ema)


@dataclass(frozen=True)
class EligibilityReport:
    feature: str
    isolation_days: int
    sociability_days: int
    eligible: bool
    limiting_category: str | None


def eligibility(ds: ParticipantDataset, ctx: ContextSpec, min_days_per_category: int = 25) -> EligibilityReport:
    """Check whether both category pools of a context have enough EMA days.

    The default threshold matches the 25-day permutation sample size.
    """
    pools = categorize(ds, ctx)
    n_iso = len(pools.isolation_days)
    n_soc = len(pools.sociability_days)
    eligible = n_iso >= min_days_per_category and n_soc >= min_days_per_category
    limiting = None
    if not eligible:
        limiting = "isolation" if n_iso <= n_soc else "sociability"
    return EligibilityReport(
        feature=ctx.feature,
        isolation_days=n_iso,
        sociability_days=n_soc,
        eligible=eligible,
        limiting_category=limiting,
    )
