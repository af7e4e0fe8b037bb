"""Behavioral contexts: split EMA-bearing days into isolation vs sociability pools.

A context is a daily sensor count, named by its feature in SENSOR_FEATURES,
with a zero/nonzero split: a count of 0 is a period of social isolation, a
count of 1 or more a period of sociability. The baseline is no context but a
pool of every EMA-bearing day, which feeds random unfiltered sampling. Pools
are arrays of row indices into the participant's day table, in date order,
computed as masks over its EMA sources and sensor counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import SENSOR_FEATURES, ParticipantDataset

BASELINE = "baseline"

# CLI flag value -> sensor feature.
CONTEXT_FLAGS = {
    "locations": "locations_visited",
    "calls_made": "calls_made",
    "calls_received": "calls_received",
    "sms_sent": "sms_sent",
    "sms_received": "sms_received",
    "conversations": "conversations_detected",
}

DISPLAY_NAMES = {
    "locations_visited": "Daily Number of Locations Visited",
    "calls_made": "Daily Number of Calls Made",
    "calls_received": "Daily Number of Calls Received",
    "sms_sent": "Daily Number of SMS Messages Sent",
    "sms_received": "Daily Number of SMS Messages Received",
    "conversations_detected": "Daily Number of Conversations Detected",
}


@dataclass(frozen=True, eq=False)
class CategoryPools:
    """Row indices of the days in each category, in date order."""

    isolation_days: np.ndarray
    sociability_days: np.ndarray


def categorize(ds: ParticipantDataset, feature: str) -> CategoryPools:
    """Assign every day to a category pool of the context `feature`, or exclude it.

    A day is pooled only if it has an EMA (reported or backfilled) and the
    feature was measured that day; a day missing the feature belongs to
    neither category. Pooling depends only on sensor counts and EMA
    presence, never on EMA values. An unknown feature raises ValueError.
    """
    count = ds.sensors[:, SENSOR_FEATURES.index(feature)]
    pooled = ds.has_ema & (count >= 0)
    return CategoryPools(
        isolation_days=np.flatnonzero(pooled & (count == 0)),
        sociability_days=np.flatnonzero(pooled & (count > 0)),
    )


def baseline_pool(ds: ParticipantDataset) -> np.ndarray:
    """Row indices of all EMA-bearing days, unfiltered by any sensor feature."""
    return np.flatnonzero(ds.has_ema)


@dataclass(frozen=True)
class EligibilityReport:
    isolation_days: int
    sociability_days: int
    eligible: bool
    limiting_category: str | None


def eligibility(ds: ParticipantDataset, feature: str, min_days_per_category: int = 25) -> EligibilityReport:
    """Check whether both category pools of a context have enough EMA days.

    The default threshold matches the 25-day permutation sample size.
    """
    pools = categorize(ds, feature)
    n_iso = len(pools.isolation_days)
    n_soc = len(pools.sociability_days)
    eligible = n_iso >= min_days_per_category and n_soc >= min_days_per_category
    limiting = None
    if not eligible:
        limiting = "isolation" if n_iso <= n_soc else "sociability"
    return EligibilityReport(
        isolation_days=n_iso,
        sociability_days=n_soc,
        eligible=eligible,
        limiting_category=limiting,
    )
