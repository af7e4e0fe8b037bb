"""Behavioral contexts: split EMA-bearing days into isolation vs sociability pools.

Each context is a daily sensor count with a zero/nonzero split: a count of 0
is a period of social isolation, a count of 1 or more a period of sociability.
The baseline pseudo-context has no predicates and feeds random unfiltered
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CategoryPools:
    feature: str
    isolation_days: tuple
    sociability_days: tuple
    excluded_days: tuple


def categorize(ds: ParticipantDataset, ctx: ContextSpec) -> CategoryPools:
    """Assign every day to a category pool, or exclude it.

    A day is pooled only if it has an EMA (reported or backfilled) and the
    context's feature was measured that day; a day missing the feature belongs
    to neither category. Pooling depends only on sensor counts and EMA
    presence, never on EMA values.
    """
    if ctx.is_baseline:
        raise ValueError("categorize is undefined for the baseline context")
    isolation, sociability, excluded = [], [], []
    for r in ds.records:
        count = r.sensors.count(ctx.feature)
        if not r.has_ema or count is None:
            excluded.append(r.date)
        elif count == 0:
            isolation.append(r.date)
        else:
            sociability.append(r.date)
    return CategoryPools(
        feature=ctx.feature,
        isolation_days=tuple(isolation),
        sociability_days=tuple(sociability),
        excluded_days=tuple(excluded),
    )


def baseline_pool(ds: ParticipantDataset) -> tuple:
    """All EMA-bearing days, unfiltered by any sensor feature."""
    return tuple(r.date for r in ds.records if r.has_ema)
