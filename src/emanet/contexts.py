"""Behavioral contexts: split EMA-bearing days into isolation vs sociability pools.

A context is a daily sensor count, named by its feature in SENSOR_FEATURES,
with a zero/nonzero split: a count of 0 is a period of social isolation, a
count of 1 or more a period of sociability. The baseline is no context but a
pool of every EMA-bearing day, which feeds random unfiltered sampling. A pool
is an array of row indices into the participant's day table, in date order,
computed as a mask over its EMA sources and sensor counts; categorize returns
a context's two pools as a dict keyed by category.
"""

from __future__ import annotations

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


def categorize(ds: ParticipantDataset, feature: str) -> dict:
    """Row indices of the days in each category of the context `feature`:
    {"isolation": rows, "sociability": rows}, each in date order.

    A day is pooled only if it has an EMA (reported or backfilled) and the
    feature was measured that day; a day missing the feature belongs to
    neither category. Pooling depends only on sensor counts and EMA
    presence, never on EMA values. An unknown feature raises ValueError.
    """
    count = ds.sensors[:, SENSOR_FEATURES.index(feature)]
    pooled = ds.has_ema & (count >= 0)
    return {"isolation": np.flatnonzero(pooled & (count == 0)), "sociability": np.flatnonzero(pooled & (count > 0))}


def baseline_pool(ds: ParticipantDataset) -> np.ndarray:
    """Row indices of all EMA-bearing days, unfiltered by any sensor feature."""
    return np.flatnonzero(ds.has_ema)
