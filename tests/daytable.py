"""Participant datasets built by hand for tests, and their comparison."""

import numpy as np

from emanet.ingest import EMA_ITEMS, EMA_SOURCES, NO_EMA, NOT_MEASURED, REPORTED, SENSOR_FEATURES, ParticipantDataset


def table(rows, pid="p"):
    """Dataset of (date, scores, counts) rows in date order.

    scores: 10 ints 0-3, or None for a day without a report.
    counts: 6 ints in SENSOR_FEATURES order, None where not measured.
    """
    n = len(rows)
    no_report = (0,) * len(EMA_ITEMS)
    return ParticipantDataset(
        participant_id=pid,
        dates=np.array([d for d, _, _ in rows], dtype="datetime64[D]"),
        ema=np.array([no_report if s is None else s for _, s, _ in rows], dtype=np.int8).reshape(n, len(EMA_ITEMS)),
        ema_source=np.array([NO_EMA if s is None else REPORTED for _, s, _ in rows], dtype=np.int8),
        sensors=np.array(
            [[NOT_MEASURED if c is None else c for c in counts] for _, _, counts in rows], dtype=np.int64
        ).reshape(n, len(SENSOR_FEATURES)),
    )


def sources(ds):
    """The EMA source name of each row."""
    return [EMA_SOURCES[c] for c in ds.ema_source]


def assert_same(a, b):
    """Equal participant ids, and equal arrays of equal dtypes."""
    assert a.participant_id == b.participant_id
    for name in ("dates", "ema", "ema_source", "sensors"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
