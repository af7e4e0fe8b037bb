import datetime as dt

import pytest

from emanet.contexts import BASELINE, CategoryPools, ContextSpec, baseline_pool, categorize
from emanet.ingest import DailyRecord, EmaVector, ParticipantDataset, SensorDay

D0 = dt.date(2023, 3, 1)


def build(records_spec):
    """records_spec: list of (locations, conversations, has_ema)."""
    records = []
    for i, (loc, conv, has_ema) in enumerate(records_spec):
        ema = EmaVector((i % 4,) * 10) if has_ema else None
        records.append(
            DailyRecord(
                date=D0 + dt.timedelta(days=i),
                sensors=SensorDay(locations_visited=loc, conversations_detected=conv, calls_made=3),
                ema=ema,
                ema_source="reported" if has_ema else "none",
            )
        )
    return ParticipantDataset("p", tuple(records))


def test_zero_count_goes_to_isolation():
    ds = build([(0, 1, True)])
    pools = categorize(ds, ContextSpec("locations_visited"))
    assert pools.isolation_days == (D0,)
    assert pools.sociability_days == ()


def test_positive_count_goes_to_sociability():
    ds = build([(2, 1, True)])
    pools = categorize(ds, ContextSpec("calls_made"))
    assert pools.sociability_days == (D0,)


def test_missing_feature_is_excluded():
    ds = build([(1, None, True)])
    pools = categorize(ds, ContextSpec("conversations_detected"))
    assert pools.excluded_days == (D0,)
    assert pools.isolation_days == ()
    assert pools.sociability_days == ()


def test_no_ema_is_excluded():
    ds = build([(0, 0, False)])
    pools = categorize(ds, ContextSpec("locations_visited"))
    assert pools.excluded_days == (D0,)


def test_partition_invariant():
    spec = [(0, 1, True), (3, None, True), (0, 0, False), (1, 2, True), (None, 1, True)]
    ds = build(spec)
    for feature in ("locations_visited", "conversations_detected"):
        pools = categorize(ds, ContextSpec(feature))
        all_days = set(pools.isolation_days) | set(pools.sociability_days) | set(pools.excluded_days)
        assert len(pools.isolation_days) + len(pools.sociability_days) + len(pools.excluded_days) == len(ds.records)
        assert all_days == {r.date for r in ds.records}


def test_categorization_is_pure():
    ds = build([(0, 1, True), (2, 0, True)])
    ctx = ContextSpec("locations_visited")
    assert categorize(ds, ctx) == categorize(ds, ctx)


def test_pooling_ignores_ema_values():
    spec = [(0, 1, True), (2, 0, True), (1, 1, True)]
    ds_a = build(spec)
    # Same structure, different EMA values.
    records = tuple(
        r if r.ema is None else DailyRecord(r.date, r.sensors, EmaVector((3,) * 10), r.ema_source)
        for r in ds_a.records
    )
    ds_b = ParticipantDataset("p", records)
    ctx = ContextSpec("calls_made")
    pa, pb = categorize(ds_a, ctx), categorize(ds_b, ctx)
    assert (pa.isolation_days, pa.sociability_days, pa.excluded_days) == (
        pb.isolation_days,
        pb.sociability_days,
        pb.excluded_days,
    )


def test_baseline_pool_ignores_sensor_missingness():
    spec = [(None, None, True), (0, 1, True), (1, 1, False)]
    ds = build(spec)
    pool = baseline_pool(ds)
    assert pool == (D0, D0 + dt.timedelta(days=1))


def test_baseline_pool_empty():
    ds = build([(0, 0, False), (1, 1, False)])
    assert baseline_pool(ds) == ()


def test_baseline_context_has_no_pools():
    ds = build([(0, 0, True)])
    with pytest.raises(ValueError):
        categorize(ds, ContextSpec(BASELINE))


def test_from_flag():
    assert ContextSpec.from_flag("locations").feature == "locations_visited"
    assert ContextSpec.from_flag("conversations").feature == "conversations_detected"
    assert ContextSpec.from_flag("baseline").is_baseline
    with pytest.raises(ValueError):
        ContextSpec.from_flag("bogus")
