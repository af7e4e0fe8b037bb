import datetime as dt

import pytest

from daytable import table
from emanet.contexts import BASELINE, CONTEXT_FLAGS, DISPLAY_NAMES, baseline_pool, categorize
from emanet.ingest import SENSOR_FEATURES

D0 = dt.date(2023, 3, 1)


def build(records_spec, score=None):
    """records_spec: list of (locations, conversations, has_ema). Row i scores
    i % 4 on every item, or score if one is given; calls_made is 3."""
    rows = []
    for i, (loc, conv, has_ema) in enumerate(records_spec):
        scores = ((i % 4 if score is None else score),) * 10 if has_ema else None
        rows.append((D0 + dt.timedelta(days=i), scores, (loc, 3, None, None, None, conv)))
    return table(rows)


def lists(pools):
    return pools["isolation"].tolist(), pools["sociability"].tolist()


def neither(pools, n_days):
    """Rows of an n_days table that are in neither pool, in order."""
    pooled = set().union(*lists(pools))
    return [i for i in range(n_days) if i not in pooled]


def test_zero_count_goes_to_isolation():
    ds = build([(0, 1, True)])
    pools = categorize(ds, "locations_visited")
    assert lists(pools) == ([0], [])


def test_positive_count_goes_to_sociability():
    ds = build([(2, 1, True)])
    pools = categorize(ds, "calls_made")
    assert pools["sociability"].tolist() == [0]


def test_missing_feature_is_excluded():
    ds = build([(1, None, True)])
    pools = categorize(ds, "conversations_detected")
    assert neither(pools, 1) == [0]


def test_no_ema_is_excluded():
    ds = build([(0, 0, False)])
    pools = categorize(ds, "locations_visited")
    assert neither(pools, 1) == [0]


def test_partition_invariant():
    spec = [(0, 1, True), (3, None, True), (0, 0, False), (1, 2, True), (None, 1, True)]
    ds = build(spec)
    for feature, column in (("locations_visited", 0), ("conversations_detected", 1)):
        pools = categorize(ds, feature)
        iso, soc = lists(pools)
        assert not set(iso) & set(soc)
        # A day is in neither pool exactly when it lacks an EMA or the feature.
        assert neither(pools, len(spec)) == [i for i, row in enumerate(spec) if not row[2] or row[column] is None]


def test_categorization_is_pure():
    ds = build([(0, 1, True), (2, 0, True)])
    assert lists(categorize(ds, "locations_visited")) == lists(categorize(ds, "locations_visited"))


def test_pooling_ignores_ema_values():
    spec = [(0, 1, True), (2, 0, True), (1, 1, True)]
    ds_a = build(spec)
    ds_b = build(spec, score=3)  # same structure, different EMA values
    assert lists(categorize(ds_a, "calls_made")) == lists(categorize(ds_b, "calls_made"))


def test_baseline_pool_ignores_sensor_missingness():
    spec = [(None, None, True), (0, 1, True), (1, 1, False)]
    ds = build(spec)
    pool = baseline_pool(ds)
    assert pool.tolist() == [0, 1]


def test_baseline_pool_empty():
    ds = build([(0, 0, False), (1, 1, False)])
    assert baseline_pool(ds).tolist() == []


def test_baseline_context_has_no_pools():
    ds = build([(0, 0, True)])
    with pytest.raises(ValueError):
        categorize(ds, BASELINE)


def test_context_tables_agree():
    assert set(CONTEXT_FLAGS.values()) <= set(SENSOR_FEATURES)
    assert set(SENSOR_FEATURES) <= set(DISPLAY_NAMES)
