"""Participant CSV ingestion, validation, and the 2-day EMA backfill.

One CSV file per participant, one row per day. EMA responses arrive every few
days but each response also describes the days just before it, so a reported
EMA is copied back onto up to two preceding days that lack their own report.
Days left without an EMA after backfill are excluded from all analysis.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, replace

EMA_ITEMS = (
    "calm",
    "social",
    "sleeping",
    "think",
    "hopeful",
    "depressed",
    "stressed",
    "voices",
    "seeing",
    "harm",
)

SENSOR_FEATURES = (
    "locations_visited",
    "calls_made",
    "calls_received",
    "sms_sent",
    "sms_received",
    "conversations_detected",
)

CSV_COLUMNS = ("date",) + tuple(f"ema_{item}" for item in EMA_ITEMS) + SENSOR_FEATURES

EMA_SOURCES = ("reported", "backfilled-1", "backfilled-2", "none")
BACKFILL_WINDOW = 2


class SchemaViolation(ValueError):
    """A row of the participant CSV does not conform to the schema."""

    def __init__(self, row: int, column: str, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


@dataclass(frozen=True)
class EmaVector:
    """Ten Likert scores (0-3) in the fixed item order of EMA_ITEMS."""

    scores: tuple

    def __post_init__(self):
        if len(self.scores) != len(EMA_ITEMS):
            raise ValueError(f"expected {len(EMA_ITEMS)} scores, got {len(self.scores)}")
        for i, s in enumerate(self.scores):
            if not isinstance(s, int) or not 0 <= s <= 3:
                raise ValueError(f"score {EMA_ITEMS[i]}={s!r} outside 0..3")


@dataclass(frozen=True)
class SensorDay:
    """Daily aggregate counts; None means the feature was not measured that day."""

    locations_visited: int | None = None
    calls_made: int | None = None
    calls_received: int | None = None
    sms_sent: int | None = None
    sms_received: int | None = None
    conversations_detected: int | None = None

    def __post_init__(self):
        for feature in SENSOR_FEATURES:
            v = getattr(self, feature)
            if v is not None and (not isinstance(v, int) or v < 0):
                raise ValueError(f"{feature}={v!r} must be a non-negative integer")

    def count(self, feature: str) -> int | None:
        if feature not in SENSOR_FEATURES:
            raise KeyError(f"unknown sensor feature {feature!r}")
        return getattr(self, feature)


@dataclass(frozen=True)
class DailyRecord:
    date: dt.date
    sensors: SensorDay
    ema: EmaVector | None = None
    ema_source: str = "none"

    def __post_init__(self):
        if self.ema_source not in EMA_SOURCES:
            raise ValueError(f"bad ema_source {self.ema_source!r}")
        if (self.ema is None) != (self.ema_source == "none"):
            raise ValueError("ema presence inconsistent with ema_source")

    @property
    def has_ema(self) -> bool:
        return self.ema is not None


@dataclass(frozen=True)
class ParticipantDataset:
    participant_id: str
    records: tuple

    def __post_init__(self):
        dates = [r.date for r in self.records]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("records must be strictly increasing by date")

    @property
    def usable_days(self) -> int:
        return sum(1 for r in self.records if r.has_ema)

    def by_date(self) -> dict:
        return {r.date: r for r in self.records}


def _parse_int_cell(raw: str, row: int, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SchemaViolation(row, column, f"not an integer: {raw!r}") from None


def parse_participant(path, participant_id: str | None = None) -> ParticipantDataset:
    """Parse one participant CSV into a date-sorted dataset.

    Malformed rows raise SchemaViolation with the offending row and column;
    nothing is silently dropped.
    """
    import pathlib

    path = pathlib.Path(path)
    if participant_id is None:
        participant_id = path.stem
    # utf-8-sig also accepts a file saved with a byte-order mark.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaViolation(0, "date", "empty file, header required") from None
        if tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise SchemaViolation(0, "header", f"expected columns {','.join(CSV_COLUMNS)}")
        records = []
        seen_dates = {}
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(CSV_COLUMNS):
                raise SchemaViolation(rownum, "row", f"expected {len(CSV_COLUMNS)} cells, got {len(row)}")
            cells = dict(zip(CSV_COLUMNS, (c.strip() for c in row)))
            try:
                date = dt.date.fromisoformat(cells["date"])
            except ValueError:
                raise SchemaViolation(rownum, "date", f"unparseable date: {cells['date']!r}") from None
            if date in seen_dates:
                raise SchemaViolation(rownum, "date", f"duplicate date {date.isoformat()} (also row {seen_dates[date]})")
            seen_dates[date] = rownum

            ema_cells = [cells[f"ema_{item}"] for item in EMA_ITEMS]
            n_present = sum(1 for c in ema_cells if c != "")
            if n_present == 0:
                ema = None
            elif n_present == len(EMA_ITEMS):
                scores = []
                for item, raw in zip(EMA_ITEMS, ema_cells):
                    col = f"ema_{item}"
                    v = _parse_int_cell(raw, rownum, col)
                    if not 0 <= v <= 3:
                        raise SchemaViolation(rownum, col, f"EMA score {v} outside 0..3")
                    scores.append(v)
                ema = EmaVector(tuple(scores))
            else:
                missing = next(f"ema_{item}" for item, c in zip(EMA_ITEMS, ema_cells) if c == "")
                raise SchemaViolation(rownum, missing, "EMA cells must be all present or all empty per row")

            counts = {}
            for feature in SENSOR_FEATURES:
                raw = cells[feature]
                if raw == "":
                    counts[feature] = None
                    continue
                v = _parse_int_cell(raw, rownum, feature)
                if v < 0:
                    raise SchemaViolation(rownum, feature, f"negative count {v}")
                counts[feature] = v

            records.append(
                DailyRecord(
                    date=date,
                    sensors=SensorDay(**counts),
                    ema=ema,
                    ema_source="reported" if ema is not None else "none",
                )
            )
    records.sort(key=lambda r: r.date)
    return ParticipantDataset(participant_id=participant_id, records=tuple(records))


def write_participant(ds: ParticipantDataset, path) -> None:
    """Serialize a dataset to the participant CSV schema.

    Only reported EMAs are written; backfilled copies are an analysis artifact
    and are reconstructed by backfill_emas on re-parse, so parse -> write ->
    parse round-trips exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in ds.records:
            ema_cells = [""] * len(EMA_ITEMS)
            if r.ema_source == "reported":
                ema_cells = [str(s) for s in r.ema.scores]
            sensor_cells = [
                "" if r.sensors.count(f) is None else str(r.sensors.count(f))
                for f in SENSOR_FEATURES
            ]
            writer.writerow([r.date.isoformat()] + ema_cells + sensor_cells)


def backfill_emas(ds: ParticipantDataset) -> ParticipantDataset:
    """Copy each reported EMA onto up to two preceding report-free days.

    A day lacking its own report takes the nearest later report within the
    2-day window (d+1 beats d+2). Days with no report within the window keep
    ema_source = "none" and are excluded downstream. Idempotent; never touches
    reported EMAs or sensor values.
    """
    reports = {r.date: r.ema for r in ds.records if r.ema_source == "reported"}
    out = []
    for r in ds.records:
        if r.ema_source == "reported":
            out.append(r)
            continue
        filled = None
        for k in range(1, BACKFILL_WINDOW + 1):
            src = reports.get(r.date + dt.timedelta(days=k))
            if src is not None:
                filled = replace(r, ema=src, ema_source=f"backfilled-{k}")
                break
        out.append(filled if filled is not None else replace(r, ema=None, ema_source="none"))
    return ParticipantDataset(participant_id=ds.participant_id, records=tuple(out))


@dataclass(frozen=True)
class EligibilityReport:
    feature: str
    isolation_days: int
    sociability_days: int
    min_days_per_category: int
    eligible: bool
    limiting_category: str | None


def eligibility(ds: ParticipantDataset, ctx, min_days_per_category: int = 25) -> EligibilityReport:
    """Check whether both category pools of a context have enough EMA days.

    The default threshold matches the 25-day permutation sample size.
    """
    from .contexts import categorize

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
        min_days_per_category=min_days_per_category,
        eligible=eligible,
        limiting_category=limiting,
    )
