"""Participant CSV ingestion, validation, and the 2-day EMA backfill.

One CSV file per participant, one row per day. A parsed participant is one
columnar day table (ParticipantDataset): a date, ten EMA scores with the
code of their source, and six sensor counts per row. EMA responses arrive
every few days but each response also describes the days just before it, so
a reported EMA is copied back onto up to two preceding calendar days that lack
their own report. Days left without an EMA after backfill are excluded from
all analysis.

This module maps bytes to a dataset and back; the caller reads and writes the
files. Parsing takes two paths with one result. A file exactly as
format_participant writes it (the header verbatim; each row a date, ten scores
or ten empty cells, six plain counts; LF or CRLF line ends) is decoded in bulk,
with one regular expression over the whole text. Any other file, valid or not,
goes through the row loop, which alone decides what is valid and words every
SchemaViolation; the bulk path only ever accepts what the row loop accepts,
with the same dataset.
"""

from __future__ import annotations

import csv
import datetime as dt
import re
from dataclasses import dataclass

import numpy as np

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

EMA_COLUMNS = tuple(f"ema_{item}" for item in EMA_ITEMS)
CSV_COLUMNS = ("date",) + EMA_COLUMNS + SENSOR_FEATURES

EMA_SOURCES = ("reported", "backfilled-1", "backfilled-2", "none")
REPORTED = EMA_SOURCES.index("reported")
NO_EMA = EMA_SOURCES.index("none")
BACKFILL_WINDOW = 2

# A sensor cell that was not measured; the largest count an int64 cell holds.
NOT_MEASURED = -1
MAX_COUNT = 2**63 - 1

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class SchemaViolation(ValueError):
    """A row of the participant CSV does not conform to the schema."""

    def __init__(self, row: int, column: str, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


@dataclass(frozen=True, eq=False)
class ParticipantDataset:
    """One participant's day table: row i holds one day, rows in date order.

    dates: (n,) datetime64[D], strictly increasing.
    ema: (n, 10) int8 scores 0-3 in EMA_ITEMS order; 0 on rows without an EMA.
    ema_source: (n,) int8 codes into EMA_SOURCES.
    sensors: (n, 6) int64 counts in SENSOR_FEATURES order; -1 where not measured.
    """

    participant_id: str
    dates: np.ndarray
    ema: np.ndarray
    ema_source: np.ndarray
    sensors: np.ndarray

    def __post_init__(self):
        if np.any(self.dates[1:] <= self.dates[:-1]):
            raise ValueError("dates must be strictly increasing")

    @property
    def has_ema(self) -> np.ndarray:
        return self.ema_source != NO_EMA

    @property
    def usable_days(self) -> int:
        return int(np.count_nonzero(self.has_ema))


def _rows(lines):
    """(row number, cells) of each CSV row of lines, the header being row 0.

    A CSV-level error, such as a field over the csv module's size limit or,
    on Python 3.10, a NUL byte, is a SchemaViolation of the row being read.
    """
    reader = csv.reader(lines)
    rownum = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise SchemaViolation(rownum, "row", str(exc)) from None
        yield rownum, row
        rownum += 1


def _parse_date(raw: str, row: int) -> dt.date:
    """ASCII YYYY-MM-DD only, as format_participant writes them: date.fromisoformat
    alone accepts more forms on some Python versions than on others."""
    if _ISO_DATE.fullmatch(raw):
        try:
            return dt.date.fromisoformat(raw)
        except ValueError:
            pass
    raise SchemaViolation(row, "date", f"unparseable date: {raw!r}")


def _parse_int_cell(raw: str, row: int, column: str) -> int:
    """ASCII -?[0-9]+ only, as format_participant writes: int() alone also takes
    '+3', '1_000' and non-ASCII digits. str methods, not a regex: this runs per cell."""
    if raw.isascii() and (raw.isdigit() or raw[:1] == "-" and raw[1:].isdigit()):
        try:
            return int(raw)
        except ValueError:  # over the interpreter's int-from-str digit limit
            pass
    raise SchemaViolation(row, column, f"not an integer: {raw!r}")


def _parse_score(raw: str, row: int, column: str) -> int:
    v = _parse_int_cell(raw, row, column)
    if not 0 <= v <= 3:
        raise SchemaViolation(row, column, f"EMA score {v} outside 0..3")
    return v


def _parse_count(raw: str, row: int, feature: str) -> int:
    if raw == "":
        return NOT_MEASURED
    v = _parse_int_cell(raw, row, feature)
    if v < 0:
        raise SchemaViolation(row, feature, f"negative count {v}")
    if v > MAX_COUNT:
        raise SchemaViolation(row, feature, f"count {v} above {MAX_COUNT}")
    return v


_HEADER = ",".join(CSV_COLUMNS)
# One body line as format_participant writes it: a date, ten scores or ten
# empty cells, six counts of at most 19 digits (MAX_COUNT's length, which
# keeps every cell within int()'s and the csv module's limits), LF or CRLF.
_WRITTEN_LINE = re.compile(
    r"^([0-9]{4}-[0-9]{2}-[0-9]{2}),((?:[0-3],){%d}|,{%d})" % (len(EMA_ITEMS), len(EMA_ITEMS))
    + ",".join(["([0-9]{0,19})"] * len(SENSOR_FEATURES))
    + r"\r?$",
    re.MULTILINE,
)
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def parse_participant(data: bytes, participant_id: str) -> ParticipantDataset:
    """Decode one participant CSV's bytes into a date-sorted dataset.

    The caller reads the file and names the participant (cli uses the file
    name's stem). One leading UTF-8 byte-order mark is dropped. A file in
    format_participant's own form is decoded in bulk; every other file goes
    through the row loop, the only judge of what is valid and of every error
    message. Malformed rows raise SchemaViolation with the offending row and
    column, and text that is not UTF-8 raises UnicodeDecodeError, whichever
    comes first in file order; nothing is silently dropped.
    """
    data = data.removeprefix(b"\xef\xbb\xbf")  # the UTF-8 byte-order mark
    ds = _decode_written_form(data, participant_id)
    return ds if ds is not None else _parse_rows(data, participant_id)


def _by_date(participant_id, dates, ema, reported, counts) -> ParticipantDataset:
    """The dataset of decoded rows given in file order, sorted by date.

    dates: one per row, each unique; ema: ten scores per row, zeros where not
    reported; reported: one bool per row; counts: six per row, flat or nested.
    """
    dates = np.asarray(dates, dtype="datetime64[D]")
    order = np.argsort(dates)
    n = len(dates)
    return ParticipantDataset(
        participant_id=participant_id,
        dates=dates[order],
        ema=np.asarray(ema, dtype=np.int8).reshape(n, len(EMA_ITEMS))[order],
        ema_source=np.where(reported, REPORTED, NO_EMA).astype(np.int8)[order],
        sensors=np.array(counts, dtype=np.int64).reshape(n, len(SENSOR_FEATURES))[order],
    )


def _decode_written_form(data: bytes, participant_id: str) -> ParticipantDataset | None:
    """The dataset of a file in format_participant's own form, equal to the row
    loop's; None for any other file, valid or not."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None
    header, _, body = text.partition("\n")
    if header.removesuffix("\r") != _HEADER or not body.endswith("\n"):
        return None
    lines = _WRITTEN_LINE.findall(body)
    if len(lines) != body.count("\n"):  # some line is not in the written form
        return None
    # Not numpy's date parser, which also takes 'today' and year 0; ordinals
    # convert to datetime64 about ten times faster than date objects.
    try:
        ordinals = [dt.date.fromisoformat(line[0]).toordinal() for line in lines]
    except ValueError:
        return None
    if len(set(ordinals)) != len(ordinals):  # a duplicate date
        return None
    counts = [int(c) if c else NOT_MEASURED for line in lines for c in line[2:]]
    if max(counts) > MAX_COUNT:
        return None
    reported = np.array([len(line[1]) > len(EMA_ITEMS) for line in lines], dtype=bool)
    # An empty EMA group is commas only, so dropping commas leaves the reported rows' digits.
    digits = "".join(line[1] for line in lines).replace(",", "").encode("ascii")
    ema = np.zeros((len(lines), len(EMA_ITEMS)), dtype=np.int8)
    ema[reported] = np.frombuffer(digits, dtype=np.uint8).reshape(-1, len(EMA_ITEMS)) - ord("0")
    dates = (np.array(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
    return _by_date(participant_id, dates, ema, reported, counts)


def _parse_rows(data: bytes, participant_id: str) -> ParticipantDataset:
    """The row loop: every file's validity and every SchemaViolation.

    data is the file's bytes after any byte-order mark. Each line is decoded
    as UTF-8 only when the csv reader reaches it, so a byte that is not UTF-8
    raises UnicodeDecodeError after every earlier row has been judged.
    bytes.splitlines breaks at LF, CR and CRLF, as a file opened with
    newline="" does.
    """
    rows = _rows(line.decode("utf-8") for line in data.splitlines(keepends=True))
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaViolation(0, "date", "empty file, header required") from None
    if tuple(h.strip() for h in header) != CSV_COLUMNS:
        raise SchemaViolation(0, "header", f"expected columns {','.join(CSV_COLUMNS)}")
    ema, reported, sensors = [], [], []
    seen_dates = {}
    for rownum, row in rows:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(CSV_COLUMNS):
            raise SchemaViolation(rownum, "row", f"expected {len(CSV_COLUMNS)} cells, got {len(row)}")
        cells = [c.strip() for c in row]
        date = _parse_date(cells[0], rownum)
        if date in seen_dates:
            raise SchemaViolation(rownum, "date", f"duplicate date {date.isoformat()} (also row {seen_dates[date]})")
        seen_dates[date] = rownum

        ema_cells = cells[1 : 1 + len(EMA_ITEMS)]
        n_present = sum(1 for c in ema_cells if c != "")
        if n_present == 0:
            ema.append((0,) * len(EMA_ITEMS))
        elif n_present == len(EMA_ITEMS):
            ema.append([_parse_score(raw, rownum, col) for col, raw in zip(EMA_COLUMNS, ema_cells)])
        else:
            missing = next(col for col, c in zip(EMA_COLUMNS, ema_cells) if c == "")
            raise SchemaViolation(rownum, missing, "EMA cells must be all present or all empty per row")
        reported.append(n_present > 0)
        sensors.append([_parse_count(raw, rownum, f) for f, raw in zip(SENSOR_FEATURES, cells[1 + len(EMA_ITEMS) :])])
    return _by_date(participant_id, list(seen_dates), ema, reported, sensors)


def format_participant(ds: ParticipantDataset) -> bytes:
    """The participant CSV of a dataset: _HEADER, then one row per day in date
    order, each line ending in CRLF. Only reported EMAs are written; backfilled
    copies are an analysis artifact and are reconstructed by backfill_emas on
    re-parse, so parse -> format -> parse round-trips exactly."""
    out = [(_HEADER + "\r\n").encode("ascii")]
    for start in range(0, len(ds.dates), 4096):  # tolist() makes an object per cell: a slice at a time
        rows = zip(*(a[start:start + 4096].tolist() for a in (ds.dates, ds.ema, ds.ema_source, ds.sensors)))
        out.append("".join(",".join(map(str, [date, *(scores if source == REPORTED else [""] * len(EMA_ITEMS)),
                                              *("" if c == NOT_MEASURED else c for c in counts)])) + "\r\n"
                           for date, scores, source, counts in rows).encode("ascii"))
    return b"".join(out)


def backfill_emas(ds: ParticipantDataset) -> ParticipantDataset:
    """Copy each reported EMA onto up to two preceding report-free days.

    A day lacking its own report takes the nearest later report within the
    2-day window (d+1 beats d+2). The window is in calendar days, not rows:
    rows may skip dates. Days with no report within the window keep
    ema_source = "none" and are excluded downstream. Idempotent; never touches
    reported EMAs or sensor values.
    """
    reported = ds.ema_source == REPORTED
    ema = np.where(reported[:, None], ds.ema, 0).astype(ds.ema.dtype)
    ema_source = np.where(reported, REPORTED, NO_EMA).astype(ds.ema_source.dtype)
    last_row = max(len(ds.dates) - 1, 0)
    for k in range(BACKFILL_WINDOW, 0, -1):  # a nearer report overwrites a farther one
        day = ds.dates + k
        src = np.searchsorted(ds.dates, day).clip(max=last_row)
        hit = ~reported & reported[src] & (ds.dates[src] == day)
        ema[hit] = ds.ema[src[hit]]
        ema_source[hit] = EMA_SOURCES.index(f"backfilled-{k}")
    return ParticipantDataset(ds.participant_id, ds.dates, ema, ema_source, ds.sensors)
