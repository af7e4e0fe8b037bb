import dataclasses
import datetime as dt
import random

import numpy as np
import pytest

from daytable import assert_same, sources, table
from emanet import ingest
from emanet.ingest import (
    CSV_COLUMNS, MAX_COUNT, REPORTED, SchemaViolation, backfill_emas, format_participant, parse_participant
)

D0 = dt.date(2023, 1, 1)


def day(i):
    return D0 + dt.timedelta(days=i)


def csv_bytes(rows):
    """A participant CSV of rows, each cell written with str(), LF line ends."""
    return "".join(",".join(str(c) for c in row) + "\n" for row in [CSV_COLUMNS, *rows]).encode("utf-8")


def full_row(date, ema=None, sensors=None):
    ema_cells = [""] * 10 if ema is None else list(ema)
    sensor_cells = ["1"] * 6 if sensors is None else list(sensors)
    return [date.isoformat()] + ema_cells + sensor_cells


EMA = (1, 2, 0, 3, 1, 0, 2, 1, 3, 0)


def bad_score_then(n_rows):
    """The bytes of an n_rows-row file whose first row scores ema_calm 9."""
    rows = [full_row(day(i)) for i in range(n_rows)]
    rows[0][1:11] = [9] + [1] * 9
    return csv_bytes(rows)


SCORE_9 = "row 1, column 'ema_calm': EMA score 9 outside 0..3"
ONE_ROW = csv_bytes([full_row(day(0))])
# A file's first fault in file order is reported, whatever the file's size;
# 8 KiB, a text-mode file's read buffer, is where a parser that decodes in
# chunks would report a later bad byte first.
FIRST_FAULTS = [
    pytest.param(bad_score_then(5) + b"\xff\n", SCORE_9, id="bad-score-then-bad-byte-under-8KiB"),
    pytest.param(bad_score_then(600) + b"\xff\n", SCORE_9, id="bad-score-then-bad-byte-past-8KiB"),
    pytest.param(b"\xef\xbb\xbf" + ONE_ROW + b"\xff\n", UnicodeDecodeError, id="bom-then-bad-byte"),
    pytest.param(ONE_ROW.replace(b",1\n", b',"1\n\xff"\n'), UnicodeDecodeError, id="bad-byte-on-a-quoted-cell's-second-line"),
    pytest.param(ONE_ROW.replace(b"date,", b"date\xff,"), UnicodeDecodeError, id="bad-byte-in-header"),
]


def make_dataset(report_days, n_days, pid="p"):
    """Dataset with reports on the given day offsets; two sensors measured."""
    return table([(day(i), EMA if i in report_days else None, (i % 3, 1) + (None,) * 4) for i in range(n_days)], pid)


class TestParse:
    def test_basic_parse(self):
        rows = [full_row(day(0)), full_row(day(1)), full_row(day(2), ema=[1] * 10)]
        ds = parse_participant(csv_bytes(rows), "p01")
        assert len(ds.dates) == 3
        assert sources(ds) == ["none", "none", "reported"]
        assert ds.participant_id == "p01"
        assert ds.usable_days == 1

    def test_ema_out_of_range(self):
        rows = [full_row(day(0), ema=[1, 4, 1, 1, 1, 1, 1, 1, 1, 1])]
        with pytest.raises(SchemaViolation) as exc:
            parse_participant(csv_bytes(rows), "p01")
        assert exc.value.row == 1
        assert exc.value.column == "ema_social"

    def test_duplicate_date(self):
        rows = [full_row(day(0)), full_row(day(0))]
        with pytest.raises(SchemaViolation, match="duplicate date"):
            parse_participant(csv_bytes(rows), "p01")

    def test_unparseable_date(self):
        rows = [full_row(day(0))]
        rows[0][0] = "01/02/2023"
        with pytest.raises(SchemaViolation, match="unparseable date"):
            parse_participant(csv_bytes(rows), "p01")

    @pytest.mark.parametrize("raw", ["20230101", "2023-W01-1", "2023-1-01", "２０２３-01-01", "2023-02-30"])
    def test_dates_must_be_ascii_yyyy_mm_dd(self, raw):
        rows = [full_row(day(0))]
        rows[0][0] = raw
        with pytest.raises(SchemaViolation) as exc:
            parse_participant(csv_bytes(rows), "p01")
        assert str(exc.value) == f"row 1, column 'date': unparseable date: {raw!r}"

    def test_csv_level_error_is_schema_violation(self):
        rows = [full_row(day(0)), full_row(day(1))]
        rows[1][0] = "x" * 200_000
        with pytest.raises(SchemaViolation) as exc:
            parse_participant(csv_bytes(rows), "p01")
        assert (exc.value.row, exc.value.column) == (2, "row")
        assert "field larger than field limit" in exc.value.reason

    def test_count_must_fit_int64(self):
        rows = [full_row(day(0), sensors=[str(MAX_COUNT)] + ["1"] * 5)]
        assert parse_participant(csv_bytes(rows), "p01").sensors[0, 0] == MAX_COUNT
        rows = [full_row(day(0), sensors=[str(10**30)] + ["1"] * 5)]
        with pytest.raises(SchemaViolation) as exc:
            parse_participant(csv_bytes(rows), "p01")
        assert (exc.value.row, exc.value.column) == (1, "locations_visited")

    @pytest.mark.parametrize("raw", ["1_000", "+3", "１", "٣", pytest.param("9" * 5000, id="5000-digits")])
    @pytest.mark.parametrize("column", ["ema_calm", "locations_visited"])
    def test_integers_must_be_ascii_digits(self, raw, column):
        row = full_row(day(0), ema=[1] * 10)
        row[CSV_COLUMNS.index(column)] = raw
        with pytest.raises(SchemaViolation) as exc:
            parse_participant(csv_bytes([row]), "p01")
        assert str(exc.value) == f"row 1, column {column!r}: not an integer: {raw!r}"

    def test_negative_count(self):
        rows = [full_row(day(0), sensors=["-1", "1", "1", "1", "1", "1"])]
        with pytest.raises(SchemaViolation, match="negative count"):
            parse_participant(csv_bytes(rows), "p01")

    def test_partial_ema_row(self):
        ema = ["1"] * 9 + [""]
        rows = [full_row(day(0), ema=ema)]
        with pytest.raises(SchemaViolation, match="all present or all empty"):
            parse_participant(csv_bytes(rows), "p01")

    def test_bad_header(self):
        with pytest.raises(SchemaViolation, match="expected columns"):
            parse_participant(b"a,b,c\n1,2,3\n", "bad")

    def test_rows_sorted_by_date(self):
        rows = [full_row(day(2)), full_row(day(0)), full_row(day(1))]
        ds = parse_participant(csv_bytes(rows), "p01")
        assert ds.dates.tolist() == [day(0), day(1), day(2)]

    @pytest.mark.parametrize("data, expected", FIRST_FAULTS)
    def test_first_fault_in_file_order_wins(self, data, expected):
        with pytest.raises((SchemaViolation, UnicodeDecodeError)) as exc:
            parse_participant(data, "p01")
        assert (str(exc.value) if isinstance(exc.value, SchemaViolation) else type(exc.value)) == expected

    def test_shuffled_rows_keep_their_own_cells(self):
        rows = [
            (day(i), None if i % 3 == 0 else tuple((i + k) % 4 for k in range(10)), (i, 2 * i, None, i % 5, 0, 7 * i))
            for i in range(30)
        ]
        cells = [full_row(d, ema, ["" if c is None else c for c in counts]) for d, ema, counts in rows]
        random.Random(0).shuffle(cells)
        written = csv_bytes(cells)
        cells[0][-1] = f" {cells[0][-1]}"  # a padded cell is not in the written form
        padded = csv_bytes(cells)
        for data in (written, padded):
            assert_same(parse_participant(data, "p01"), table(rows, pid="p01"))

    def test_round_trip(self):
        rows = [
            full_row(day(0), sensors=["", "2", "0", "", "1", "3"]),
            full_row(day(1)),
            full_row(day(3), ema=[0, 1, 2, 3, 0, 1, 2, 3, 0, 1]),
        ]
        ds = parse_participant(csv_bytes(rows), "p01")
        assert_same(parse_participant(format_participant(ds), "rt"), dataclasses.replace(ds, participant_id="rt"))


class TestBulkDecode:
    """Files in format_participant's own form skip the row loop, with its result."""

    def test_prefixed_line_is_left_to_the_row_loop(self):
        row = full_row(day(4))
        row[0] = "x" + row[0]
        with pytest.raises(SchemaViolation) as exc:
            parse_participant(csv_bytes([row]), "p01")
        assert str(exc.value) == "row 1, column 'date': unparseable date: 'x2023-01-05'"

    def test_crlf_and_lf_files_take_the_bulk_path(self, monkeypatch):
        rows = [
            full_row(day(3), sensors=["", "2", "0", "", "1", str(MAX_COUNT)]),
            full_row(day(0)),
            full_row(day(1), ema=[0, 1, 2, 3, 0, 1, 2, 3, 0, 1]),
        ]
        lf = csv_bytes(rows)
        crlf = format_participant(parse_participant(lf, "p01"))
        assert b"\r\n" in crlf and b"\r" not in lf
        expected = {pid: (data, ingest._parse_rows(data, pid)) for pid, data in (("p01", lf), ("p02", crlf))}

        def row_loop(data, participant_id):
            raise AssertionError(f"row loop ran on {participant_id}")

        monkeypatch.setattr(ingest, "_parse_rows", row_loop)
        for pid, (data, ds) in expected.items():
            assert_same(parse_participant(data, pid), ds)


class TestBackfill:
    def test_single_report_covers_two_days(self):
        ds = backfill_emas(make_dataset({4}, 5))
        assert sources(ds) == ["none", "none", "backfilled-2", "backfilled-1", "reported"]
        assert np.array_equal(ds.ema[2], ds.ema[4])

    def test_nearer_report_wins(self):
        ds = backfill_emas(make_dataset({3, 4}, 5))
        assert sources(ds) == ["none", "backfilled-2", "backfilled-1", "reported", "reported"]

    def test_window_counts_calendar_days_not_rows(self):
        # Day 2 is missing: day 1 is two calendar days before the report, day 0 three.
        rows = [(day(0), None, (1,) * 6), (day(1), None, (1,) * 6), (day(3), EMA, (1,) * 6)]
        assert sources(backfill_emas(table(rows))) == ["none", "backfilled-2", "reported"]

    def test_reports_every_day_is_noop(self):
        ds = make_dataset(set(range(5)), 5)
        assert_same(backfill_emas(ds), ds)

    def test_idempotent(self):
        ds = make_dataset({2, 7}, 9)
        once = backfill_emas(ds)
        assert_same(backfill_emas(once), once)

    def test_never_alters_reported_or_sensors(self):
        ds = make_dataset({2, 7}, 9)
        out = backfill_emas(ds)
        assert np.array_equal(out.sensors, ds.sensors)
        reported = ds.ema_source == REPORTED
        assert np.array_equal(out.ema[reported], ds.ema[reported])
        assert np.array_equal(out.ema_source[reported], ds.ema_source[reported])

    def test_usable_days_never_decreases(self):
        ds = make_dataset({5}, 8)
        assert backfill_emas(ds).usable_days >= ds.usable_days

    def test_property_random_schedules(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randrange(1, 40)
            reports = {i for i in range(n) if rng.random() < 0.3}
            ds = backfill_emas(make_dataset(reports, n))
            for i, source in enumerate(sources(ds)):
                nearest = next((k for k in (0, 1, 2) if i + k in reports), None)
                if nearest is None:
                    assert source == "none"
                elif nearest == 0:
                    assert source == "reported"
                else:
                    assert source == f"backfilled-{nearest}"
                    assert np.array_equal(ds.ema[i], ds.ema[i + nearest])
