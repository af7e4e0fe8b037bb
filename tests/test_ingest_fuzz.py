"""Property tests of the participant CSV parser.

Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same inputs and stores none.
"""

import codecs
import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from daytable import assert_same, table
from emanet.ingest import (
    CSV_COLUMNS,
    ParticipantDataset,
    SchemaViolation,
    _parse_rows,
    format_participant,
    parse_participant,
)

FUZZ = settings(derandomize=True, max_examples=200, database=None, deadline=None)

VALID_ROWS = st.builds(
    lambda date, ema, counts: [date.isoformat(), *ema, *counts],
    st.dates(dt.date(2023, 1, 1), dt.date(2023, 1, 20)),
    st.just([""] * 10) | st.lists(st.integers(0, 3).map(str), min_size=10, max_size=10),
    # Counts are small, missing, or next to the int64 limit.
    st.lists(st.sampled_from(["", "0", "1", "7"]) | st.integers(2**63 - 2, 2**63 + 1).map(str), min_size=6, max_size=6),
)
ODD_CELLS = st.none() | st.text(max_size=12) | st.sampled_from(
    ["20230101", "2023-W01-1", "2023-02-30", "0000-01-01", "２０２３-01-01", "4", "-1", "1.0", "1_0", "+3", "٣", ""]
)


def _csv(rows, edit, eol):
    """CSV bytes of rows after at most one edit: a cell replaced by an odd one,
    deleted (None) or appended past the end of its row."""
    if edit is not None and rows:
        r, i, cell = edit
        row = rows[r % len(rows)]
        rows[r % len(rows)] = row[:i] + ([] if cell is None else [cell]) + row[i + 1 :]
    return eol.join([",".join(CSV_COLUMNS)] + [",".join(row) for row in rows]).encode("utf-8")


CSV_TEXT = st.builds(
    _csv,
    st.lists(VALID_ROWS, max_size=8, unique_by=lambda row: row[0]),
    st.none() | st.tuples(st.integers(0, 7), st.integers(0, len(CSV_COLUMNS)), ODD_CELLS),
    st.sampled_from(["\n", "\r\n"]),
)

SCORES = st.lists(st.integers(0, 3), min_size=10, max_size=10).map(tuple)
COUNTS = st.lists(st.none() | st.integers(0, 2**63 - 1), min_size=6, max_size=6)


def _table(start, days):
    """Valid dataset: strictly increasing dates with gaps, reported or empty EMA rows."""
    rows = []
    for gap, scores, counts in days:
        start += dt.timedelta(days=gap)
        rows.append((start, scores, counts))
    return table(rows, pid="fuzz")


DATASETS = st.builds(
    _table,
    st.dates(dt.date(1, 1, 1), dt.date(9000, 1, 1)),
    st.lists(st.tuples(st.integers(1, 4), st.none() | SCORES, COUNTS), max_size=25),
)


@FUZZ
@given(data=st.binary(max_size=300) | CSV_TEXT)
def test_any_bytes_give_a_dataset_or_a_named_error(data):
    try:
        ds = parse_participant(data, "fuzz")
    except (SchemaViolation, UnicodeDecodeError):
        return
    assert isinstance(ds, ParticipantDataset)


@FUZZ
@given(ds=DATASETS)
def test_write_then_parse_round_trips(ds):
    assert_same(parse_participant(format_participant(ds), "fuzz"), ds)


def _lines(text, i, edit):
    """text with its line i % (number of lines) replaced by edit(line)."""
    lines = text.split("\r\n")
    i %= len(lines)
    return "\r\n".join(lines[:i] + [edit(lines[i])] + lines[i + 1 :])


def _cells(line, k, edit):
    """line with its cell k % (number of cells) replaced by edit(cell)."""
    cells = line.split(",")
    k %= len(cells)
    return ",".join(cells[:k] + [edit(cells[k])] + cells[k + 1 :])


def _duplicate_date(text, i, k):
    """text with the date of body line k copied onto body line i."""
    lines = text.split("\r\n")
    body = range(1, len(lines) - 1)
    if not body:
        return text
    date = lines[body[k % len(body)]][:10]
    return _lines(text, body[i % len(body)], lambda line: date + line[10:])


# The mutations of a written file: (text, line index i, cell or character
# index k, a character c) -> text. Each gives a file that the bulk decoder must
# leave to the row loop, or one that both read alike.
MUTATIONS = {
    "none": lambda text, i, k, c: text,
    "char-before-line": lambda text, i, k, c: _lines(text, i, lambda line: c + line),
    "char-after-line": lambda text, i, k, c: _lines(text, i, lambda line: line + c),
    "leading-zero": lambda text, i, k, c: _lines(text, i, lambda line: _cells(line, k, lambda cell: "0" + cell)),
    "space": lambda text, i, k, c: _lines(text, i, lambda line: _cells(line, k, lambda cell: " " + cell)),
    "quote": lambda text, i, k, c: _lines(text, i, lambda line: _cells(line, k, lambda cell: '"' + cell)),
    "blank-line": lambda text, i, k, c: _lines(text, i, lambda line: "\r\n" + line),
    "no-final-newline": lambda text, i, k, c: text.removesuffix("\r\n"),
    "lone-cr": lambda text, i, k, c: text[: k % len(text)] + "\r" + text[k % len(text) :],
    "duplicate-date": lambda text, i, k, c: _duplicate_date(text, i, k),
    "count-2^63": lambda text, i, k, c: _lines(text, i, lambda line: _cells(line, 11 + k % 6, lambda _: str(2**63))),
    "bom": lambda text, i, k, c: "\ufeff" + text,
    "lf": lambda text, i, k, c: text.replace("\r\n", "\n"),
}


def _written(ds, i, k, c):
    """format_participant's bytes for ds under each mutation, by mutation name."""
    text = format_participant(ds).decode("utf-8")
    return {name: mutate(text, i, k, c).encode("utf-8") for name, mutate in MUTATIONS.items()}


WRITTEN = st.builds(
    _written, DATASETS, st.integers(0, 30), st.integers(0, 600), st.sampled_from(["x", "0", "-", ",", "é"])
)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (SchemaViolation, UnicodeDecodeError) as exc:
        return exc


@FUZZ
@given(data=st.binary(max_size=300) | CSV_TEXT, written=WRITTEN)
def test_bulk_decoder_agrees_with_the_row_loop(data, written):
    for name, case in [("data", data), *written.items()]:
        bulk, rows = _outcome(parse_participant, case, "fuzz"), _outcome(_parse_rows, case.removeprefix(codecs.BOM_UTF8), "fuzz")
        if isinstance(rows, ParticipantDataset):
            assert isinstance(bulk, ParticipantDataset), (name, bulk)
            assert_same(bulk, rows)
        else:
            assert (type(bulk), str(bulk)) == (type(rows), str(rows)), name
