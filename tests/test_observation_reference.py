"""The columnar observation reader against a reference copy of the per-row reader.

The reference reader below is a written-out copy of the earlier
`read_observations_csv`, which built one `csv.DictReader` dict and one
`BidObservation` per row, and `reference_split` of the earlier
`split_observations`, which gathered the records back into two arrays. On
every log the new reader and `split_observations` must give the same won
costs and lost bids bit for bit, and on a malformed log the same exception
type and message, from the same first bad row.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualbid.landscape import (
    OBSERVATION_CSV_HEADER,
    BidObservation,
    EmptyObservationsError,
    NoWinObservationsError,
    ObservationLog,
    Outcome,
    read_observations_csv,
    split_observations,
)


def reference_read(path):
    observations = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(OBSERVATION_CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"observation CSV missing columns: {sorted(missing)}")
        for row in reader:
            for column in ("outcome", "bid_price"):
                if row[column] is None:
                    raise ValueError(f"observation CSV line {reader.line_num} has no {column}")
            paid = row.get("paid_cost", "")
            observations.append(
                BidObservation(
                    outcome=Outcome(row["outcome"].strip().upper()),
                    bid_price=float(row["bid_price"]),
                    paid_cost=float(paid) if paid not in ("", None) else None,
                )
            )
    return observations


def reference_split(observations):
    if not observations:
        raise EmptyObservationsError("observations must be nonempty")
    won = [o.paid_cost for o in observations if o.outcome is Outcome.WON]
    lost = [o.bid_price for o in observations if o.outcome is Outcome.LOST]
    if not won:
        raise NoWinObservationsError("at least one won auction is required")
    won_a = np.asarray(won, dtype=float)
    if np.any(won_a <= 0.0):
        raise ValueError("won auctions must have strictly positive paid costs")
    return won_a, np.asarray(lost, dtype=float)


def outcome(read, split, path):
    """The row count and the split's bytes, or the exception's type and message."""
    try:
        observations = read(path)
        won, lost = split(observations)
    except Exception as exc:  # any type: the types are compared
        return type(exc), str(exc)
    return len(observations), won.tobytes(), lost.tobytes()


def assert_same_outcome(path):
    expected = outcome(reference_read, reference_split, path)
    assert outcome(read_observations_csv, split_observations, path) == expected
    return expected


# ---------------------------------------------------------------------------
# Generated logs
# ---------------------------------------------------------------------------

EXTRA_COLUMNS = ("note", "ts")
OUTCOME_SPELLINGS = {
    "WON": ("WON", "won", " Won", "wOn\t"),
    "LOST": ("LOST", "lost", "Lost ", " LOST "),
}
#: Rows that the reader or the fit rejects, as their (outcome, bid_price, paid_cost) fields.
BAD_ROWS = st.sampled_from([
    ("TIE", "1.0", ""),
    ("", "1.0", ""),
    ("WON", "1.0.0", "0.5"),
    ("LOST", "one", ""),
    ("WON", "1.0", "half"),
    ("LOST", " ", ""),
    ("LOST", "-0.5", ""),
    ("LOST", "nan", ""),
    ("WON", "inf", "1.0"),
    ("WON", "1.0", ""),
    ("WON", "1.0", "1.5"),
    ("WON", "1.0", "nan"),
    ("WON", "1.0", "-0.0"),
    ("WON", "0", "0"),
    ("LOST", "1.0", "0.5"),
    ("LOST", "1.0", "nan"),
])
POSITIVE = st.floats(min_value=5e-324, max_value=1e300) | st.sampled_from(
    [5e-324, 1e-300, 1.0, 0.1 + 0.2]
)


def spell(x: float, how: int) -> str:
    """One of the ways a writer may have spelled a float for Python's `float` to read."""
    return (repr(x), str(np.float64(x)), f" {x!r}", f"{x:.17g}\t")[how]


@st.composite
def rows(draw, allow_bad: bool):
    """One row's (outcome, bid_price, paid_cost) fields."""
    if allow_bad and draw(st.integers(0, 5)) == 0:
        return draw(BAD_ROWS)
    how = draw(st.integers(0, 3))
    if draw(st.booleans()):
        bid = draw(POSITIVE)
        share = st.floats(0.0, 1.0, exclude_min=True)
        cost = draw(st.sampled_from([bid, 5e-324]) | share.map(lambda u: bid * u))
        spelling = draw(st.sampled_from(OUTCOME_SPELLINGS["WON"]))
        return spelling, spell(bid, how), spell(cost, draw(st.integers(0, 3)))
    bid = draw(POSITIVE | st.just(0.0))
    return draw(st.sampled_from(OUTCOME_SPELLINGS["LOST"])), spell(bid, how), ""


@st.composite
def logs(draw, allow_bad: bool) -> str:
    """A log in some column order, with extra columns, blank lines and a CSV dialect."""
    extra = draw(st.lists(st.sampled_from(EXTRA_COLUMNS), unique=True))
    header = draw(st.permutations(OBSERVATION_CSV_HEADER + extra))
    buffer = io.StringIO(newline="")
    writer = csv.writer(
        buffer,
        lineterminator=draw(st.sampled_from(["\r\n", "\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
    )
    writer.writerow(header)
    for fields in draw(st.lists(rows(allow_bad), min_size=1, max_size=12)):
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            writer.writerow([])  # a blank line
        values = dict(zip(OBSERVATION_CSV_HEADER, fields))
        values |= {name: draw(st.sampled_from(["", "x", "a,b", "two\nlines"])) for name in extra}
        row = [values[name] for name in header]
        if allow_bad and draw(st.integers(0, 7)) == 0:
            row = row[: draw(st.integers(0, len(row) - 1))]  # a short row
        writer.writerow(row)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("logs") / "observations.csv"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=logs(allow_bad=False))
def test_well_formed_logs_split_bit_for_bit(text, log_path):
    log_path.write_text(text, newline="")
    assert_same_outcome(log_path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=logs(allow_bad=True))
def test_malformed_logs_raise_the_first_bad_rows_error(text, log_path):
    log_path.write_text(text, newline="")
    assert_same_outcome(log_path)


# ---------------------------------------------------------------------------
# Fixed cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", "missing columns"),
        ("\noutcome,bid_price,paid_cost\nWON,1,0.5\n", "missing columns"),
        ("outcome,bid_price,paid_cost\n", "nonempty"),
        ("outcome,bid_price,paid_cost\nLOST,1,\n", "at least one won"),
        ("outcome,bid_price,paid_cost\nWON,2,1\n\n\nWON\n", "line 5 has no bid_price"),
        ('outcome,bid_price,note,paid_cost\nLOST,2,"a\nb"\nLOST\n', "line 4 has no bid_price"),
        ("bid_price,outcome,paid_cost,bid_price\nx,WON,1,2\n1,WON,1\n", "line 3 has no bid_price"),
        ("outcome,bid_price,paid_cost\nLOST,-1,\nWON,x,1\n", "bid_price must be >= 0"),
        ("outcome,bid_price,paid_cost\nWON,x,1\nLOST,-1,\n", "could not convert"),
        ("outcome,bid_price\nWON,1\n", "['paid_cost']"),
    ],
    ids=["empty", "blank-header", "header-only", "all-lost", "blank-then-short",
         "multi-line-field", "repeated-column", "check-before-parse", "parse-before-check",
         "missing-paid-cost"],
)
def test_fixed_logs_match_the_reference(text, expected, log_path):
    log_path.write_text(text, newline="")
    error, message = assert_same_outcome(log_path)
    assert issubclass(error, ValueError) and expected in message


def test_log_columns_match_the_records(log_path):
    observations = [
        BidObservation(Outcome.WON, np.float64(1.5), np.float64(0.25)),
        BidObservation(Outcome.LOST, 0.0),
        BidObservation(Outcome.WON, 2.0, 5e-324),
    ]
    log_path.write_text("outcome,bid_price,paid_cost\nWON,1.5,0.25\nLOST,0,\nWON,2,5e-324\n")
    log = read_observations_csv(log_path)
    expected = ObservationLog.from_records(observations)
    assert len(log) == 3
    for column in ("won", "bid_price", "paid_cost"):
        assert getattr(log, column).tobytes() == getattr(expected, column).tobytes()
    assert log.won.dtype == bool and math.isnan(log.paid_cost[1])
