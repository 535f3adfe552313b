"""Dataset preparation: CSV ingestion, MACD/RSI indicators, min-max scaling,
chronological splitting, and sliding-window supervised framing.

Input sources are comma-separated files with a header row, an ISO-8601
`Date` column, and one price column per source.  Rows are read as
`csv.DictReader` reads them (blank rows skipped, a repeated header name
resolving to its last column), but each file is parsed column-wise rather
than into one dict per row.  A date or value that does not parse, or a
value that is not finite, is a DataError naming the file and line, even on
a date that the join would drop.  Sources trade on different calendars, so
ingestion inner-joins on date: only days present in every source survive.
MACD (12-day EMA minus 26-day EMA) and Wilder's 14-day RSI are computed
from the target column; the first 25 rows, where MACD is undefined, are
trimmed before any split.  `write_frame_csv` writes `repr` of every value
(exact round trip) through `write_atomic`, so a crash mid-write leaves the
previous file in place.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import json
import math
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .numerics import FLOAT

_FRAME_BLOCK = 512         # rows that read_frame_csv parses at once


class DataError(ValueError):
    """Input files or frame contents violate the data contracts."""


@dataclass
class TimeSeriesFrame:
    """Date-aligned multivariate series; column order is feature order."""

    dates: list
    columns: dict           # name -> 1-D float64 array

    def __post_init__(self):
        n = len(self.dates)
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=FLOAT)
            if col.shape != (n,):
                raise DataError(f"column {name!r}: length {col.shape} != {n} dates")
            if not np.all(np.isfinite(col)):
                raise DataError(f"column {name!r} contains non-finite values")
            self.columns[name] = col
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise DataError(f"dates not strictly increasing at {a} -> {b}")

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def feature_order(self) -> list:
        return list(self.columns)

    def matrix(self) -> np.ndarray:
        """(rows, features) array in column order."""
        return np.column_stack([self.columns[c] for c in self.columns])


@dataclass
class NormalizationParams:
    """Per-column min/max used by the affine [0,1] scaling."""

    bounds: dict            # name -> (x_min, x_max)

    def unscale(self, column: str, values: np.ndarray) -> np.ndarray:
        """Map normalized values back to raw units: x = z*(max-min) + min."""
        lo, hi = self._get(column)
        return np.asarray(values, dtype=FLOAT) * (hi - lo) + lo

    def _get(self, column: str):
        if column not in self.bounds:
            raise DataError(f"unknown column {column!r} in normalization params")
        return self.bounds[column]


@dataclass
class WindowedDataset:
    """Supervised (window, next-step target) pairs after normalization."""

    train_x: np.ndarray     # (n_train, lookback, features)
    train_y: np.ndarray     # (n_train,)
    test_x: np.ndarray
    test_y: np.ndarray
    norm: NormalizationParams
    feature_order: list
    target_name: str
    lookback: int
    train_dates: list       # target date of each training sample
    test_dates: list


def _csv_rows(path, fh):
    """The rows of `csv.reader(fh)`.  A row that csv cannot read, such as one
    with a field over `csv.field_size_limit()`, is a DataError naming the
    file and line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def read_series_csv(path, column: str, date_column: str = "Date"):
    """Read (dates, values) from one delimited source file.

    Rows are read as a `csv.DictReader` would: blank rows are skipped and
    not counted in line numbers, a short row has no value (None) for its
    missing fields, and a header name given twice resolves to its last
    column.  An unparseable or non-finite value is a DataError naming the
    file and line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(_csv_rows(path, fh))
    # a repeated name maps to its last column, as in DictReader's dicts
    index = {name: i for i, name in enumerate(rows[0] if rows else [])}
    if date_column not in index:
        raise DataError(f"{path}: missing {date_column!r} column")
    if column not in index:
        raise DataError(f"{path}: missing value column {column!r}")
    rows = list(filter(None, rows[1:]))     # DictReader skips blank rows
    if not rows:
        raise DataError(f"{path}: no data rows")
    d_idx, v_idx = index[date_column], index[column]
    try:        # whole columns at once; any bad row leaves it to the row scan below
        dates = list(map(dt.date.fromisoformat, map(str.strip, map(itemgetter(d_idx), rows))))
        values = list(map(float, map(itemgetter(v_idx), rows)))
        if all(map(math.isfinite, values)):
            return dates, values
    except (IndexError, ValueError):
        pass
    dates, values = [], []
    for lineno, row in enumerate(rows, start=2):
        raw_date = row[d_idx] if d_idx < len(row) else None
        raw_val = row[v_idx] if v_idx < len(row) else None
        try:
            date = dt.date.fromisoformat((raw_date or "").strip())
            value = float(raw_val)
        except (TypeError, ValueError):
            raise DataError(
                f"{path}:{lineno}: cannot parse date={raw_date!r} value={raw_val!r}"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite value={raw_val!r}")
        dates.append(date)
        values.append(value)
    return dates, values


def ingest(sources: dict, date_column: str = "Date") -> TimeSeriesFrame:
    """Inner-join sources on date.

    `sources` maps feature name -> (file path, value column name); only
    dates present in every source are kept, ordered ascending.
    """
    if not sources:
        raise DataError("no sources configured")
    per_feature = {}
    common: set | None = None
    for name, (path, column) in sources.items():
        dates, values = read_series_csv(path, column, date_column)
        seen = set(dates)
        if len(seen) != len(dates):
            raise DataError(f"{path}: duplicate dates")
        per_feature[name] = dates, values
        common = seen if common is None else common & seen
    if not common:
        raise DataError("date intersection across sources is empty")
    ordered = sorted(common)
    columns = {}
    for name, (dates, values) in per_feature.items():
        if dates != ordered:        # sources on one calendar need no lookup
            values = list(map(dict(zip(dates, values)).__getitem__, ordered))
        columns[name] = np.array(values, dtype=FLOAT)
    return TimeSeriesFrame(ordered, columns)


def ema(series, period: int) -> np.ndarray:
    """Exponential moving average, SMA-seeded.

    k = 2/(period+1); the value at input index period-1 is the simple
    average of the first `period` points, then ema_t = k*x_t + (1-k)*ema.
    Output has length len(series) - period + 1 (undefined head trimmed).
    """
    x = np.asarray(series, dtype=FLOAT)
    if period < 1:
        raise DataError("ema: period must be >= 1")
    if x.size < period:
        raise DataError(f"ema: series length {x.size} < period {period}")
    k = 2.0 / (period + 1.0)
    out = np.empty(x.size - period + 1, dtype=FLOAT)
    out[0] = x[:period].mean()
    for j in range(1, out.size):
        out[j] = k * x[period - 1 + j] + (1.0 - k) * out[j - 1]
    return out


def macd(close) -> np.ndarray:
    """12-day EMA minus 26-day EMA, aligned where both are defined.

    Output has length len(close) - 25.
    """
    x = np.asarray(close, dtype=FLOAT)
    if x.size < 26:
        raise DataError(f"macd: need >= 26 points, got {x.size}")
    fast = ema(x, 12)
    slow = ema(x, 26)
    return fast[fast.size - slow.size:] - slow


def rsi(close, period: int = 14) -> np.ndarray:
    """Wilder's relative strength index in [0, 100].

    First average gain/loss is the simple mean of the first `period`
    changes; afterwards avg = (prev*(period-1) + current)/period.
    A zero average loss maps to RSI = 100.  Output has length
    len(close) - period, defined from input index `period` on.
    """
    x = np.asarray(close, dtype=FLOAT)
    if x.size < period + 1:
        raise DataError(f"rsi: need >= {period + 1} points, got {x.size}")
    deltas = np.diff(x)
    gains = np.maximum(deltas, 0.0)
    losses = np.maximum(-deltas, 0.0)
    out = np.empty(x.size - period, dtype=FLOAT)
    avg_gain = gains[:period].mean()
    avg_loss = losses[:period].mean()
    out[0] = 100.0 if avg_loss == 0.0 else 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    for j in range(1, out.size):
        avg_gain = (avg_gain * (period - 1) + gains[period - 1 + j]) / period
        avg_loss = (avg_loss * (period - 1) + losses[period - 1 + j]) / period
        out[j] = 100.0 if avg_loss == 0.0 else 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return out


INDICATORS = {"MACD": macd, "RSI": rsi}


def add_indicators(frame: TimeSeriesFrame, source_column: str,
                   indicators=("MACD", "RSI")) -> TimeSeriesFrame:
    """Append indicator columns computed from `source_column`, trimming the
    head rows where any indicator is undefined."""
    if not indicators:
        return frame
    close = frame.columns.get(source_column)
    if close is None:
        raise DataError(f"indicator source column {source_column!r} not in frame")
    computed = {}
    trim = 0
    for name in indicators:
        fn = INDICATORS.get(name)
        if fn is None:
            raise DataError(f"unknown indicator {name!r}; supported: {sorted(INDICATORS)}")
        values = fn(close)
        computed[name] = values
        trim = max(trim, frame.n_rows - values.size)
    columns = {k: v[trim:].copy() for k, v in frame.columns.items()}
    for name, values in computed.items():
        columns[name] = values[values.size - (frame.n_rows - trim):].copy()
    return TimeSeriesFrame(frame.dates[trim:], columns)


def normalize(frame: TimeSeriesFrame, fit_on: str = "train_only",
              split: float = 0.80) -> tuple[TimeSeriesFrame, NormalizationParams]:
    """Min-max scale every column: z = (x - min)/(max - min).

    fit_on="train_only" (default) computes bounds on the first
    floor(split*N) rows so the test period cannot leak into scaling;
    fit_on="full" fits on all rows.
    """
    if fit_on not in ("train_only", "full"):
        raise DataError(f"fit_on must be 'train_only' or 'full', got {fit_on!r}")
    n_fit = frame.n_rows if fit_on == "full" else int(np.floor(split * frame.n_rows))
    if n_fit < 2:
        raise DataError("not enough rows to fit normalization")
    bounds = {}
    scaled = {}
    for name, col in frame.columns.items():
        lo = float(col[:n_fit].min())
        hi = float(col[:n_fit].max())
        if not hi > lo:
            raise DataError(f"column {name!r} is constant over the fitting rows")
        bounds[name] = (lo, hi)
        scaled[name] = (col - lo) / (hi - lo)
    return TimeSeriesFrame(list(frame.dates), scaled), NormalizationParams(bounds)


def window(frame: TimeSeriesFrame, lookback: int, norm: NormalizationParams,
           split: float = 0.80, target: str = "NIFTY") -> WindowedDataset:
    """Frame a normalized series as supervised windows.

    The chronological split comes first, at floor(split*N) rows; windows
    are then built within each side independently, so no window straddles
    the boundary.  Sample i is (rows [i, i+lookback), target at row
    i+lookback) -- the target is always strictly after its window.
    """
    if lookback < 1:
        raise DataError("lookback must be >= 1")
    if target not in frame.columns:
        raise DataError(f"target column {target!r} not in frame")
    n = frame.n_rows
    n_train = int(np.floor(split * n))
    if n_train < lookback + 1 or (n - n_train) < lookback + 1:
        raise DataError(
            f"split {split} of {n} rows leaves a side shorter than lookback+1={lookback + 1}")

    data = frame.matrix()
    names = frame.feature_order
    t_idx = names.index(target)

    def build(lo: int, hi: int):
        rows = data[lo:hi]
        count = (hi - lo) - lookback
        xs = np.stack([rows[i:i + lookback] for i in range(count)])
        ys = rows[lookback:, t_idx].copy()
        dates = frame.dates[lo + lookback:hi]
        return xs, ys, dates

    train_x, train_y, train_dates = build(0, n_train)
    test_x, test_y, test_dates = build(n_train, n)
    return WindowedDataset(
        train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y,
        norm=norm, feature_order=names, target_name=target, lookback=lookback,
        train_dates=train_dates, test_dates=test_dates,
    )


def write_atomic(path, write, mode: str = "w") -> None:
    """Call `write(fh)` on a temp file beside `path`, then move it over `path`.

    A reader, or a rerun after a crash, sees the old file or the whole new
    one, never a partial write.  `mode` is "w" (UTF-8 text, written with no
    newline translation, so its bytes are the same on every platform) or "wb".
    """
    tmp = f"{os.fspath(path)}.tmp"
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_frame_csv(path, frame: TimeSeriesFrame, date_column: str = "Date") -> None:
    """Write a frame atomically as delimited text: dates plus every column at
    full precision (`repr`), in the bytes of `csv.writer` (CRLF row ends)."""
    def write(fh):
        csv.writer(fh).writerow([date_column] + frame.feature_order)
        # a float's repr holds no comma, quote or line break, so csv.writer
        # would write each data field as it is
        fields = [map(repr, frame.columns[c].tolist()) for c in frame.feature_order]
        dates = [d.isoformat() for d in frame.dates]
        fh.write("".join([",".join(row) + "\r\n" for row in zip(dates, *fields)]))

    write_atomic(path, write)


def read_frame_csv(path, date_column: str = "Date") -> TimeSeriesFrame:
    """Read a frame written by write_frame_csv, column by column.

    The header leads with `date_column`, and every row has exactly the
    header's field count.  A short or long row, a bad date or a bad value
    is a DataError naming the file and line.  Rows are parsed in blocks of
    _FRAME_BLOCK, so that the text of the whole file is never held at once.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        header = next(reader, None)
        if not header or header[0] != date_column:
            raise DataError(f"{path}: expected leading {date_column!r} column")
        dates, columns = [], [[] for _ in header[1:]]
        for first in itertools.count(2, _FRAME_BLOCK):
            rows = list(itertools.islice(reader, _FRAME_BLOCK))
            if not rows:
                break
            for lineno, row in enumerate(rows, start=first):
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            fields = zip(*rows)
            try:
                dates += map(dt.date.fromisoformat, next(fields))
                for column, raw in zip(columns, fields):
                    column.append(np.array(list(map(float, raw)), dtype=FLOAT))
            except ValueError:
                for lineno, row in enumerate(rows, start=first):
                    try:
                        dt.date.fromisoformat(row[0])
                        list(map(float, row[1:]))
                    except ValueError:
                        raise DataError(f"{path}:{lineno}: unparseable row") from None
                raise
    if not dates:
        raise DataError(f"{path}: no data rows")
    return TimeSeriesFrame(dates, {name: np.concatenate(column)
                                   for name, column in zip(header[1:], columns)})


def _parse_json(where: str, text: str, parse):
    try:
        record = json.loads(text)
        if not isinstance(record, dict):
            raise TypeError("expected a JSON object")
        return parse(record)
    except KeyError as exc:
        raise DataError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: {exc}") from None


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def read_json(path, parse):
    """`parse(record)` of a file holding one JSON object.

    Invalid JSON, a non-object, or a record that `parse` rejects with a
    KeyError, TypeError or ValueError raises DataError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        return _parse_json(str(path), fh.read(), parse)


def read_jsonl(path, parse, first=None, drop_torn_tail: bool = False) -> list:
    """`parse(record)` for each non-blank line of a JSON-lines file.

    `first`, when given, parses the first record instead (a file header).
    With drop_torn_tail, a last line that has no newline and is not valid
    JSON (the torn end of an interrupted append) is skipped.  Errors are
    those of `read_json`, naming the file and line.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if drop_torn_tail and not line.endswith("\n") and not _is_json(line):
                break
            if line.strip():
                fn = parse if first is None or out else first
                out.append(_parse_json(f"{path}:{lineno}", line, fn))
    return out


_JSON_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), dict: (dict, "an object")}


def check_type(value, kind: type, what: str):
    """`value` if JSON gave it as a `kind`: an int, a float (an int counts
    too) or a dict, and never a bool; else TypeError naming `what`."""
    types, noun = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{what} is not {noun}: {value!r}")
    return value
