import datetime as dt
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_frame
from grnn.data import (
    DataError,
    TimeSeriesFrame,
    _FRAME_BLOCK,
    add_indicators,
    ema,
    ingest,
    macd,
    normalize,
    read_frame_csv,
    read_series_csv,
    rsi,
    window,
    write_atomic,
    write_frame_csv,
)
from grnn.network import LayerSpec, NetworkSpec
from grnn.numerics import Rng
from grnn.synthetic import write_bundle, write_sine
from grnn.train import TrainConfig, train
from helpers import reference_read_series_csv, reference_write_frame_csv

TABLE_NIFTY_MIN = 2573.15
TABLE_NIFTY_MAX = 21778.3


def write_csv(path, rows, header=("Date", "Close")):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def days(start, n):
    return [(dt.date.fromisoformat(start) + dt.timedelta(days=i)).isoformat()
            for i in range(n)]


# --- ingestion -------------------------------------------------------------

def test_ingest_identical_dates_keeps_everything(tmp_path):
    d = days("2020-01-01", 5)
    write_csv(tmp_path / "a.csv", list(zip(d, range(5))))
    write_csv(tmp_path / "b.csv", list(zip(d, range(10, 15))))
    frame = ingest({"A": (tmp_path / "a.csv", "Close"),
                    "B": (tmp_path / "b.csv", "Close")})
    assert frame.n_rows == 5
    assert frame.feature_order == ["A", "B"]
    np.testing.assert_array_equal(frame.columns["B"], [10, 11, 12, 13, 14])


def test_ingest_disjoint_dates_is_an_error(tmp_path):
    write_csv(tmp_path / "a.csv", list(zip(days("2020-01-01", 3), range(3))))
    write_csv(tmp_path / "b.csv", list(zip(days("2021-01-01", 3), range(3))))
    with pytest.raises(DataError, match="intersection"):
        ingest({"A": (tmp_path / "a.csv", "Close"), "B": (tmp_path / "b.csv", "Close")})


def test_ingest_partial_overlap_keeps_intersection(tmp_path):
    write_csv(tmp_path / "a.csv", list(zip(days("2020-01-01", 6), range(6))))
    write_csv(tmp_path / "b.csv", list(zip(days("2020-01-03", 6), range(6))))
    write_csv(tmp_path / "c.csv", list(zip(days("2020-01-02", 4), range(4))))
    frame = ingest({"A": (tmp_path / "a.csv", "Close"),
                    "B": (tmp_path / "b.csv", "Close"),
                    "C": (tmp_path / "c.csv", "Close")})
    # intersection: Jan 3..Jan 5
    assert [d.isoformat() for d in frame.dates] == days("2020-01-03", 3)


def test_ingest_aligns_sources_out_of_date_order(tmp_path):
    """Each value stays with its own date when sources list their dates in
    any order and on different calendars; a repeated date is an error."""
    a_rows = list(zip(days("2020-01-01", 8), [10.0 + k for k in range(8)]))
    b_rows = list(zip(days("2020-01-03", 8), [20.0 + k for k in range(8)]))
    write_csv(tmp_path / "a.csv", a_rows[::-1])
    write_csv(tmp_path / "b.csv", b_rows[3:] + b_rows[:3])
    frame = ingest({"A": (tmp_path / "a.csv", "Close"), "B": (tmp_path / "b.csv", "Close")})
    assert [d.isoformat() for d in frame.dates] == days("2020-01-03", 6)
    assert frame.columns["A"].tolist() == [dict(a_rows)[d] for d in days("2020-01-03", 6)]
    assert frame.columns["B"].tolist() == [dict(b_rows)[d] for d in days("2020-01-03", 6)]
    for rows in (a_rows + a_rows[2:3], a_rows[:3] + a_rows[2:]):
        write_csv(tmp_path / "a.csv", rows)
        with pytest.raises(DataError, match=r"a\.csv: duplicate dates"):
            ingest({"A": (tmp_path / "a.csv", "Close"), "B": (tmp_path / "b.csv", "Close")})


def test_ingest_unparseable_row_names_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    for bad, named in (("oops", "cannot parse date='2020-01-02' value='oops'"),
                       ("1" * 200_000, "field larger than field limit")):   # a csv.Error
        write_csv(path, [("2020-01-01", 1.0), ("2020-01-02", bad)])
        with pytest.raises(DataError, match=rf"bad\.csv:3: {named}"):
            ingest({"A": (path, "Close")})


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, [("2020-01-01", 1.0)])
    with pytest.raises(DataError, match="Price"):
        ingest({"A": (path, "Price")})


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_source_value_names_file_and_line(tmp_path, bad):
    d = days("2020-01-01", 4)
    write_csv(tmp_path / "a.csv", list(zip(d, [1.0, 2.0, 3.0, 4.0])))
    # the bad value sits on a date that the other source lacks, which the
    # inner join would otherwise drop without a word
    write_csv(tmp_path / "b.csv", list(zip(d[:3] + days("2021-01-01", 1),
                                           [5.0, 6.0, 7.0, bad])))
    with pytest.raises(DataError, match=rf"b\.csv:5: non-finite value='{bad}'"):
        ingest({"A": (tmp_path / "a.csv", "Close"), "B": (tmp_path / "b.csv", "Close")})


def series_as_lists(series):
    """`read_series_csv`'s (ordinals, values) arrays as (dates, floats) lists."""
    ordinals, values = series
    assert ordinals.dtype == np.int64 and values.dtype == np.float64
    return list(map(dt.date.fromordinal, ordinals.tolist())), values.tolist()


def test_source_rows_read_like_dictreader(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text('Close,Date,Close\r\n\r\n1,2020-01-02 ,3\r\n"4",\r\n'
                    '\r\n5, 2020-01-04,6,extra\r\n', encoding="utf-8")
    with pytest.raises(DataError, match=r"s\.csv:3: cannot parse date='' value=None"):
        read_series_csv(path, "Close")
    path.write_text("Close,Date,Close\n\n1,2020-01-02 ,3\n\n5, 2020-01-04,6,x\n",
                    encoding="utf-8")
    assert series_as_lists(read_series_csv(path, "Close")) == (
        [dt.date(2020, 1, 2), dt.date(2020, 1, 4)], [3.0, 6.0])


def block_source(path, n, blank_after=None, bad_at=None, bad=""):
    """A source of `n` data rows with value k.5 on row k (0-based), an
    optional blank line after row `blank_after` and row `bad_at` replaced
    by the text `bad`; the blank line takes no line number."""
    lines = ["Date,Close"]
    for k, date in enumerate(days("2000-01-01", n)):
        lines.append(bad if k == bad_at else f"{date},{k}.5")
        if k == blank_after:
            lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("blank_after", [None, _FRAME_BLOCK - 1, _FRAME_BLOCK])
def test_source_blocks_match_the_reference(tmp_path, blank_after):
    """Sources over several blocks, with a blank row on either side of a
    block boundary, read as the DictReader reference reads them."""
    path = tmp_path / "s.csv"
    block_source(path, 2 * _FRAME_BLOCK + 3, blank_after)
    got = series_as_lists(read_series_csv(path, "Close"))
    assert got == reference_read_series_csv(path, "Close")
    assert len(got[0]) == 2 * _FRAME_BLOCK + 3 and got[1][_FRAME_BLOCK] == _FRAME_BLOCK + 0.5


@pytest.mark.parametrize("bad, message", [
    ("2001-05-01,x", "cannot parse date='2001-05-01' value='x'"),
    ("2001-05-01", "cannot parse date='2001-05-01' value=None"),       # a short row
    ("2001-05-01,inf", "non-finite value='inf'"),
])
@pytest.mark.parametrize("blank_after", [None, _FRAME_BLOCK - 1])
def test_bad_row_after_the_first_block_names_file_and_line(tmp_path, bad, message,
                                                           blank_after):
    """The bad row is data row _FRAME_BLOCK + 40, on line _FRAME_BLOCK + 41
    whether or not a blank line comes before it, as in the reference."""
    path = tmp_path / "s.csv"
    block_source(path, 2 * _FRAME_BLOCK, blank_after, bad_at=_FRAME_BLOCK + 39, bad=bad)
    where = rf"s\.csv:{_FRAME_BLOCK + 41}: "
    for read in (read_series_csv, reference_read_series_csv):
        with pytest.raises(DataError, match=where + message):
            read(path, "Close")


GOOD_DATES = ["2020-01-02", " 2020-01-03", "2020-01-04 ", '"2020-01-05"']
BAD_DATES = ["2020-13-01", "x", ""]
GOOD_VALUES = ["1.5", " 2 ", "-3e2", "0", '"7"', "1_0"]
BAD_VALUES = ["nan", "inf", "1e400", "abc", "", '"4,5"']


@st.composite
def source_csvs(draw):
    """Source-file text: blank, short and long rows, repeated header names,
    padded dates, quoted fields and now and then a bad field or a missing column."""
    def field(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 15)) == 0 else good))

    extra = draw(st.lists(st.sampled_from(["Close", "Date", "X", ""]), max_size=2))
    header = draw(st.permutations(["Date", "Close", *extra]))
    if draw(st.integers(0, 15)) == 0:
        header = header[1:]
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["full"] * 6 + ["blank", "short", "long"]))
        row = [field(GOOD_DATES, BAD_DATES) if name == "Date"
               else field(GOOD_VALUES, BAD_VALUES) for name in header]
        if kind == "blank":
            row = []
        elif kind == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row.append(field(GOOD_VALUES, BAD_VALUES))
        lines.append(row)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(line) + newline for line in lines)


@settings(max_examples=300)
@given(text=source_csvs())
def test_source_reader_matches_the_dictreader_reference(tmp_path_factory, text):
    """The same (dates, values) as one DictReader dict per row, or the same
    DataError text."""
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(text.encode())

    def outcome(read):
        try:
            return read(path, "Close")
        except DataError as exc:
            return str(exc)

    got = outcome(read_series_csv)
    assert (got if isinstance(got, str) else series_as_lists(got)) == outcome(
        reference_read_series_csv)


# --- indicators ------------------------------------------------------------

def ema_oracle(series, period):
    """Direct recurrence evaluation, independent of the implementation."""
    k = 2.0 / (period + 1)
    out = [sum(series[:period]) / period]
    for x in series[period:]:
        out.append(k * x + (1 - k) * out[-1])
    return np.array(out)


def rsi_oracle(series, period=14):
    diffs = [series[i + 1] - series[i] for i in range(len(series) - 1)]
    gains = [max(d, 0.0) for d in diffs]
    losses = [max(-d, 0.0) for d in diffs]
    avg_g = sum(gains[:period]) / period
    avg_l = sum(losses[:period]) / period
    out = []
    for j in range(len(series) - period):
        if j > 0:
            avg_g = (avg_g * (period - 1) + gains[period - 1 + j]) / period
            avg_l = (avg_l * (period - 1) + losses[period - 1 + j]) / period
        out.append(100.0 if avg_l == 0 else 100.0 - 100.0 / (1.0 + avg_g / avg_l))
    return np.array(out)


def test_ema_constant_series_is_fixed_point():
    np.testing.assert_allclose(ema(np.full(20, 3.5), 12), np.full(9, 3.5), rtol=1e-15)


def test_ema_period_one_is_identity():
    x = np.array([1.0, 4.0, 2.0, 8.0])
    np.testing.assert_array_equal(ema(x, 1), x)


def test_ema_matches_recurrence_oracle():
    x = np.arange(1.0, 31.0)
    np.testing.assert_allclose(ema(x, 12), ema_oracle(x, 12), rtol=1e-12)


def test_ema_too_short():
    with pytest.raises(DataError):
        ema(np.ones(5), 12)


def test_macd_constant_is_zero():
    np.testing.assert_allclose(macd(np.full(40, 7.0)), np.zeros(15), atol=1e-12)


def test_macd_increasing_is_positive_and_aligned():
    x = np.linspace(1, 50, 60)
    out = macd(x)
    assert out.size == 60 - 25
    assert np.all(out > 0)


def test_macd_matches_oracle():
    rng = Rng(3)
    x = np.cumsum(rng.standard_normal(80)) + 50
    want = ema_oracle(x, 12)[14:] - ema_oracle(x, 26)
    np.testing.assert_allclose(macd(x), want, rtol=1e-12)


def test_rsi_monotone_series():
    up = np.arange(1.0, 40.0)
    down = up[::-1]
    assert np.all(rsi(up) == 100.0)
    assert np.all(rsi(down) == 0.0)


def test_rsi_matches_wilder_oracle():
    rng = Rng(4)
    x = np.cumsum(rng.standard_normal(30)) + 100
    got = rsi(x, 14)
    assert got.size == 30 - 14
    np.testing.assert_allclose(got, rsi_oracle(list(x), 14), rtol=1e-12)


def test_add_indicators_trims_undefined_head():
    frame = random_frame(7, n=60, n_cols=2)
    out = add_indicators(frame, "C0", ("MACD", "RSI"))
    assert out.n_rows == 60 - 25
    assert out.feature_order == ["C0", "C1", "MACD", "RSI"]
    assert out.dates[0] == frame.dates[25]
    np.testing.assert_allclose(out.columns["MACD"], macd(frame.columns["C0"]))
    np.testing.assert_allclose(out.columns["RSI"], rsi(frame.columns["C0"])[11:])


# --- normalization ---------------------------------------------------------

def nifty_like_frame():
    rng = Rng(11)
    n = 40
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    vals = rng.uniform(TABLE_NIFTY_MIN, TABLE_NIFTY_MAX, size=n)
    vals[3] = TABLE_NIFTY_MIN
    vals[n - 2] = TABLE_NIFTY_MAX
    return TimeSeriesFrame(dates, {"NIFTY": vals, "OTHER": rng.uniform(1, 2, n)})


def test_normalize_full_matches_published_endpoints():
    frame = nifty_like_frame()
    scaled, norm = normalize(frame, fit_on="full")
    assert norm.bounds["NIFTY"] == (TABLE_NIFTY_MIN, TABLE_NIFTY_MAX)
    assert scaled.columns["NIFTY"][3] == 0.0
    assert scaled.columns["NIFTY"][len(frame.dates) - 2] == 1.0


def test_normalize_unit_interval_and_roundtrip():
    frame = random_frame(5, n=50)
    scaled, norm = normalize(frame, fit_on="full")
    for name, col in scaled.columns.items():
        assert col.min() == 0.0 and col.max() == 1.0
        back = norm.unscale(name, col)
        np.testing.assert_allclose(back, frame.columns[name], rtol=1e-9)


def test_normalize_train_only_ignores_test_rows():
    frame = random_frame(6, n=50)
    frame.columns["C0"][45:] += 1e6      # extreme values in the final 20%
    scaled, norm = normalize(frame, fit_on="train_only", split=0.80)
    lo, hi = norm.bounds["C0"]
    assert hi < 1e5
    assert np.all(scaled.columns["C0"][:40] <= 1.0)
    assert np.any(scaled.columns["C0"][45:] > 1.0)


def test_normalize_constant_column_names_offender():
    frame = random_frame(8, n=30)
    frame.columns["C1"][:] = 4.2
    with pytest.raises(DataError, match="C1"):
        normalize(frame, fit_on="full")


def test_inverse_transform_endpoints_and_midpoint():
    norm_params = normalize(nifty_like_frame(), fit_on="full")[1]
    assert norm_params.unscale("NIFTY", np.array([0.0]))[0] == TABLE_NIFTY_MIN
    assert norm_params.unscale("NIFTY", np.array([1.0]))[0] == TABLE_NIFTY_MAX
    mid = norm_params.unscale("NIFTY", np.array([0.5]))[0]
    assert mid == pytest.approx(12175.725, abs=1e-9)
    with pytest.raises(DataError):
        norm_params.unscale("GOLD", np.array([0.5]))


@given(st.integers(0, 500))
def test_normalize_roundtrip_property(seed):
    frame = random_frame(seed, n=30, n_cols=2)
    scaled, norm = normalize(frame, fit_on="full")
    for name in frame.columns:
        back = norm.unscale(name, scaled.columns[name])
        np.testing.assert_allclose(back, frame.columns[name], rtol=1e-9, atol=1e-9)


# --- windowing -------------------------------------------------------------

def test_window_published_split_counts():
    """3649 rows split 80/20 -> 2919 train rows and 730 test rows."""
    n = 3649
    dates = [dt.date(2009, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    vals = np.linspace(0, 1, n)
    frame = TimeSeriesFrame(dates, {"NIFTY": vals})
    scaled, norm = normalize(frame, fit_on="full")
    ds = window(scaled, lookback=10, norm=norm, split=0.80, target="NIFTY")
    assert int(np.floor(0.80 * n)) == 2919
    assert ds.train_x.shape[0] == 2919 - 10
    assert ds.test_x.shape[0] == 730 - 10


def test_window_counts_and_alignment():
    frame = random_frame(9, n=50, n_cols=2)
    scaled, norm = normalize(frame, fit_on="full")
    ds = window(scaled, lookback=4, norm=norm, split=0.80, target="C0")
    assert ds.train_x.shape == (40 - 4, 4, 2)
    assert ds.test_x.shape == (10 - 4, 4, 2)
    # target row follows the window's last row
    np.testing.assert_array_equal(ds.train_x[0], scaled.matrix()[:4])
    assert ds.train_y[0] == scaled.columns["C0"][4]
    # chronology: last train target strictly precedes first test window date
    assert ds.train_dates[-1] < ds.test_dates[0]
    assert len(ds.train_dates) == ds.train_y.size


def test_window_target_always_after_inputs():
    frame = random_frame(10, n=40, n_cols=1)
    scaled, norm = normalize(frame, fit_on="full")
    ds = window(scaled, lookback=3, norm=norm, split=0.80, target="C0")
    for xs, y, date in ((ds.train_x, ds.train_y, ds.train_dates),
                        (ds.test_x, ds.test_y, ds.test_dates)):
        assert xs.shape[0] == y.size == len(date)


def test_window_errors_when_side_too_short():
    frame = random_frame(11, n=20, n_cols=1)
    scaled, norm = normalize(frame, fit_on="full")
    with pytest.raises(DataError, match="lookback"):
        window(scaled, lookback=5, norm=norm, split=0.80, target="C0")


def stacked_windows(frame, lookback, split):
    """The windows as np.stack copies, one per window: the reference for `window`."""
    data = frame.matrix()
    n_train = int(np.floor(split * frame.n_rows))

    def build(lo, hi):
        return np.stack([data[i:i + lookback] for i in range(lo, hi - lookback)])

    return build(0, n_train), build(n_train, frame.n_rows)


@pytest.mark.parametrize("n, n_cols, lookback, split", [
    (50, 2, 4, 0.80),
    (60, 3, 1, 0.80),        # lookback 1
    (4, 1, 1, 0.50),         # both sides lookback + 1 rows long, the shortest allowed
    (10, 2, 4, 0.50),
    (23, 5, 3, 0.70),
    (3649, 8, 10, 0.80),     # the published shape
])
def test_window_views_equal_stacked_copies(n, n_cols, lookback, split):
    frame = random_frame(13, n=n, n_cols=n_cols)
    scaled, norm = normalize(frame, fit_on="full")
    ds = window(scaled, lookback=lookback, norm=norm, split=split, target="C0")
    train_x, test_x = stacked_windows(scaled, lookback, split)
    for got, want in ((ds.train_x, train_x), (ds.test_x, test_x)):
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    n_train = int(np.floor(split * n))
    np.testing.assert_array_equal(ds.train_y, scaled.columns["C0"][lookback:n_train])
    np.testing.assert_array_equal(ds.test_y, scaled.columns["C0"][n_train + lookback:])


def test_windows_are_read_only_views_of_one_matrix():
    frame = random_frame(14, n=50, n_cols=3)
    scaled, norm = normalize(frame, fit_on="full")
    ds = window(scaled, lookback=4, norm=norm, split=0.80, target="C1")

    def owner(a):
        while getattr(a, "base", None) is not None:
            a = a.base
        return a

    matrix = owner(ds.train_x)
    assert owner(ds.test_x) is matrix
    np.testing.assert_array_equal(matrix, scaled.matrix())
    assert np.shares_memory(ds.train_x, matrix) and np.shares_memory(ds.test_x, matrix)
    for xs in (ds.train_x, ds.test_x):
        with pytest.raises(ValueError, match="read-only"):
            xs[0, 0, 0] = 1.0
    np.testing.assert_array_equal(matrix, scaled.matrix())


@pytest.mark.parametrize("layers, batch_size, learning_rate", [
    ((("lstm", 47),), 46, 0.00486),               # c09: 2,909 windows end in a batch of 11
    ((("gru", 12), ("lstm", 7)), 64, 0.002),      # two layers; a last batch of 29
])
def test_train_on_window_views_matches_contiguous_copies(market_dataset, layers, batch_size,
                                                         learning_rate):
    ds = market_dataset
    assert ds.train_x.shape[0] % batch_size != 0
    spec = NetworkSpec(layers=tuple(LayerSpec(*layer) for layer in layers), input_dim=8)
    cfg = TrainConfig(batch_size=batch_size, max_epochs=2, patience=2,
                      learning_rate=learning_rate, seed=7)
    got = train(spec, ds, cfg)
    for copy in (np.ascontiguousarray(ds.train_x), ds.train_x.astype(np.float32)):
        want = train(spec, replace(ds, train_x=copy), cfg)
        assert got.epoch_losses == want.epoch_losses
        assert got.best_params.flat.tobytes() == want.best_params.flat.tobytes()


def test_frame_invariants():
    dates = [dt.date(2020, 1, 2), dt.date(2020, 1, 1)]
    with pytest.raises(DataError, match="increasing"):
        TimeSeriesFrame(dates, {"A": np.zeros(2)})
    good = [dt.date(2020, 1, 1), dt.date(2020, 1, 2)]
    with pytest.raises(DataError, match="non-finite"):
        TimeSeriesFrame(good, {"A": np.array([1.0, np.nan])})
    with pytest.raises(DataError, match="length"):
        TimeSeriesFrame(good, {"A": np.zeros(3)})


def test_frame_csv_roundtrip_is_exact(tmp_path):
    frame = random_frame(12, n=25, n_cols=3)
    path = tmp_path / "frame.csv"
    write_frame_csv(path, frame)
    back = read_frame_csv(path)
    assert back.dates == frame.dates
    for name in frame.columns:
        np.testing.assert_array_equal(back.columns[name], frame.columns[name])


def prepared_frame(sources, target, indicators):
    frame = add_indicators(ingest(sources), target, indicators)
    return normalize(frame, fit_on="full")[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_frame_writer_bytes_match_the_row_writer_on_the_market_bundle(tmp_path, seed):
    manifest = write_bundle(tmp_path / "mkt", seed=seed)
    frame = prepared_frame(manifest, "NIFTY", ("MACD", "RSI"))
    write_frame_csv(tmp_path / "new.csv", frame)
    reference_write_frame_csv(tmp_path / "ref.csv", frame)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_frame_writer_bytes_match_the_row_writer_on_sine_and_odd_names(tmp_path):
    csv_path, column = write_sine(tmp_path / "sine.csv")
    frames = [prepared_frame({"SINE": (csv_path, column)}, "SINE", ()),
              TimeSeriesFrame(random_frame(3, n=20).dates,
                              {'a,"b"': np.array([-0.0, 1e-300, 2.5e16] * 6 + [1.0, 2.0])})]
    for frame in frames:
        write_frame_csv(tmp_path / "new.csv", frame, date_column="Day")
        reference_write_frame_csv(tmp_path / "ref.csv", frame, date_column="Day")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def joined_frame_csv(path, frame, date_column="Date"):
    """`write_frame_csv`'s bytes from one join over all rows: the reference
    for the block-wise writer."""
    fields = [map(repr, frame.columns[c].tolist()) for c in frame.feature_order]
    dates = [d.isoformat() for d in frame.dates]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([date_column] + frame.feature_order) + "\r\n")
        fh.write("".join([",".join(row) + "\r\n" for row in zip(dates, *fields)]))


@pytest.mark.parametrize("n", [_FRAME_BLOCK - 1, _FRAME_BLOCK, _FRAME_BLOCK + 1,
                               2 * _FRAME_BLOCK + 1])
def test_frame_writer_bytes_match_one_join_at_block_edges(tmp_path, n):
    frame = random_frame(15, n=n, n_cols=3)
    write_frame_csv(tmp_path / "new.csv", frame)
    joined_frame_csv(tmp_path / "ref.csv", frame)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_frame_csv_with_only_a_header_is_a_data_error(tmp_path):
    path = tmp_path / "frame.csv"
    write_frame_csv(path, random_frame(2, n=10))
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(DataError, match="no data rows"):
        read_frame_csv(path)


@pytest.mark.parametrize("mangle, named", [
    (lambda row: row.rsplit(",", 1)[0], "expected 4 fields"),            # a short row
    (lambda row: row.replace(",", ",x", 1), "unparseable row"),         # a bad float
    (lambda row: "2021-02-30" + row[10:], "unparseable row"),             # a bad date
])
@pytest.mark.parametrize("lineno", [7, 600])        # in the first block of rows and a later one
def test_frame_csv_bad_row_names_file_and_line(tmp_path, mangle, named, lineno):
    path = tmp_path / "frame.csv"
    write_frame_csv(path, random_frame(4, n=700, n_cols=3))
    lines = path.read_text().splitlines()
    lines[lineno - 1] = mangle(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf"frame\.csv:{lineno}: {named}"):
        read_frame_csv(path)


def test_write_atomic_leaves_another_writers_temp_file_alone(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_bytes(b"old")
    other = tmp_path / "artifact.json.tmp"      # another writer's temp file
    other.write_bytes(b"half of another writer's bytes")
    write_atomic(target, lambda fh: fh.write("new\n"))
    assert target.read_bytes() == b"new\n"
    assert other.read_bytes() == b"half of another writer's bytes"

    def fail(fh):
        fh.write("partial")
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError):
        write_atomic(target, fail)
    assert target.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json", "artifact.json.tmp"]
