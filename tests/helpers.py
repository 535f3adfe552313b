"""Helpers shared by the test modules."""

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from grnn.data import DataError


@dataclass
class ScalarBag:
    """A parameter container holding one flat vector, for optimizer tests."""

    value: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return self.value

    @classmethod
    def of(cls, x: float) -> "ScalarBag":
        return cls(np.array([float(x)], dtype=np.float64))

    def tensors(self):
        yield "value", self.value


def mse(pred, target) -> float:
    diff = np.ravel(pred) - np.ravel(target)
    return float(np.mean(diff * diff))


def central_differences(loss, arr: np.ndarray) -> np.ndarray:
    """Numeric gradient of `loss()` with respect to every entry of `arr`.

    Each entry is perturbed in place (so `arr` must be what `loss` reads,
    e.g. a network's flat parameter vector) and restored afterwards.
    """
    flat = arr.reshape(-1)
    assert np.shares_memory(flat, arr)
    grad = np.zeros(flat.size)
    for k in range(flat.size):
        orig = flat[k]
        h = 1e-6 * max(1.0, abs(orig))
        flat[k] = orig + h
        up = loss()
        flat[k] = orig - h
        dn = loss()
        flat[k] = orig
        grad[k] = (up - dn) / (2 * h)
    return grad.reshape(arr.shape)


def reference_read_series_csv(path, column: str, date_column: str = "Date"):
    """`grnn.data.read_series_csv` as one `csv.DictReader` dict per row.

    The reference for the reader's contract: DictReader skips blank rows
    (they take no line number), gives None for the missing fields of a short
    row, and maps a repeated header name to its last column.
    """
    dates, values = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or date_column not in reader.fieldnames:
            raise DataError(f"{path}: missing {date_column!r} column")
        if column not in reader.fieldnames:
            raise DataError(f"{path}: missing value column {column!r}")
        for lineno, row in enumerate(reader, start=2):
            raw_date, raw_val = row.get(date_column), row.get(column)
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
    if not dates:
        raise DataError(f"{path}: no data rows")
    return dates, values


def reference_write_frame_csv(path, frame, date_column: str = "Date") -> None:
    """`grnn.data.write_frame_csv` as one `csv.writer` row per date."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([date_column] + frame.feature_order)
        cols = [frame.columns[c] for c in frame.feature_order]
        for idx, date in enumerate(frame.dates):
            writer.writerow([date.isoformat()] + [repr(float(c[idx])) for c in cols])
