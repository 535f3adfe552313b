"""Prediction-quality metrics: R-squared, RMSE, MAPE, and normalized RMSE.

MAPE guards zero targets with max(eps, |y|) and is carried in fraction
form; reports expose both the fraction and the x100 percent value because
published tables are ambiguous about which one they printed.  R2, RMSE and
MAPE are computed on raw price units after inverse-transforming model
outputs; RMSE(ND) is the same RMSE on the normalized values, so
rmse == rmse_nd * (target max - min) holds exactly up to rounding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import WindowedDataset, check_type
from .network import NetworkParams, NetworkSpec, predict_batch
from .numerics import FLOAT, ShapeError

MAPE_EPSILON = 1e-8


def _pair(y, yhat):
    y = np.asarray(y, dtype=FLOAT).ravel()
    yhat = np.asarray(yhat, dtype=FLOAT).ravel()
    if y.shape != yhat.shape or y.size == 0:
        raise ShapeError(f"metric inputs: {y.shape} vs {yhat.shape}")
    return y, yhat


def r2(y, yhat) -> float:
    """1 - SS_res/SS_tot; 1.0 is a perfect fit, negative is worse than the mean."""
    y, yhat = _pair(y, yhat)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 undefined for a constant target")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def rmse(y, yhat) -> float:
    y, yhat = _pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mape(y, yhat, eps: float = MAPE_EPSILON) -> float:
    """Mean |y - yhat| / max(eps, |y|), in fraction form (x100 for percent)."""
    y, yhat = _pair(y, yhat)
    return float(np.mean(np.abs(y - yhat) / np.maximum(eps, np.abs(y))))


@dataclass
class EvalReport:
    r2: float
    rmse: float             # raw target units
    mape: float             # fraction
    mape_pct: float         # fraction * 100
    rmse_nd: float          # normalized units
    n: int
    seed: int | None = None
    architecture: str = ""

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "EvalReport":
        return cls(**{key: check_type(rec[key], float, key)
                      for key in ("r2", "rmse", "mape", "mape_pct", "rmse_nd")},
                   n=check_type(rec["n"], int, "n"), seed=rec.get("seed"),
                   architecture=rec.get("architecture", ""))


def evaluate(spec: NetworkSpec, params: NetworkParams, dataset: WindowedDataset,
             seed: int | None = None, architecture: str = "") -> EvalReport:
    """Score a model on the test split of a windowed dataset.

    Normalized-space error feeds rmse_nd; r2/rmse/mape are computed after
    inverse-transforming predictions and targets back to raw units.
    """
    ys = dataset.test_y
    preds_nd = predict_batch(spec, params, dataset.test_x)[:, 0]
    rmse_nd = rmse(ys, preds_nd)
    y_raw = dataset.norm.unscale(dataset.target_name, ys)
    p_raw = dataset.norm.unscale(dataset.target_name, preds_nd)
    frac = mape(y_raw, p_raw)
    return EvalReport(
        r2=r2(y_raw, p_raw),
        rmse=rmse(y_raw, p_raw),
        mape=frac,
        mape_pct=100.0 * frac,
        rmse_nd=rmse_nd,
        n=int(ys.size),
        seed=seed,
        architecture=architecture,
    )
