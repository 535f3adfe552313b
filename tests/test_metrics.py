import numpy as np
import pytest

from grnn.metrics import MAPE_EPSILON, evaluate, mape, r2, rmse
from grnn.network import LayerSpec, NetworkParams, NetworkSpec, predict_batch
from grnn.numerics import Rng, ShapeError


def test_r2_examples():
    y = np.array([1.0, 2.0, 3.0])
    assert r2(y, y) == 1.0
    assert r2(y, np.full(3, y.mean())) == 0.0
    assert r2(y, np.array([1.0, 2.0, 4.0])) == pytest.approx(0.5, abs=1e-15)


def test_r2_constant_target_is_an_error():
    with pytest.raises(ValueError):
        r2(np.ones(5), np.arange(5.0))


def test_r2_affine_invariance():
    rng = Rng(1)
    y = rng.standard_normal(40)
    yhat = y + 0.3 * rng.standard_normal(40)
    base = r2(y, yhat)
    assert r2(5.0 * y - 2.0, 5.0 * yhat - 2.0) == pytest.approx(base, rel=1e-12)


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.535534, abs=1e-6)
    y = np.array([1.0, -2.0, 0.5])
    yhat = np.array([0.0, 1.0, 2.0])
    assert rmse(3 * y, 3 * yhat) == pytest.approx(3 * rmse(y, yhat), rel=1e-12)


def test_mape_examples():
    assert mape([100.0], [100.0]) == 0.0
    assert mape([100.0], [99.0]) == pytest.approx(0.01, abs=1e-15)
    assert 100.0 * mape([100.0], [99.0]) == pytest.approx(1.0, abs=1e-12)
    # the epsilon guard makes a zero target give |err|/eps
    assert mape([0.0], [1.0]) == pytest.approx(1.0 / MAPE_EPSILON, rel=1e-12)


def test_mape_scale_invariance_away_from_zero():
    rng = Rng(2)
    y = rng.uniform(5.0, 10.0, 30)
    yhat = y * rng.uniform(0.9, 1.1, 30)
    assert mape(7 * y, 7 * yhat) == pytest.approx(mape(y, yhat), rel=1e-12)


def test_length_mismatch():
    with pytest.raises(ShapeError):
        rmse([1.0], [1.0, 2.0])


def test_evaluate_consistency_and_rmse_identity(market_dataset):
    """evaluate() must agree with manual metric computation, and the raw RMSE
    must equal the normalized RMSE times the target's min-max range."""
    ds = market_dataset
    spec = NetworkSpec(layers=(LayerSpec("gru", 5),), input_dim=len(ds.feature_order))
    params = NetworkParams.init(spec, Rng(3))
    report = evaluate(spec, params, ds, split="test", seed=7, architecture="gru1")

    preds = predict_batch(spec, params, ds.test_x)[:, 0]
    assert report.rmse_nd == pytest.approx(rmse(ds.test_y, preds), rel=1e-15)
    lo, hi = ds.norm.bounds["NIFTY"]
    span = hi - lo
    assert report.rmse == pytest.approx(report.rmse_nd * span, rel=1e-9)
    assert report.mape_pct == pytest.approx(100.0 * report.mape, rel=1e-15)
    assert report.n == ds.test_y.size
    assert report.seed == 7 and report.architecture == "gru1"


def test_evaluate_constant_mean_predictor_scores_zero(market_dataset):
    ds = market_dataset
    spec = NetworkSpec(layers=(LayerSpec("lstm", 4),), input_dim=len(ds.feature_order))
    params = NetworkParams.zeros(spec)
    params.head_b[:] = ds.test_y.mean()
    report = evaluate(spec, params, ds, split="test")
    assert report.r2 == pytest.approx(0.0, abs=1e-12)


def test_evaluate_memorizing_model_scores_one(sine_dataset):
    """A model driven to near-zero training loss scores ~1 on its own data."""
    from grnn.train import TrainConfig, train

    spec = NetworkSpec(layers=(LayerSpec("lstm", 16),), input_dim=1)
    cfg = TrainConfig(batch_size=16, max_epochs=500, patience=500,
                      learning_rate=0.003, optimizer="nadam", seed=5)
    result = train(spec, sine_dataset, cfg)
    report = evaluate(spec, result.best_params, sine_dataset, split="train")
    assert report.r2 > 0.9999
    assert report.rmse_nd < 1e-2


def test_eval_report_record_roundtrip(market_dataset):
    from grnn.metrics import EvalReport

    spec = NetworkSpec(layers=(LayerSpec("gru", 3),), input_dim=len(market_dataset.feature_order))
    report = evaluate(spec, NetworkParams.init(spec, Rng(9)), market_dataset,
                      split="test", seed=1, architecture="x")
    back = EvalReport.from_record(report.to_record())
    assert back == report
