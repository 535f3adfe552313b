"""Gated recurrent network forecasting toolkit.

From-scratch LSTM/GRU/hybrid stacks trained by full backpropagation
through time, the Nadam optimizer, TPE Bayesian hyperparameter
search, technical-indicator feature preparation, and the statistical
machinery to compare architectures across repeated seeded runs.
"""

from .cells import LayerParams, gru_backward, gru_forward, lstm_backward, lstm_forward
from .data import NormalizationParams, TimeSeriesFrame, WindowedDataset, ema, ingest, macd, normalize, rsi, window
from .hpo import IntUniform, LogUniform, SearchSpace, TpeConfig, Trial, optimize, suggest
from .metrics import EvalReport, evaluate, mape, r2, rmse
from .network import LayerSpec, NetworkParams, NetworkSpec, backward, forward_batch, load_model, predict_batch, save_model
from .numerics import Rng, glorot_uniform
from .optim import OptimizerState, apply
from .stats import compare_architectures, dagostino_pearson, welch_t
from .train import RunArchive, TrainConfig, TrainResult, run_experiment, train

__version__ = "0.1.0"
