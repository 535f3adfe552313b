import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grnn.cells import LayerParams, lstm_forward
from grnn.numerics import Rng, ShapeError, glorot_uniform, sigmoid_grad

moderate = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def cell_activations(x: float, activation: str = "tanh") -> tuple[float, float]:
    """(sigmoid(x), act(x)) as an LSTM cell computes them: one unit, one step,
    every kernel weight 1 and nothing else, so each gate's pre-activation is x."""
    params = LayerParams(np.ones((1, 4)), np.zeros((1, 4)), np.zeros(4))
    _, tape = lstm_forward(params, [[[x]]], activation)
    forget, _, _, candidate = tape.gates[0, :, 0, 0]
    return float(forget), float(candidate)


def sigmoid(x: float) -> float:
    return cell_activations(x)[0]


def tanh(x: float) -> float:
    return cell_activations(x, "tanh")[1]


def relu(x: float) -> float:
    return cell_activations(x, "relu")[1]


def test_activation_point_values():
    assert sigmoid(0.0) == 0.5
    assert tanh(0.0) == 0.0
    assert relu(-3.2) == 0.0
    assert relu(1.7) == 1.7


@given(moderate)
def test_sigmoid_complement(x):
    assert abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-12


@pytest.mark.parametrize("x", [-800.0, -710.0, 710.0, 800.0, 1e6, -1e6])
def test_sigmoid_saturates_without_overflow(x):
    with np.errstate(over="raise"):
        y = sigmoid(x)
    assert 0.0 <= y <= 1.0
    assert np.isfinite(y)


@pytest.mark.parametrize("x", [-2.0, -0.5, 0.3, 1.7])
def test_activation_grads_match_finite_differences(x):
    """The derivative forms the cells use, all written in terms of the output y."""
    h = 1e-6
    for fn, grad in ((sigmoid, lambda v: sigmoid_grad(sigmoid(v))),
                     (tanh, lambda v: 1.0 - tanh(v) ** 2),
                     (relu, lambda v: float(relu(v) > 0.0))):
        numeric = (fn(x + h) - fn(x - h)) / (2 * h)
        assert abs(grad(x) - numeric) <= 1e-6 * max(1.0, abs(numeric))


def test_glorot_bounds_and_determinism():
    w1 = glorot_uniform(Rng(5), 3, 3)
    w2 = glorot_uniform(Rng(5), 3, 3)
    assert w1.shape == (3, 3)
    assert np.all(np.abs(w1) <= 1.0)          # sqrt(6/6) = 1
    assert np.array_equal(w1, w2)


def test_glorot_monte_carlo_mean():
    w = glorot_uniform(Rng(123), 1000, 1000)
    assert abs(w.mean()) < 0.01


def test_glorot_rejects_bad_fans():
    with pytest.raises(ShapeError):
        glorot_uniform(Rng(0), 0, 4)


def test_rng_repeatable_and_splittable():
    a = Rng(99).uniform(size=5)
    b = Rng(99).uniform(size=5)
    assert np.array_equal(a, b)
    child0 = Rng(99).child(0).uniform(size=5)
    child1 = Rng(99).child(1).uniform(size=5)
    assert not np.array_equal(child0, child1)
    assert np.array_equal(child0, Rng(99).child(0).uniform(size=5))


def test_rng_integers_hit_endpoints():
    draws = Rng(7).integers(0, 3, size=2000)
    assert set(np.unique(draws)) == {0, 1, 2, 3}
