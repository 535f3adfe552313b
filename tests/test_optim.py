import math

import numpy as np
import pytest
from helpers import ScalarBag

from grnn.network import LayerSpec, NetworkParams, NetworkSpec
from grnn import optim
from grnn.numerics import Rng, ShapeError
from grnn.optim import NonFiniteGradient, OptimizerState, apply


def nadam_reference(theta, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar oracle for the Nadam rule, written directly from the update
    equations with plain Python floats."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= lr * (b1 * mhat + (1 - b1) * g / (1 - b1 ** t)) / (math.sqrt(vhat) + eps)
        out.append(theta)
    return out


def test_zero_gradient_never_moves_parameters():
    theta = ScalarBag.of(1.5)
    state = OptimizerState()
    for _ in range(25):
        apply(state, theta, ScalarBag.of(0.0))
    assert theta.value[0] == 1.5
    assert state.step_count == 25


def test_nadam_single_step_matches_frozen_oracle():
    theta = ScalarBag.of(0.0)
    apply(OptimizerState(), theta, ScalarBag.of(1.0))
    assert abs(theta.value[0] - (-0.0018999999810000003)) <= 1e-12


def test_nadam_trajectory_matches_oracle():
    grads = [2.0, -1.0, 0.5, 0.0, 3.0, -2.5, 0.1]
    expected = nadam_reference(1.5, grads)
    theta = ScalarBag.of(1.5)
    state = OptimizerState()
    for g, want in zip(grads, expected):
        apply(state, theta, ScalarBag.of(g))
        assert abs(theta.value[0] - want) <= 1e-12


def test_default_settings_solve_convex_scalar():
    theta = ScalarBag.of(0.0)
    state = OptimizerState()
    assert state.learning_rate == 0.001
    for _ in range(10_000):
        apply(state, theta, ScalarBag(2.0 * (theta.value - 3.0)))
        if abs(theta.value[0] - 3.0) < 0.01:
            break
    assert abs(theta.value[0] - 3.0) < 0.01


def test_nonfinite_gradient_names_tensor():
    theta = ScalarBag.of(0.0)
    with pytest.raises(NonFiniteGradient, match="value"):
        apply(OptimizerState(), theta, ScalarBag.of(float("nan")))

    spec = NetworkSpec(layers=(LayerSpec("gru", 2), LayerSpec("lstm", 3)), input_dim=2)
    params, grads = NetworkParams.init(spec, Rng(1)), NetworkParams.zeros(spec)
    dict(grads.tensors())["layer1.w_o"][2, 0] = np.inf
    with pytest.raises(NonFiniteGradient, match="layer1.w_o"):
        apply(OptimizerState(), params, grads)


def per_element_reference(theta, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The update rule applied element by element with plain Python floats."""
    theta = [float(x) for x in theta]
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    for t, grads in enumerate(grad_steps, start=1):
        for k, g in enumerate(float(x) for x in grads):
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat, vhat = m[k] / (1 - b1 ** t), v[k] / (1 - b2 ** t)
            update = b1 * mhat + (1 - b1) * g / (1 - b1 ** t)
            theta[k] -= lr * update / (math.sqrt(vhat) + eps)
    return np.array(theta)


def test_flat_apply_matches_per_element_reference():
    rng = np.random.Generator(np.random.Philox(key=11))
    theta0 = rng.standard_normal(37)
    grad_steps = [rng.standard_normal(37) * scale for scale in (1.0, 0.1, 3.0, 0.0, 1e-4, 2.0)]
    theta = ScalarBag(theta0.copy())
    state = OptimizerState()
    for g in grad_steps:
        apply(state, theta, ScalarBag(g.copy()))
    expected = per_element_reference(theta0, grad_steps, state.learning_rate)
    np.testing.assert_allclose(theta.value, expected, rtol=1e-13, atol=1e-15)
    assert state.step_count == len(grad_steps)


def test_shape_mismatch_rejected():
    theta = ScalarBag(np.zeros(2))
    with pytest.raises(ShapeError):
        apply(OptimizerState(), theta, ScalarBag(np.zeros(3)))


def test_bad_learning_rate_rejected():
    with pytest.raises(ValueError):
        OptimizerState(learning_rate=0.0)


def run_blocked_and_single_block(monkeypatch, grads_steps, theta0):
    """(params, m, v) after the steps, with BLOCK as shipped and with one block."""
    out = []
    for block in (optim.BLOCK, theta0.size):
        monkeypatch.setattr(optim, "BLOCK", block)
        theta, state = ScalarBag(theta0.copy()), OptimizerState()
        for g in grads_steps:
            apply(state, theta, ScalarBag(g.copy()))
        out.append((theta.value, state.m, state.v))
    return out


def test_blocked_apply_equals_one_block(monkeypatch):
    n = optim.BLOCK * 5 // 2
    rng = np.random.Generator(np.random.Philox(key=13))
    theta0 = rng.standard_normal(n)
    grad_steps = [rng.standard_normal(n) * scale for scale in (1.0, 0.1, 3.0)]
    blocked, single = run_blocked_and_single_block(monkeypatch, grad_steps, theta0)
    for got, want in zip(blocked, single):
        np.testing.assert_array_equal(got, want)


def test_nan_in_last_block_updates_nothing_and_names_its_tensor():
    spec = NetworkSpec(layers=(LayerSpec("lstm", 128),), input_dim=8)
    params, grads = NetworkParams.init(spec, Rng(2)), NetworkParams.zeros(spec)
    assert params.flat.size > 2 * optim.BLOCK
    grads.flat[:] = 0.01
    state = OptimizerState()
    apply(state, params, grads)
    before = [params.flat.copy(), state.m.copy(), state.v.copy()]
    grads.head_w[0, -1] = np.nan              # the last block holds the head
    with pytest.raises(NonFiniteGradient, match="head.w"):
        apply(state, params, grads)
    for got, want in zip((params.flat, state.m, state.v), before):
        np.testing.assert_array_equal(got, want)
    assert state.step_count == 1


def test_state_takes_the_dtype_of_the_parameters():
    spec = NetworkSpec(layers=(LayerSpec("lstm", 3),), input_dim=2)
    params = NetworkParams.init(spec, Rng(4), np.float32)
    grads = NetworkParams.zeros(spec, np.float32)
    grads.flat[:] = 0.25
    state = OptimizerState()
    apply(state, params, grads)
    assert params.flat.dtype == np.float32
    assert state.scratch.dtype == np.float32
    assert state.m.dtype == state.v.dtype == np.float32
    with pytest.raises(ShapeError):
        apply(state, params, NetworkParams.zeros(spec))
    with pytest.raises(ShapeError):
        apply(state, NetworkParams.init(spec, Rng(4)), NetworkParams.zeros(spec))



def test_a_step_in_parts_gives_the_bytes_of_one_call():
    """Ranges applied from the vector's end down, one straddling a block
    boundary at an unaligned start, make one step: the same parameters,
    moments and step count as one call over the whole vector."""
    n = optim.BLOCK + 1000
    rng = np.random.Generator(np.random.Philox(key=17))
    theta0 = rng.standard_normal(n).astype(np.float32)
    grad_steps = [(rng.standard_normal(n) * scale).astype(np.float32) for scale in (1.0, 0.1)]
    whole, parts = ScalarBag(theta0.copy()), ScalarBag(theta0.copy())
    whole_state, parts_state = OptimizerState(), OptimizerState()
    for g in grad_steps:
        apply(whole_state, whole, ScalarBag(g.copy()))
        for start, stop in ((7000, n), (3, 7000), (0, 3)):
            apply(parts_state, parts, ScalarBag(g[start:stop].copy()), start)
    assert parts.value.tobytes() == whole.value.tobytes()
    assert parts_state.m.tobytes() == whole_state.m.tobytes()
    assert parts_state.v.tobytes() == whole_state.v.tobytes()
    assert parts_state.step_count == whole_state.step_count == 2


def test_a_range_outside_the_vector_or_not_reaching_its_end_first_is_rejected():
    theta = ScalarBag(np.zeros(6))
    with pytest.raises(ShapeError, match="reaches the end"):
        apply(OptimizerState(), theta, ScalarBag(np.zeros(2)), 1)
    for grads, start in ((np.zeros(2), 5), (np.zeros(2), -1), (np.zeros(0), 6)):
        with pytest.raises(ShapeError, match="mismatch"):
            apply(OptimizerState(), theta, ScalarBag(grads), start)
    assert not theta.value.any()
