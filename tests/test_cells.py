import math
import tracemalloc

import numpy as np
import pytest
from helpers import central_differences
from hypothesis import given
from hypothesis import strategies as st

from grnn import cells
from grnn.cells import (
    GruTape,
    LayerParams,
    LstmTape,
    gru_backward,
    gru_forward,
    lstm_backward,
    lstm_forward,
)
from grnn.numerics import Rng, ShapeError


def make_layer(n_gates, input_dim, units, rng=None, scale=0.5):
    """(flat, LayerParams of views into flat); zeros unless an rng is given."""
    width = n_gates * units
    sizes = (input_dim * width, units * width, width)
    flat = np.zeros(sum(sizes))
    if rng is not None:
        flat[:] = rng.uniform(-scale, scale, size=flat.size)
    k, r, b = np.split(flat, np.cumsum(sizes)[:2])
    return flat, LayerParams(k.reshape(input_dim, width), r.reshape(units, width), b)


def test_lstm_zero_params_zero_state():
    _, params = make_layer(4, 2, 3)
    h, tape = lstm_forward(params, [[[0.7, -1.2]]])
    assert np.array_equal(tape.gates[:, :3], np.full((1, 3, 1, 3), 0.5))
    assert np.array_equal(tape.c, np.zeros((2, 1, 3)))
    assert np.array_equal(h, np.zeros((1, 1, 3)))


def test_lstm_zero_params_carries_half_of_prev_cell():
    _, params = make_layer(4, 1, 1)
    params.kernel[0, 3] = 1.0              # candidate sees x; every gate sits at 0.5
    h, tape = lstm_forward(params, [[[2.0]], [[0.0]]])
    c0, c1 = tape.c[1, 0, 0], tape.c[2, 0, 0]
    assert c0 == pytest.approx(0.5 * math.tanh(2.0), abs=1e-16)
    assert c1 == pytest.approx(0.5 * c0, abs=0)
    assert h[1, 0, 0] == pytest.approx(math.tanh(c1) * 0.5, abs=1e-15)


def test_lstm_forward_is_pure():
    rng = Rng(11)
    _, params = make_layer(4, 2, 3, rng)
    x = rng.standard_normal((4, 2, 2))
    h1, t1 = lstm_forward(params, x)
    h2, t2 = lstm_forward(params, x)
    assert np.array_equal(h1, h2) and np.array_equal(t1.c, t2.c)
    assert np.array_equal(t1.gates, t2.gates)


def test_gru_zero_params():
    _, params = make_layer(3, 2, 2)
    h, tape = gru_forward(params, [[[1.0, 2.0]]])
    assert np.array_equal(tape.gates[:, :2], np.full((1, 2, 1, 2), 0.5))
    assert np.array_equal(h, np.zeros((1, 1, 2)))


def test_gru_zero_params_halves_prev_state():
    _, params = make_layer(3, 1, 1)
    params.kernel[0, 2] = 1.0              # candidate sees x; r and z sit at 0.5
    h, _ = gru_forward(params, [[[0.8]], [[0.0]]])
    assert h[0, 0, 0] == pytest.approx(0.5 * math.tanh(0.8), abs=1e-15)
    assert h[1, 0, 0] == pytest.approx(0.5 * h[0, 0, 0], abs=1e-15)


def test_gru_saturated_update_gate_passes_candidate():
    rng = Rng(13)
    _, params = make_layer(3, 3, 4, rng)
    params.bias[4:8] = 100.0
    h, tape = gru_forward(params, rng.standard_normal((3, 2, 3)))
    np.testing.assert_allclose(h, tape.gates[:, 2], atol=1e-12)


@given(st.integers(0, 10_000))
def test_gates_stay_in_open_unit_interval(seed):
    rng = Rng(seed)
    _, lp = make_layer(4, 2, 3, rng)
    _, gp = make_layer(3, 2, 3, rng)
    x = rng.uniform(-3, 3, size=(3, 2, 2))
    lh, ltape = lstm_forward(lp, x)
    _, gtape = gru_forward(gp, x)
    assert np.all((ltape.gates[:, :3] > 0) & (ltape.gates[:, :3] < 1))
    assert np.all((gtape.gates[:, :2] > 0) & (gtape.gates[:, :2] < 1))
    assert np.all(np.abs(lh) < 1)    # tanh output times a gate


def test_backward_zero_gradient_gives_zero():
    rng = Rng(11)
    _, params = make_layer(4, 2, 3, rng)
    gflat, grad = make_layer(4, 2, 3)
    gflat += np.nan                        # every entry must be written
    _, tape = lstm_forward(params, rng.standard_normal((3, 2, 2)))
    dx = lstm_backward(params, tape, np.zeros((3, 2, 3)), grad)
    assert np.all(gflat == 0) and np.all(dx == 0)

    _, gparams = make_layer(3, 3, 4, rng)
    gflat, ggrad = make_layer(3, 3, 4)
    gflat += np.nan
    _, gtape = gru_forward(gparams, rng.standard_normal((3, 2, 3)))
    gdx = gru_backward(gparams, gtape, np.zeros((3, 2, 4)), ggrad)
    assert np.all(gflat == 0) and np.all(gdx == 0)


def test_a_growing_buffer_lets_its_old_flat_go_first():
    """A flat too small for the view asked for, or for its reserve, is
    freed before the larger one is made, unless a caller still holds a
    view of it, which keeps its values."""
    ws = {}
    tracemalloc.start()
    try:
        cells.buffer(ws, "a", (1 << 18,), np.float32)[...] = 1.0       # 1 MiB
        tracemalloc.reset_peak()
        cells.buffer(ws, "a", (1 << 19,), np.float32)                  # 2 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20
    held = ws["a"]
    held[...] = 2.0
    cells.buffer(ws, "a", (1 << 20,), np.float32)
    assert ws["a"].base is not held.base and np.all(held == 2.0)
    assert cells.buffer(ws, "a", (4,), np.float32, 1 << 21).base.size == 1 << 21


def _fd_check(forward, backward, n_gates, activation, seed, units, input_dim,
              steps=3, batch=2, tol=1e-5):
    """Loss = sum_t w_t . h_t over a window; check dparams and dx."""
    rng = Rng(seed)
    flat, params = make_layer(n_gates, input_dim, units, rng)
    x = rng.standard_normal((steps, batch, input_dim))
    w = rng.standard_normal((steps, batch, units))

    def loss():
        h, _ = forward(params, x, activation)
        return float(np.sum(w * h))

    _, tape = forward(params, x, activation)
    gflat, grad = make_layer(n_gates, input_dim, units)
    dx = backward(params, tape, w, grad)
    for name, analytic, target in (("params", gflat, flat), ("x", dx, x)):
        numeric = central_differences(loss, target)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("seed", [3, 17])
def test_lstm_gradients_match_finite_differences(activation, seed):
    _fd_check(lstm_forward, lstm_backward, 4, activation, seed, units=3, input_dim=2)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("seed", [5, 23])
def test_gru_gradients_match_finite_differences(activation, seed):
    _fd_check(gru_forward, gru_backward, 3, activation, seed, units=4, input_dim=3)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradients_match_finite_differences_in_one_step_spans(monkeypatch, kind, activation):
    monkeypatch.setattr(cells, "SPAN_BYTES", 1)
    if kind == "lstm":
        _fd_check(lstm_forward, lstm_backward, 4, activation, 3, units=3, input_dim=2)
    else:
        _fd_check(gru_forward, gru_backward, 3, activation, 5, units=4, input_dim=3)


def test_spans_at_the_paper_shapes():
    """A span is the steps whose (G, B, H) gate blocks fit SPAN_BYTES: at
    gru-lstm1 (batch 46, float32) one GRU 498 step or two LSTM 311 steps,
    with the whole budget reserved; c09's and sine's windows are one span."""
    f32, whole = np.dtype(np.float32), cells.SPAN_BYTES // 4
    assert cells._span(10, 3, 46, 498, f32) == (1, whole)
    assert cells._span(10, 4, 46, 311, f32) == (2, whole)
    assert cells._span(10, 4, 46, 47, f32) == (10, 0)
    assert cells._span(8, 4, 16, 16, f32) == cells._span(8, 3, 16, 16, f32) == (8, 0)
    assert cells._span(10, 4, 46, 47, np.dtype(np.float64)) == (7, whole // 2)
    assert cells._span(3, 4, 46, 4096, f32) == (1, whole)     # a step over the budget still runs


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("span", [1, 2], ids=["1-step", "2-step-ragged"])
def test_spans_give_the_bytes_of_one_span(monkeypatch, kind, activation, span):
    """T = 5 in spans of 1 step, or of 2, 2 and a ragged 1: the weight
    gradients and dL/dx are the bytes of one span over the window, and the
    factors' scratch stays within the budget."""
    n_gates, forward, backward = ((4, lstm_forward, lstm_backward) if kind == "lstm"
                                  else (3, gru_forward, gru_backward))
    rng = Rng(47)
    steps, batch, units, input_dim = 5, 3, 4, 2
    _, params = make_layer(n_gates, input_dim, units, rng)
    params = LayerParams(*(a.astype(np.float32) for a in params))
    x = rng.standard_normal((steps, batch, input_dim)).astype(np.float32)
    dh = rng.standard_normal((steps, batch, units)).astype(np.float32)

    def run(ws):
        _, tape = forward(params, x, activation, True, ws)
        grad = LayerParams(*(np.empty_like(a) for a in params))
        dx = backward(params, tape, dh, grad, ws)
        return b"".join(a.tobytes() for a in (*grad, dx))

    one_span = run({})
    budget = span * n_gates * batch * units * 4
    monkeypatch.setattr(cells, "SPAN_BYTES", budget)
    assert cells._span(steps, n_gates, batch, units, np.dtype(np.float32))[0] == span
    ws = {}
    assert run(ws) == one_span
    assert ws["q"].base.nbytes <= budget


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("span", [5, 1, 2], ids=["one-span", "1-step", "2-step-ragged"])
def test_a_last_step_dh_gives_the_bytes_of_a_zero_padded_one(monkeypatch, kind, activation,
                                                             span):
    """A (B, H) dh, the head's, gives the weight gradients and dL/dx of the
    (T, B, H) dh that is zero before its last step, bytes and signed zeros
    alike, in one span and in several; a wrong-sized row is rejected."""
    n_gates, forward, backward = ((4, lstm_forward, lstm_backward) if kind == "lstm"
                                  else (3, gru_forward, gru_backward))
    rng = Rng(53)
    steps, batch, units, input_dim = 5, 3, 4, 2
    _, params = make_layer(n_gates, input_dim, units, rng)
    params = LayerParams(*(a.astype(np.float32) for a in params))
    x = rng.standard_normal((steps, batch, input_dim)).astype(np.float32)
    last = rng.standard_normal((batch, units)).astype(np.float32)
    last[:, ::2] = -0.0
    padded = np.zeros((steps, batch, units), dtype=np.float32)
    padded[-1] = last
    monkeypatch.setattr(cells, "SPAN_BYTES", span * n_gates * batch * units * 4)
    got = []
    for dh in (padded, last):
        _, tape = forward(params, x, activation, True, {})
        grad = LayerParams(*(np.empty_like(a) for a in params))
        dx = backward(params, tape, dh, grad, {})
        got.append(b"".join(a.tobytes() for a in (*grad, dx)))
    assert got[0] == got[1]
    with pytest.raises(ShapeError, match="dh shape"):
        backward(params, tape, last[:, :-1], grad)


def test_a_tape_holds_nothing_backward_rebuilds():
    """Backward rebuilds act(c_t) from c and r * h_{t-1} from r and h, so
    the tapes hold neither, and a forward keeps no other per-step array:
    its scratch holds no (T, B, H) array."""
    assert LstmTape._fields == ("x", "h", "c", "gates", "activation")
    assert GruTape._fields == ("x", "h", "gates", "activation")
    rng = Rng(19)
    steps, batch, units = 4, 3, 5
    x = rng.standard_normal((steps, batch, 2))
    for n_gates, forward, names in ((4, lstm_forward, {"h", "c", "gates"}),
                                    (3, gru_forward, {"h", "gates"})):
        _, params = make_layer(n_gates, 2, units, rng)
        ws = {"scratch": {}}
        forward(params, x, "tanh", True, ws)
        assert set(ws) == {"scratch", *names}
        assert all(a.shape != (steps, batch, units) for a in ws["scratch"].values())


@pytest.mark.parametrize("kind", ["lstm", "gru"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("input_dim", [2, 9], ids=["narrow", "wider-than-gates"])
def test_dx_is_written_over_the_spent_gate_tape(kind, activation, input_dim):
    """With the forward's workspace, backward writes dL/dx over the tape's
    gates, growing their flat when the input is wider than the gate rows
    (9 > G * 2); stand-alone, with no workspace, it leaves the tape alone.
    Both give the same bytes of gradients and dL/dx."""
    n_gates, forward, backward = ((4, lstm_forward, lstm_backward) if kind == "lstm"
                                  else (3, gru_forward, gru_backward))
    rng = Rng(59)
    steps, batch, units = 5, 3, 2
    _, params = make_layer(n_gates, input_dim, units, rng)
    params = LayerParams(*(a.astype(np.float32) for a in params))
    x = rng.standard_normal((steps, batch, input_dim)).astype(np.float32)
    dh = rng.standard_normal((steps, batch, units)).astype(np.float32)
    got = []
    for ws in ({}, None):
        _, tape = forward(params, x, activation, True, ws)
        gates = tape.gates.copy()
        grad = LayerParams(*(np.empty_like(a) for a in params))
        dx = backward(params, tape, dh, grad, ws)
        got.append(b"".join(a.tobytes() for a in (*grad, dx)))
        if ws is None:
            assert tape.gates.tobytes() == gates.tobytes()
        elif input_dim < n_gates * units:
            assert np.shares_memory(dx, tape.gates)
        else:
            assert dx is ws["gates"] and dx.base.size == x.size
            assert forward(params, x, activation, True, ws)[1].gates.base is dx.base
    assert got[0] == got[1]


def test_lstm_cell_state_gradient_includes_forget_path():
    """With no recurrent weights, x_0 reaches h_1 only through c_0 and f_1."""
    rng = Rng(31)
    _, params = make_layer(4, 2, 2, rng)
    params.recurrent[...] = 0.0
    x = rng.standard_normal((2, 1, 2))
    dh = np.zeros((2, 1, 2))
    dh[1] = [1.0, -2.0]
    _, tape = lstm_forward(params, x)
    _, grad = make_layer(4, 2, 2)
    dx = lstm_backward(params, tape, dh, grad)

    numeric = central_differences(lambda: float(np.sum(dh * lstm_forward(params, x)[0])), x)
    assert np.all(np.abs(dx[0]) > 1e-6)
    np.testing.assert_allclose(dx, numeric, rtol=1e-6, atol=1e-10)


def test_shape_errors():
    _, params = make_layer(4, 2, 3)
    with pytest.raises(ShapeError):
        lstm_forward(params, np.zeros((1, 1, 3)))
    _, gparams = make_layer(3, 2, 3)
    with pytest.raises(ShapeError):
        gru_forward(gparams, np.zeros((1, 2)))
    _, tape = gru_forward(gparams, np.zeros((1, 1, 2)))
    assert isinstance(tape, GruTape)
    with pytest.raises(ShapeError):
        lstm_backward(params, tape, np.zeros((1, 1, 3)), params)
    with pytest.raises(ValueError):
        lstm_forward(params, np.zeros((1, 1, 2)), "sigmoid")
