import json
import pickle
import tracemalloc

import numpy as np
import pytest
from helpers import central_differences, mse

from grnn import cells, network
from grnn.cells import lstm_forward
from grnn.network import (
    LayerSpec,
    ModelFormatError,
    NetworkParams,
    NetworkSpec,
    PartGradients,
    backward,
    forward_batch,
    load_model,
    predict_batch,
    save_model,
)
from grnn.numerics import Rng, ShapeError, glorot_uniform


def small_spec(*layers, input_dim=2):
    return NetworkSpec(layers=tuple(layers), input_dim=input_dim)


def test_zero_params_predict_zero():
    spec = small_spec(LayerSpec("lstm", 4), input_dim=3)
    params = NetworkParams.zeros(spec)
    pred, _ = forward_batch(spec, params, np.ones((1, 5, 3)))
    assert np.array_equal(pred, np.zeros((1, 1)))


def test_single_layer_lookback_one_equals_cell_plus_head():
    rng = Rng(2)
    spec = small_spec(LayerSpec("lstm", 3), input_dim=2)
    params = NetworkParams.init(spec, rng)
    x = rng.standard_normal(2)
    pred, _ = forward_batch(spec, params, x[None, None, :])
    h, _ = lstm_forward(params.layers[0], x[None, None, :])
    expected = h[-1] @ params.head_w.T + params.head_b
    np.testing.assert_array_equal(pred, expected)


def test_hybrid_forward_shapes_and_tape():
    rng = Rng(3)
    spec = small_spec(LayerSpec("gru", 2), LayerSpec("lstm", 3), input_dim=4)
    params = NetworkParams.init(spec, rng)
    window = rng.standard_normal((6, 4))
    pred, tape = forward_batch(spec, params, window[None])
    assert pred.shape == (1, 1) and np.isfinite(pred).all()
    assert len(tape.layers) == 2
    assert tape.layers[0].h.shape == (7, 1, 2) and tape.layers[0].gates.shape == (6, 3, 1, 2)
    assert tape.layers[1].h.shape == (7, 1, 3) and tape.layers[1].gates.shape == (6, 4, 1, 3)
    np.testing.assert_array_equal(tape.h_last, tape.layers[1].h[-1])


def test_backward_zero_gradient():
    rng = Rng(4)
    spec = small_spec(LayerSpec("lstm", 2), LayerSpec("gru", 2))
    params = NetworkParams.init(spec, rng)
    _, tape = forward_batch(spec, params, rng.standard_normal((1, 3, 2)))
    grads = backward(spec, params, tape, np.zeros(1))
    assert all(np.all(arr == 0) for _, arr in grads.tensors())


def fd_network_grads(spec, params, window, target):
    """Central differences over the flat vector, as a NetworkParams."""
    flat = central_differences(
        lambda: mse(forward_batch(spec, params, window[None])[0], target), params.flat)
    return dict(NetworkParams(spec, flat).tensors())


@pytest.mark.parametrize("layers", [
    (LayerSpec("lstm", 3),),
    (LayerSpec("lstm", 2), LayerSpec("gru", 2)),
    (LayerSpec("gru", 2, "relu"), LayerSpec("lstm", 2, "relu")),
    (LayerSpec("lstm", 3, "relu"),),
    (LayerSpec("gru", 3),),
    (LayerSpec("gru", 3, "relu"),),
    (LayerSpec("gru", 2), LayerSpec("lstm", 3)),
    (LayerSpec("lstm", 2, "relu"), LayerSpec("gru", 3, "relu")),
    (LayerSpec("lstm", 2), LayerSpec("gru", 3), LayerSpec("lstm", 2)),
])
def test_bptt_matches_finite_differences(layers):
    rng = Rng(6)
    spec = small_spec(*layers, input_dim=2)
    params = NetworkParams.init(spec, rng)
    window = rng.standard_normal((3, 2))
    target = np.array([0.4])
    pred, tape = forward_batch(spec, params, window[None])
    analytic = backward(spec, params, tape, 2.0 * (pred - target))
    numeric = fd_network_grads(spec, params, window, target)
    for name, a in analytic.tensors():
        np.testing.assert_allclose(a, numeric[name], rtol=1e-5, atol=1e-8,
                                   err_msg=name)


def test_predict_batch_contracts():
    rng = Rng(7)
    spec = small_spec(LayerSpec("gru", 3), input_dim=2)
    params = NetworkParams.init(spec, rng)
    assert predict_batch(spec, params, np.zeros((0, 4, 2))).shape == (0, 1)

    # an empty stack is shape-checked like any other, as forward_batch checks it
    three = small_spec(LayerSpec("lstm", 2), input_dim=3)
    tp = NetworkParams.init(three, rng, np.float32)
    for bad in ((5, 0, 3), (5, 4, 0), (0, 5, 7)):
        for run in (predict_batch, forward_batch):
            with pytest.raises(ShapeError):
                run(three, tp, np.zeros(bad))
    empty = predict_batch(three, tp, np.zeros((0, 5, 3)))
    assert empty.shape == (0, 1) and empty.dtype == np.float32

    windows = rng.standard_normal((5, 4, 2))
    windows[3] = windows[1]
    preds = predict_batch(spec, params, windows)
    assert np.array_equal(preds[3], preds[1])

    singles = np.array([forward_batch(spec, params, w[None])[0][0] for w in windows])
    np.testing.assert_allclose(preds, singles, rtol=1e-12, atol=1e-15)

    # without a tape, the same arithmetic as the training forward pass
    for layers in ((LayerSpec("gru", 3, "relu"), LayerSpec("lstm", 4)),
                   (LayerSpec("lstm", 3), LayerSpec("gru", 2, "relu"))):
        hybrid = small_spec(*layers, input_dim=2)
        hp = NetworkParams.init(hybrid, rng)
        np.testing.assert_array_equal(predict_batch(hybrid, hp, windows),
                                      forward_batch(hybrid, hp, windows)[0])


def record_chunks(monkeypatch, budget=None, compute=True):
    """Set the chunk budget (bytes) if given, and return the list that
    collects the window count of every layer call predict_batch makes.
    With compute=False the layers are stand-ins that return zeros."""
    if budget is not None:
        monkeypatch.setattr(network, "PREDICT_CHUNK_BYTES", budget)
    calls = []
    real = network._layer_forward

    def layer_forward(layer, p, x, *args, **kwargs):
        calls.append(x.shape[1])
        if compute:
            return real(layer, p, x, *args, **kwargs)
        return np.zeros((x.shape[0], x.shape[1], layer.units), x.dtype), None

    monkeypatch.setattr(network, "_layer_forward", layer_forward)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [(("lstm", 6),), (("gru", 8),), (("gru", 8), ("lstm", 6))],
                         ids=lambda layers: "-".join(kind for kind, _ in layers))
def test_chunked_predictions_are_bytes_of_one_pass(monkeypatch, layers, dtype):
    """Chunks change only how many rows each GEMM takes at once.  At these
    widths BLAS computes a row the same way whatever the row count; the
    test does not cover widths, dtypes or row counts at which BLAS
    switches kernel or blocking, where chunks can change the last bits
    (see network.py)."""
    rng = Rng(42)
    spec = small_spec(*(LayerSpec(*layer) for layer in layers), input_dim=3)
    params = NetworkParams.init(spec, rng, dtype)
    # 8 windows of 4 steps of 24 gate columns, the LSTM's 4 x 6 and the GRU's 3 x 8
    calls = record_chunks(monkeypatch, 8 * 4 * 24 * np.dtype(dtype).itemsize)
    expected = {1: [1], 7: [7], 8: [8], 9: [5, 4], 19: [7, 6, 6]}
    for n, sizes in expected.items():
        windows = rng.standard_normal((n, 4, 3))
        one_pass = forward_batch(spec, params, windows)[0]
        calls.clear()
        assert predict_batch(spec, params, windows).tobytes() == one_pass.tobytes(), n
        assert calls[::len(layers)] == sizes, n


def test_predict_memory_does_not_grow_with_the_windows(monkeypatch):
    chunk = 64
    spec = small_spec(LayerSpec("gru", 24), LayerSpec("lstm", 16), input_dim=8)
    params = NetworkParams.init(spec, Rng(43), np.float32)
    # 64 windows of 10 steps of the GRU's 72 gate columns
    calls = record_chunks(monkeypatch, chunk * 10 * 72 * 4)
    windows = np.random.default_rng(43).standard_normal((4 * chunk, 10, 8)).astype(np.float32)

    def peak(n):
        predict_batch(spec, params, windows[:n])
        calls.clear()
        tracemalloc.start()
        try:
            predict_batch(spec, params, windows[:n])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    four = peak(len(windows))
    assert calls[::2] == [chunk] * 4
    assert four <= 1.25 * peak(chunk)


def test_widest_layer_sets_the_chunks(monkeypatch):
    """720 test windows at gru-lstm1, whose GRU 498 has the widest x K + b
    rows, go as 3 chunks in float32 and 5 in float64 under the 20 MiB
    budget; a layer whose one window exceeds the budget runs window by window."""
    spec = small_spec(LayerSpec("gru", 498), LayerSpec("lstm", 311), input_dim=8)
    calls = record_chunks(monkeypatch, compute=False)
    windows = np.zeros((720, 10, 8))
    for dtype, sizes in ((np.float32, [240] * 3), (np.float64, [144] * 5)):
        calls.clear()
        predict_batch(spec, NetworkParams.zeros(spec, dtype), windows)
        assert calls[::2] == sizes
    calls = record_chunks(monkeypatch, budget=1, compute=False)
    predict_batch(spec, NetworkParams.zeros(spec, np.float32), windows[:3])
    assert calls[::2] == [1, 1, 1]


def test_batched_forward_matches_single():
    rng = Rng(8)
    spec = small_spec(LayerSpec("lstm", 3), LayerSpec("gru", 2), input_dim=3)
    params = NetworkParams.init(spec, rng)
    windows = rng.standard_normal((4, 5, 3))
    batch_preds, _ = forward_batch(spec, params, windows)
    for i in range(4):
        single, _ = forward_batch(spec, params, windows[i][None])
        np.testing.assert_allclose(batch_preds[i], single[0], rtol=1e-12, atol=1e-15)


def test_hybrid_with_zeroed_lstm_block_reduces_to_head_bias():
    rng = Rng(9)
    spec = small_spec(LayerSpec("gru", 3), LayerSpec("lstm", 2), input_dim=2)
    params = NetworkParams.init(spec, rng)
    for arr in params.layers[1]:
        arr[...] = 0.0
    params.head_b[:] = 0.77
    pred, _ = forward_batch(spec, params, rng.standard_normal((1, 4, 2)))
    assert pred[0, 0] == pytest.approx(0.77, abs=0)


def test_model_serialization_round_trip_is_bit_exact(tmp_path):
    rng = Rng(10)
    spec = small_spec(LayerSpec("gru", 3), LayerSpec("lstm", 4, "relu"), input_dim=5)
    params = NetworkParams.init(spec, rng)
    extra = {"lookback": 7, "feature_order": ["a", "b", "c", "d", "e"]}
    path = tmp_path / "model.grnn"
    save_model(path, spec, params, extra)

    spec2, params2, extra2 = load_model(path)
    assert spec2 == spec
    assert extra2 == extra
    for (n1, a1), (n2, a2) in zip(params.tensors(), params2.tensors()):
        assert n1 == n2
        assert a1.dtype == a2.dtype == np.float64
        assert np.array_equal(a1, a2)

    path2 = tmp_path / "model2.grnn"
    save_model(path2, spec2, params2, extra2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_format_errors(tmp_path):
    path = tmp_path / "bad.grnn"
    path.write_bytes(b"not a header\n\x00\x01")
    with pytest.raises(ModelFormatError):
        load_model(path)

    rng = Rng(11)
    spec = small_spec(LayerSpec("lstm", 2))
    save_model(path, spec, NetworkParams.init(spec, rng))
    blob = path.read_bytes().replace(b'"version": 1', b'"version": 9')
    path.write_bytes(blob)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_forward_rejects_bad_shapes():
    spec = small_spec(LayerSpec("lstm", 2), input_dim=3)
    params = NetworkParams.zeros(spec)
    with pytest.raises(ShapeError):
        forward_batch(spec, params, np.zeros((1, 4, 2)))
    with pytest.raises(ShapeError):
        forward_batch(spec, params, np.zeros((4, 3)))


def per_gate_predict(spec, arrays, window):
    """Reference forward from per-gate checkpoint tensors, one step and one gate at a time."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    seq = list(window)
    for l, layer in enumerate(spec.layers):
        def pre(gate, x, h):
            a = arrays
            return a[f"layer{l}.v_{gate}"] @ x + a[f"layer{l}.w_{gate}"] @ h + a[f"layer{l}.b_{gate}"]

        act = np.tanh if layer.activation == "tanh" else (lambda v: np.maximum(v, 0.0))
        h = c = np.zeros(layer.units)
        out = []
        for x in seq:
            if layer.cell_kind == "lstm":
                f, i, o = sig(pre("f", x, h)), sig(pre("i", x, h)), sig(pre("o", x, h))
                c = f * c + i * act(pre("c", x, h))
                h = o * act(c)
            else:
                r, z = sig(pre("r", x, h)), sig(pre("z", x, h))
                h = (1.0 - z) * h + z * act(pre("c", x, r * h))
            out.append(h)
        seq = out
    return arrays["head.w"] @ seq[-1] + arrays["head.b"]


def per_gate_tensors(spec):
    """(v, w, b names, units, input_dim) per layer and gate, in checkpoint order."""
    for idx, (layer, in_dim) in enumerate(zip(spec.layers, spec.layer_input_dims())):
        for gate in ("fioc" if layer.cell_kind == "lstm" else "rzc"):
            yield (f"layer{idx}.v_{gate}", f"layer{idx}.w_{gate}", f"layer{idx}.b_{gate}",
                   layer.units, in_dim)


def test_checkpoint_v1_from_per_gate_arrays_loads_and_resaves_byte_identical(tmp_path):
    spec = small_spec(LayerSpec("gru", 3), LayerSpec("lstm", 4, "relu"), input_dim=2)
    rng = Rng(12)
    arrays = {}
    for v, w, b, units, in_dim in per_gate_tensors(spec):
        arrays[v] = rng.uniform(-0.5, 0.5, size=(units, in_dim))
        arrays[w] = rng.uniform(-0.5, 0.5, size=(units, units))
        arrays[b] = rng.uniform(-0.5, 0.5, size=units)
    arrays["head.w"] = rng.uniform(-0.5, 0.5, size=(1, 4))
    arrays["head.b"] = np.array([0.1])

    header = {
        "format": "grnn-model", "version": 1,
        "spec": {"input_dim": 2, "output_dim": 1, "layers": [
            {"kind": "gru", "units": 3, "activation": "tanh"},
            {"kind": "lstm", "units": 4, "activation": "relu"}]},
        "extra": {"lookback": 5},
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()],
    }
    path = tmp_path / "v1.grnn"
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + b"".join(a.astype("<f8").tobytes() for a in arrays.values()))

    spec2, params, extra = load_model(path)
    assert spec2 == spec and extra == {"lookback": 5}
    assert [n for n, _ in params.tensors()] == list(arrays)
    for name, view in params.tensors():
        np.testing.assert_array_equal(view, arrays[name], err_msg=name)
    window = rng.standard_normal((5, 2))
    np.testing.assert_allclose(forward_batch(spec, params, window[None])[0][0],
                               per_gate_predict(spec, arrays, window), rtol=1e-12, atol=1e-14)

    again = tmp_path / "again.grnn"
    save_model(again, spec, params, extra)
    assert again.read_bytes() == path.read_bytes()


def test_init_matches_per_gate_glorot_draws():
    spec = small_spec(LayerSpec("lstm", 3), LayerSpec("gru", 2), input_dim=4)
    params = NetworkParams.init(spec, Rng(21))
    rng = Rng(21)
    expected = {}
    for v, w, b, units, in_dim in per_gate_tensors(spec):
        expected[v] = glorot_uniform(rng, in_dim, units)
        expected[w] = glorot_uniform(rng, units, units)
        expected[b] = np.zeros(units)
    expected["head.w"] = glorot_uniform(rng, 2, 1)
    expected["head.b"] = np.zeros(1)
    got = dict(params.tensors())
    assert list(got) == list(expected)
    for name in expected:
        np.testing.assert_array_equal(got[name], expected[name], err_msg=name)


def test_pickled_params_keep_their_views_on_flat():
    spec = small_spec(LayerSpec("gru", 2), LayerSpec("lstm", 3))
    params = pickle.loads(pickle.dumps(NetworkParams.init(spec, Rng(5))))
    before = params.flat.copy()
    dict(params.tensors())["layer1.w_o"][0, 1] = 7.0
    params.layers[0].bias[1] = -3.0
    params.head_b[0] = 2.5
    changed = np.flatnonzero(params.flat != before)
    assert changed.size == 3
    assert sorted(params.flat[changed]) == [-3.0, 2.5, 7.0]
    copy = params.copy()
    copy.head_w[0, 0] = 99.0
    assert params.head_w[0, 0] != 99.0 and copy.flat[-4] == 99.0


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("kinds", [("lstm",), ("gru",), ("gru", "lstm"), ("lstm", "gru")],
                         ids="-".join)
def test_float32_gradients_match_float64(kinds, activation):
    """Same weights and windows, exact in float32: the float32 compute stays
    within rtol 1e-3 of float64, tensor by tensor."""
    rng = Rng(31)
    spec = small_spec(*(LayerSpec(kind, 5, activation) for kind in kinds), input_dim=3)
    params = NetworkParams.init(spec, rng)
    for name, arr in params.tensors():
        if ".b_" in name or name == "head.b":       # keep relu pre-activations off the kink
            arr[...] = rng.uniform(-0.4, 0.4, size=arr.shape)
    params.flat[:] = params.flat.astype(np.float32)
    windows = rng.standard_normal((4, 6, 3)).astype(np.float32)
    target = rng.standard_normal((4, 1))

    grads = {}
    for dtype in (np.float64, np.float32):
        p = NetworkParams(spec, params.flat.astype(dtype))
        pred, tape = forward_batch(spec, p, windows)
        assert pred.dtype == dtype
        g = backward(spec, p, tape, 2.0 * (pred - target))
        assert g.flat.dtype == dtype
        grads[dtype] = dict(g.tensors())
    for name, want in grads[np.float64].items():
        np.testing.assert_allclose(grads[np.float32][name], want, rtol=1e-3, atol=0,
                                   err_msg=name)


def test_float32_checkpoint_is_the_float64_one_upcast(tmp_path):
    spec = small_spec(LayerSpec("gru", 3), LayerSpec("lstm", 4, "relu"), input_dim=2)
    params32 = NetworkParams.init(spec, Rng(14), np.float32)
    assert params32.flat.dtype == np.float32
    params64 = NetworkParams(spec, params32.flat.astype(np.float64))
    extra = {"lookback": 5}
    path32, path64 = tmp_path / "f32.grnn", tmp_path / "f64.grnn"
    save_model(path32, spec, params32, extra)
    save_model(path64, spec, params64, extra)

    header32, blob32 = path32.read_bytes().split(b"\n", 1)
    header64, blob64 = path64.read_bytes().split(b"\n", 1)
    assert blob32 == blob64
    assert json.loads(header32)["extra"] == {"lookback": 5, "dtype": "float32"}
    assert json.loads(header64)["extra"] == {"lookback": 5}
    header32 = json.loads(header32)
    del header32["extra"]["dtype"]
    assert header32 == json.loads(header64)

    spec2, loaded, extra2 = load_model(path32)
    assert spec2 == spec and extra2 == {"lookback": 5, "dtype": "float32"}
    assert loaded.flat.dtype == np.float32
    assert loaded.flat.tobytes() == params32.flat.tobytes()
    again = tmp_path / "again.grnn"
    save_model(again, spec2, loaded, extra2)
    assert again.read_bytes() == path32.read_bytes()
    assert load_model(path64)[1].flat.dtype == np.float64


def test_checkpoint_dtype_errors(tmp_path):
    spec = small_spec(LayerSpec("lstm", 2))
    path = tmp_path / "m.grnn"
    save_model(path, spec, NetworkParams.init(spec, Rng(15), np.float32))
    blob = path.read_bytes()
    for bad in (b'"float16"', b'["float32"]'):
        path.write_bytes(blob.replace(b'"float32"', bad))
        with pytest.raises(ModelFormatError, match="dtype"):
            load_model(path)
    path.write_bytes(blob + b"\0" * 4)        # a float32-sized tail is still a tail
    with pytest.raises(ModelFormatError, match="trailing bytes"):
        load_model(path)


def test_dtype_is_checked_where_params_meet():
    spec = small_spec(LayerSpec("lstm", 2))
    with pytest.raises(ShapeError):
        NetworkParams(spec, np.zeros(NetworkParams.zeros(spec).flat.size, dtype=np.float16))
    params = NetworkParams.init(spec, Rng(16), np.float32)
    pred, tape = forward_batch(spec, params, np.ones((2, 3, 2)))
    assert tape.layers[0].x.dtype == np.float32
    assert predict_batch(spec, params, np.ones((2, 3, 2))).dtype == np.float32
    assert backward(spec, params, tape, np.ones((2, 1))).flat.dtype == np.float32
    with pytest.raises(ShapeError, match="dtype"):
        backward(spec, params, tape, np.ones((2, 1)), NetworkParams.zeros(spec))


@pytest.mark.parametrize("kind, units", [("lstm", 5), ("gru", 6)])
def test_layer_workspace_holds_one_recurrent_matrix(kind, units):
    """A network's layers share one `rec`, one `rows` and one `q` buffer,
    each sized for the widest layer (here the middle one): `rec` holds the
    forward's halved recurrent matrix, the backward's transposed copy of
    the whole matrix and, after a GRU's recursion, its r * h_{t-1}.  Each
    layer's own part keeps only its tape, and there is no dL/dx part."""
    other = "gru" if kind == "lstm" else "lstm"
    spec = small_spec(LayerSpec(other, 3), LayerSpec(kind, units), LayerSpec(other, 2),
                      input_dim=3)
    params = NetworkParams.init(spec, Rng(44), np.float32)
    steps, batch, ws = 4, 2, {}
    pred, tape = forward_batch(spec, params, np.ones((batch, steps, 3)), ws)
    backward(spec, params, tape, np.ones_like(pred), None, ws)
    assert set(ws) == {"scratch", "layer0", "layer1", "layer2", "dh_top"}
    scratch = ws["scratch"]
    width = len(network.GATES[kind]) * units
    assert scratch["rec"].base.size == units * width
    assert scratch["rows"].base.size == scratch["q"].base.size == steps * batch * width
    for l in range(3):
        assert set(ws[f"layer{l}"]) <= {"scratch", "h", "c", "gates"}
        assert ws[f"layer{l}"]["scratch"] is scratch


def test_a_step_writes_each_dx_over_its_layers_gate_tape():
    """A training step (forward_batch, then backward handing parts over)
    leaves no dL/dx part: layers 1 and 2 write their dL/dx over their own
    gate tapes, growing layer 2's, whose 7-unit input is wider than its
    one-unit GRU's three gates; layer 0 passes none down, so its tape is
    left as it was.  The next step views the grown flat."""
    rng = Rng(46)
    spec = small_spec(LayerSpec("lstm", 4), LayerSpec("lstm", 7), LayerSpec("gru", 1),
                      input_dim=3)
    params = NetworkParams.init(spec, rng, np.float32)
    grads, ws = PartGradients(spec, np.float32), {}
    windows = rng.standard_normal((5, 4, 3)).astype(np.float32)
    dpred = rng.standard_normal((5, 1)).astype(np.float32)
    _, tape = forward_batch(spec, params, windows, ws)
    gates0 = tape.layers[0].gates.copy()
    backward(spec, params, tape, dpred, grads, ws, lambda part: None)
    assert not [key for key in ws if key.startswith("dx")]
    assert ws["layer0"]["gates"] is tape.layers[0].gates
    assert tape.layers[0].gates.tobytes() == gates0.tobytes()
    dx1, dx2 = ws["layer1"]["gates"], ws["layer2"]["gates"]
    assert dx1.shape == (4, 5, 4) and dx1.base is tape.layers[1].gates.base
    assert dx2.shape == (4, 5, 7) and dx2.base.size == 4 * 5 * 7
    _, tape = forward_batch(spec, params, windows, ws)
    assert tape.layers[2].gates.base is dx2.base


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("kinds", [("lstm",), ("gru",), ("gru", "lstm"), ("lstm", "gru", "lstm")],
                         ids="-".join)
def test_reused_workspace_matches_fresh_ones(kinds, activation):
    """One workspace over batches of 5, 3 and 5 windows (the short batch
    views a prefix of every buffer), its layers of 6, 4 and 5 units sharing
    their scratch: predictions, tapes' outputs and gradients are
    bit-identical to those of calls on fresh workspaces."""
    rng = Rng(41)
    spec = small_spec(*(LayerSpec(kind, units, activation)
                        for kind, units in zip(kinds, (6, 4, 5))), input_dim=3)
    params = NetworkParams.init(spec, rng, np.float32)
    ws, grads = {}, NetworkParams.zeros(spec, np.float32)
    for batch in (5, 3, 5):
        windows = rng.standard_normal((batch, 4, 3)).astype(np.float32)
        dpred = rng.standard_normal((batch, 1)).astype(np.float32)
        pred, tape = forward_batch(spec, params, windows, ws)
        fresh_pred, fresh_tape = forward_batch(spec, params, windows)
        assert pred.tobytes() == fresh_pred.tobytes()
        for layer, fresh in zip(tape.layers, fresh_tape.layers):
            assert layer.h.tobytes() == fresh.h.tobytes()
            assert layer.gates.tobytes() == fresh.gates.tobytes()
        backward(spec, params, tape, dpred, grads, ws)
        assert grads.flat.tobytes() == backward(spec, params, fresh_tape, dpred).flat.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("span", [1, 2], ids=["1-step", "2-step-ragged"])
def test_hybrid_in_spans_matches_one_span(monkeypatch, activation, span):
    """A 3-layer hybrid whose layers have equal gate blocks (LSTM 6, GRU 8,
    LSTM 6) on one workspace over batches of 5, 3 and 5, lookback 5, in
    spans of `span` steps at batch 5: the gradients and each layer's dL/dx
    are the bytes of one span over the window, and the shared factors'
    scratch stays within the budget and is made at the first batch only."""
    rng = Rng(48)
    spec = small_spec(*(LayerSpec(kind, units, activation)
                        for kind, units in (("lstm", 6), ("gru", 8), ("lstm", 6))), input_dim=3)
    params = NetworkParams.init(spec, rng, np.float32)
    batches = [(rng.standard_normal((batch, 5, 3)).astype(np.float32),
                rng.standard_normal((batch, 1)).astype(np.float32)) for batch in (5, 3, 5)]

    def run():
        ws, grads, out, flats = {}, NetworkParams.zeros(spec, np.float32), [], []
        for windows, dpred in batches:
            _, tape = forward_batch(spec, params, windows, ws)
            backward(spec, params, tape, dpred, grads, ws)
            out.append((grads.flat.tobytes(), ws["layer1"]["gates"].tobytes(),
                        ws["layer2"]["gates"].tobytes()))
            flats.append([ws["scratch"][name].base for name in ("q", "keep")])
        return out, flats

    one_span, _ = run()
    block = 24 * 5 * 4                  # a (G, 5, H) float32 block, G*H = 24
    budget = span * block + block // 2  # so batch 3 takes longer spans than batch 5
    monkeypatch.setattr(cells, "SPAN_BYTES", budget)
    spanned, flats = run()
    assert spanned == one_span
    assert flats[0][0].nbytes <= budget
    assert all(a is b for later in flats[1:] for a, b in zip(flats[0], later))


def test_backward_in_parts_gives_the_whole_vectors_bytes_a_part_at_a_time():
    """Three layers, top first: each part handed over is the whole
    vector's range of the same bytes, its views start at the buffer's
    first element, it names its own tensors (the top part also the head's)
    and it is handed over before the layer below overwrites the buffer."""
    rng = Rng(44)
    spec = small_spec(LayerSpec("gru", 5, "relu"), LayerSpec("lstm", 4),
                      LayerSpec("gru", 3), input_dim=2)
    params = NetworkParams.init(spec, rng, np.float32)
    windows = rng.standard_normal((6, 4, 2)).astype(np.float32)
    dpred = rng.standard_normal((6, 1)).astype(np.float32)
    ws = {}
    _, tape = forward_batch(spec, params, windows, ws)
    whole = backward(spec, params, tape, dpred, None, ws)
    grads, seen = PartGradients(spec, np.float32), []

    def take(part):
        assert part.flat.ctypes.data == grads.buffer.ctypes.data
        seen.append((part.start, part.flat.tobytes(), [name for name, _ in part.tensors()]))

    _, tape = forward_batch(spec, params, windows, ws)
    assert backward(spec, params, tape, dpred, grads, ws, take) is grads
    assert [start for start, _, _ in seen] == grads.starts[-2::-1]
    assert grads.buffer.size == max(b - a for a, b in zip(grads.starts, grads.starts[1:]))
    names = [name for name, _ in whole.tensors()]
    for (start, got, part_names), stop in zip(seen, grads.starts[:0:-1]):
        assert got == whole.flat[start:stop].tobytes()
        assert part_names == names[names.index(part_names[0]):][:len(part_names)]
    assert seen[0][2][-2:] == ["head.w", "head.b"] and seen[-1][2][0] == "layer0.v_r"
