"""Stacked recurrent networks with a linear head and full BPTT.

A network is an ordered stack of LSTM/GRU layers (hybrids freely mix the
two; a "single-layer" GRU-LSTM hybrid is the two-layer stack [GRU, LSTM])
followed by one dense linear unit applied to the top layer's hidden state
at the final timestep.  Initial hidden/cell states are zero for every
window; windows are independent samples, not a continuous stream.

Parameters live in one contiguous vector, `NetworkParams.flat`, laid out as

    for each layer: kernel (D, G*H), recurrent (H, G*H), bias (G*H,)
    then:           head_w (output_dim, H_top), head_b (output_dim,)

each row-major (see `cells.py` for the fused gate layout).  Gradients are
a second NetworkParams with the same layout, so an optimizer step is a few
ufuncs over flat arrays.  The dtype of `flat`, float32 or float64 (one of
DTYPES), is the network's compute dtype: the windows, the tape, dL/dpred
and the gradients are all cast to it or made in it.

`forward_batch` runs a (batch, lookback, features) stack of windows one
layer at a time over the whole window and records a ForwardTape, which
`backward` consumes to write exact gradients, summed over timesteps,
straight into the gradient vector.  `predict_batch` keeps no tape.
Both `forward_batch` and `backward` take an optional workspace (a dict;
see `cells.py`) and give each layer its own part of it, so a training
loop that passes one workspace to every step reuses the tape's and the
backward's arrays; the tape is then valid until the next forward.

Checkpoints (format version 1) are a single self-describing file: a JSON
header line (format version, layer kinds/units/activations, optional
metadata such as lookback and feature names, tensor manifest) followed by
the raw float64 little-endian tensor data, tensor by tensor in
`NetworkParams.tensors()` order.  That order and its per-gate names are the
ones of the original per-gate containers; each name maps to a view of the
flat vector:

    layer{l}.v_g  (H, D)   kernel[:, block g].T
    layer{l}.w_g  (H, H)   recurrent[:, block g].T
    layer{l}.b_g  (H,)     bias[block g]
    head.w, head.b

with g running over f, i, o, c (LSTM) or r, z, c (GRU).  float32 weights
are written upcast, which is exact, and the header's `extra` records
`"dtype": "float32"` so that they load back in float32.  A header without
that key loads as float64, so float64 checkpoints keep the bytes they had
before float32 existed.  Round-trips are bit-exact in both dtypes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cells import (
    ACTIVATIONS,
    GRU_GATES,
    LSTM_GATES,
    LayerParams,
    buffer,
    gru_backward,
    gru_forward,
    lstm_backward,
    lstm_forward,
)
from .data import check_type, write_atomic
from .numerics import Rng, ShapeError, glorot_uniform

MODEL_FORMAT = "grnn-model"
MODEL_VERSION = 1

CELL_KINDS = ("lstm", "gru")
GATES = {"lstm": LSTM_GATES, "gru": GRU_GATES}
DTYPES = {"float32": np.dtype(np.float32), "float64": np.dtype(np.float64)}


class ModelFormatError(ValueError):
    """Checkpoint file is not a readable model of a supported version."""


@dataclass(frozen=True)
class LayerSpec:
    cell_kind: str          # "lstm" | "gru"
    units: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.cell_kind not in CELL_KINDS:
            raise ValueError(f"cell_kind must be one of {CELL_KINDS}, got {self.cell_kind!r}")
        if check_type(self.units, int, "units") < 1:
            raise ValueError(f"units must be >= 1, got {self.units}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    input_dim: int
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a network needs at least one recurrent layer")
        if min(check_type(self.input_dim, int, "input_dim"),
               check_type(self.output_dim, int, "output_dim")) < 1:
            raise ValueError("input_dim and output_dim must be >= 1")

    def layer_input_dims(self):
        """Input width of each layer: features, then the previous layer's units."""
        dims = [self.input_dim]
        for spec in self.layers[:-1]:
            dims.append(spec.units)
        return dims


def _tensor_shapes(spec: NetworkSpec):
    """Shapes of the flat vector's pieces, in order: per layer kernel,
    recurrent, bias; then the head's weight and bias."""
    for layer, in_dim in zip(spec.layers, spec.layer_input_dims()):
        width = len(GATES[layer.cell_kind]) * layer.units
        yield (in_dim, width)
        yield (layer.units, width)
        yield (width,)
    yield (spec.output_dim, spec.layers[-1].units)
    yield (spec.output_dim,)


class NetworkParams:
    """All weights of a network in one flat vector, float32 or float64.

    `layers[l]` is a LayerParams of views into `flat`, and `head_w`
    (output_dim, top_units) and `head_b` (output_dim,) are views too, so
    writing through any of them changes `flat`.  Gradients are a second
    NetworkParams of the same spec and dtype.  Without `flat` the vector is
    zeros of `dtype`; a given `flat` brings its own dtype.  Only the spec
    and `flat` are pickled; the views are rebuilt on unpickling.
    """

    def __init__(self, spec: NetworkSpec, flat: np.ndarray | None = None,
                 dtype=np.float64):
        shapes = list(_tensor_shapes(spec))
        size = sum(map(math.prod, shapes))
        if flat is None:
            flat = np.zeros(size, dtype=dtype)
        if flat.shape != (size,) or flat.dtype not in DTYPES.values():
            raise ShapeError(f"flat parameters {flat.dtype}{flat.shape}, "
                             f"expected float32 or float64 ({size},)")
        self.spec = spec
        self.flat = flat
        views, offset = [], 0
        for shape in shapes:
            views.append(flat[offset:offset + math.prod(shape)].reshape(shape))
            offset += math.prod(shape)
        *layer_views, self.head_w, self.head_b = views
        self.layers = [LayerParams(*layer_views[k:k + 3]) for k in range(0, len(layer_views), 3)]

    def __getstate__(self):
        return {"spec": self.spec, "flat": self.flat}

    def __setstate__(self, state):
        self.__init__(state["spec"], state["flat"])

    @classmethod
    def zeros(cls, spec: NetworkSpec, dtype=np.float64) -> "NetworkParams":
        return cls(spec, dtype=dtype)

    @classmethod
    def init(cls, spec: NetworkSpec, rng: Rng, dtype=np.float64) -> "NetworkParams":
        """Glorot-uniform weights, zero biases.

        Draws follow `tensors()` order (per layer and gate: V, then W; then
        the head), so a seed pins the weights.  The draws are float64 in
        every dtype and rounded on assignment.
        """
        params = cls(spec, dtype=dtype)
        for _, arr in params.tensors():
            if arr.ndim == 2:           # (fan_out, fan_in)
                arr[...] = glorot_uniform(rng, arr.shape[1], arr.shape[0])
        return params

    def tensors(self):
        """Yield (name, view) for every checkpoint tensor, in a fixed order.

        Per layer and gate g: v_g (units, input_dim), w_g (units, units) and
        b_g (units,), the transposed column block of g in kernel, recurrent
        and bias; then head.w and head.b.
        """
        for idx, (layer, p) in enumerate(zip(self.spec.layers, self.layers)):
            units = layer.units
            for k, gate in enumerate(GATES[layer.cell_kind]):
                cols = slice(k * units, (k + 1) * units)
                yield f"layer{idx}.v_{gate}", p.kernel[:, cols].T
                yield f"layer{idx}.w_{gate}", p.recurrent[:, cols].T
                yield f"layer{idx}.b_{gate}", p.bias[cols]
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.spec, self.flat.copy())

    def validate(self, spec: NetworkSpec) -> "NetworkParams":
        if self.spec != spec:
            raise ShapeError("params were built for a different network spec")
        if not np.all(np.isfinite(self.flat)):
            name = next(n for n, arr in self.tensors() if not np.all(np.isfinite(arr)))
            raise ValueError(f"parameter tensor {name} contains non-finite entries")
        return self


@dataclass
class ForwardTape:
    """Each layer's tape plus what the head saw."""

    layers: list                      # layers[l] -> LstmTape | GruTape
    h_last: np.ndarray                # (batch, top_units), head input


def _time_major(spec: NetworkSpec, windows, dtype) -> np.ndarray:
    """Check a (batch, lookback, features) stack; return it as (lookback, batch, features)."""
    windows = np.asarray(windows, dtype=dtype)
    if windows.ndim != 3:
        raise ShapeError(f"windows: expected (batch, lookback, features), got {windows.shape}")
    if windows.shape[2] != spec.input_dim:
        raise ShapeError(f"windows feature dim {windows.shape[2]} != input_dim {spec.input_dim}")
    if windows.shape[1] < 1:
        raise ShapeError("lookback must be >= 1")
    return np.ascontiguousarray(windows.transpose(1, 0, 2))


def _layer_forward(layer: LayerSpec, p: LayerParams, x, keep_tape: bool = True, ws=None):
    forward = lstm_forward if layer.cell_kind == "lstm" else gru_forward
    return forward(p, x, layer.activation, keep_tape, ws)


def _layer_ws(ws: dict, index: int) -> dict:
    """Layer `index`'s part of a network workspace."""
    return ws.setdefault(f"layer{index}", {})


def forward_batch(spec: NetworkSpec, params: NetworkParams, windows,
                  ws: dict | None = None) -> tuple[np.ndarray, ForwardTape]:
    """Run a (batch, lookback, features) stack of windows. Returns (preds, tape).

    The tape's arrays live in `ws` (a fresh workspace when None) and stay
    valid only until the next forward on the same workspace.
    """
    ws = {} if ws is None else ws
    x = _time_major(spec, windows, params.flat.dtype)
    tapes = []
    for l, (layer, p) in enumerate(zip(spec.layers, params.layers)):
        x, tape = _layer_forward(layer, p, x, ws=_layer_ws(ws, l))
        tapes.append(tape)
    h_last = x[-1]
    preds = h_last @ params.head_w.T + params.head_b
    return preds, ForwardTape(layers=tapes, h_last=h_last)


def predict_batch(spec: NetworkSpec, params: NetworkParams, windows) -> np.ndarray:
    """Predictions for many windows, with no tape. Returns (n, output_dim).

    Each layer keeps only its input, its outputs, its x K + b block (the
    gates are computed in place there) and one step of state.
    """
    dtype = params.flat.dtype
    windows = np.asarray(windows, dtype=dtype)
    if windows.size == 0:
        return np.zeros((0, spec.output_dim), dtype=dtype)
    x = _time_major(spec, windows, dtype)
    for layer, p in zip(spec.layers, params.layers):
        x, _ = _layer_forward(layer, p, x, keep_tape=False)
    return x[-1] @ params.head_w.T + params.head_b


def backward(spec: NetworkSpec, params: NetworkParams, tape: ForwardTape, dpred,
             grads: NetworkParams | None = None, ws: dict | None = None) -> NetworkParams:
    """Full-unrolled BPTT from dL/dprediction; returns the gradients, summed over timesteps.

    The gradients are written into `grads` (a fresh NetworkParams of `spec`
    when None); every element is overwritten, so a training loop can pass
    the same container each step.  `ws` is the workspace the tape's forward
    used, or any other: backward adds its own arrays under names the
    forward does not use.  The tape must come from the latest forward on
    its workspace.
    """
    dtype = params.flat.dtype
    dpred = np.asarray(dpred, dtype=dtype)
    if dpred.ndim == 1:
        dpred = dpred[None, :]
    batch = tape.h_last.shape[0]
    if dpred.shape != (batch, spec.output_dim):
        raise ShapeError(f"dpred shape {dpred.shape}, expected {(batch, spec.output_dim)}")
    if grads is None:
        grads = NetworkParams.zeros(spec, dtype)
    elif grads.spec != spec or grads.flat.dtype != dtype:
        raise ShapeError("grads were built for a different network spec or dtype")
    ws = {} if ws is None else ws

    np.matmul(dpred.T, tape.h_last, out=grads.head_w)
    np.sum(dpred, axis=0, out=grads.head_b)
    dh = buffer(ws, "dh_top", tape.layers[-1].h[1:].shape, dtype)
    dh[:-1] = 0.0
    np.matmul(dpred, params.head_w, out=dh[-1])
    for l in reversed(range(len(spec.layers))):
        layer_backward = lstm_backward if spec.layers[l].cell_kind == "lstm" else gru_backward
        dh = layer_backward(params.layers[l], tape.layers[l], dh, grads.layers[l],
                            _layer_ws(ws, l), input_grad=l > 0)
    return grads


def save_model(path, spec: NetworkSpec, params: NetworkParams, extra: dict | None = None) -> None:
    """Write a self-describing checkpoint atomically; see the module docstring
    for the layout.

    `extra["dtype"]` is set from the parameters (left out for float64).
    """
    params.validate(spec)
    extra = {k: v for k, v in (extra or {}).items() if k != "dtype"}
    if params.flat.dtype != np.float64:
        extra["dtype"] = params.flat.dtype.name
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in params.tensors()]
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spec": {
            "input_dim": spec.input_dim,
            "output_dim": spec.output_dim,
            "layers": [
                {"kind": l.cell_kind, "units": l.units, "activation": l.activation}
                for l in spec.layers
            ],
        },
        "extra": extra,
        "tensors": manifest,
    }

    def write(fh):
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in params.tensors():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    write_atomic(path, write, "wb")


def load_model(path) -> tuple[NetworkSpec, NetworkParams, dict]:
    """Read a checkpoint written by save_model. Returns (spec, params, extra).

    The parameters come back in the dtype `extra` records (float64 when it
    records none).  Anything that is not such a checkpoint raises
    ModelFormatError naming the file.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: not a model file ({exc})") from None
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object")
    if header.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: format {header.get('format')!r} is not {MODEL_FORMAT!r}")
    if header.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"{path}: version {header.get('version')!r}, expected {MODEL_VERSION}")
    try:
        spec = NetworkSpec(
            layers=tuple(LayerSpec(l["kind"], l["units"], l["activation"])
                         for l in header["spec"]["layers"]),
            input_dim=header["spec"]["input_dim"],
            output_dim=header["spec"]["output_dim"],
        )
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise ModelFormatError(f"{path}: header 'extra' is not a JSON object")
    dtype = extra.get("dtype", "float64")
    if not isinstance(dtype, str) or dtype not in DTYPES:
        raise ModelFormatError(f"{path}: dtype {dtype!r} is not one of {sorted(DTYPES)}")

    params = NetworkParams.zeros(spec, DTYPES[dtype])
    expected = [(name, arr.shape) for name, arr in params.tensors()]
    if manifest != expected:
        raise ModelFormatError(f"{path}: tensor manifest does not match the network spec")
    nbytes = params.flat.size * 8           # float64 on disk in every dtype
    if len(blob) != nbytes:
        problem = "truncated" if len(blob) < nbytes else "trailing bytes"
        raise ModelFormatError(f"{path}: {problem}: {len(blob)} bytes of tensor data, "
                               f"expected {nbytes}")
    data = np.frombuffer(blob, dtype="<f8")
    offset = 0
    for _, arr in params.tensors():
        arr[...] = data[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    if not np.all(np.isfinite(params.flat)):
        raise ModelFormatError(f"{path}: tensor data contains non-finite values")
    return spec, params, extra
