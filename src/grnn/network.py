"""Stacked recurrent networks with a linear head and full BPTT.

A network is a stack of LSTM/GRU layers (hybrids mix the two) and one
dense unit on the top layer's hidden state at the last timestep; every
window starts from zero states.

Parameters: one contiguous vector, `NetworkParams.flat`, laid out as

    for each layer: kernel (D, G*H), recurrent (H, G*H), bias (G*H,)
    then:           head_w (1, H_top), head_b (1,)

each row-major (gate layout in `cells.py`).  Gradients share the layout,
either as a second NetworkParams or, in training, a part at a time in one
buffer (`PartGradients`): a part is one layer's three arrays, and the head
joins the top layer's part.  The dtype of `flat` (one of DTYPES) is the
network's compute dtype.

Prediction: `predict_batch` runs the windows in chunks whose x K + b rows
take at most PREDICT_CHUNK_BYTES in the widest layer, so scoring a split
takes memory bounded by the chunk, not by the split; the first layer casts
each chunk to the network's dtype, and the split is never cast whole.
Chunks change only the row count of each GEMM; where BLAS picks its kernel
by that count, a prediction can differ from one pass in its last bits.

Checkpoints (format version 1): one JSON header line (format version,
layers, metadata, tensor manifest) and then the float64 little-endian
tensors in `NetworkParams.tensors()` order, each a view of `flat`:

    layer{l}.v_g  (H, D)   kernel[:, block g].T
    layer{l}.w_g  (H, H)   recurrent[:, block g].T
    layer{l}.b_g  (H,)     bias[block g]
    head.w, head.b

with g over f, i, o, c (LSTM) or r, z, c (GRU).  The header's spec
records `"output_dim": 1`, and a checkpoint with any other is rejected.
float32 weights are written upcast and the header's `extra` records
`"dtype": "float32"`; a header without it loads as float64.  Round-trips
are bit-exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

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
PREDICT_CHUNK_BYTES = 20 << 20      # most bytes of one layer's x K + b rows in predict_batch


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
    """Recurrent layers on `input_dim` features, under one output unit."""

    layers: tuple[LayerSpec, ...]
    input_dim: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a network needs at least one recurrent layer")
        if check_type(self.input_dim, int, "input_dim") < 1:
            raise ValueError("input_dim must be >= 1")

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
    yield (1, spec.layers[-1].units)
    yield (1,)


class _NetworkViews:
    """A network's layers and head as views of one buffer, and their names."""

    def _place(self, spec: NetworkSpec, buf: np.ndarray, offsets) -> None:
        """Views of `buf` at `offsets`, one per tensor in `_tensor_shapes` order."""
        self.spec = spec
        *layer_views, self.head_w, self.head_b = (
            buf[offset:offset + math.prod(shape)].reshape(shape)
            for shape, offset in zip(_tensor_shapes(spec), offsets))
        self.layers = [LayerParams(*layer_views[k:k + 3]) for k in range(0, len(layer_views), 3)]

    def tensors(self):
        """Yield (name, view) for every checkpoint tensor, in a fixed order.

        Per layer and gate g: v_g (units, input_dim), w_g (units, units) and
        b_g (units,), the transposed column block of g in kernel, recurrent
        and bias; then head.w and head.b.
        """
        return _named(self.spec, self.layers, self.head_w, self.head_b, range(len(self.layers)))


def _named(spec: NetworkSpec, layers, head_w, head_b, which):
    """`tensors()` of the layers `which` (indices, in order), with the head
    after the top layer's when the top layer is one of them."""
    top = len(spec.layers) - 1
    for idx in which:
        units, p = spec.layers[idx].units, layers[idx]
        for k, gate in enumerate(GATES[spec.layers[idx].cell_kind]):
            cols = slice(k * units, (k + 1) * units)
            yield f"layer{idx}.v_{gate}", p.kernel[:, cols].T
            yield f"layer{idx}.w_{gate}", p.recurrent[:, cols].T
            yield f"layer{idx}.b_{gate}", p.bias[cols]
        if idx == top:
            yield "head.w", head_w
            yield "head.b", head_b


class NetworkParams(_NetworkViews):
    """All weights of a network in one flat vector, float32 or float64.

    `layers[l]` is a LayerParams of views into `flat`, and `head_w`
    (1, top_units) and `head_b` (1,) are views too, so
    writing through any of them changes `flat`.  Gradients are a second
    NetworkParams of the same spec and dtype, or a PartGradients.  Without
    `flat` the vector is zeros of `dtype`; a given `flat` brings its own
    dtype.  Only the spec and `flat` are pickled; the views are rebuilt on
    unpickling.
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
        self.flat = flat
        self._place(spec, flat, itertools.accumulate(map(math.prod, shapes[:-1]), initial=0))

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

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.spec, self.flat.copy())

    def validate(self, spec: NetworkSpec) -> "NetworkParams":
        if self.spec != spec:
            raise ShapeError("params were built for a different network spec")
        if not np.all(np.isfinite(self.flat)):
            name = next(n for n, arr in self.tensors() if not np.all(np.isfinite(arr)))
            raise ValueError(f"parameter tensor {name} contains non-finite entries")
        return self


class GradientPart(NamedTuple):
    """The gradients of one part: of NetworkParams.flat[start:start + flat.size]."""

    start: int
    flat: np.ndarray
    tensors: Callable      # () -> (name, view) of the part's tensors, as NetworkParams names them


class PartGradients(_NetworkViews):
    """A network's gradients, a part at a time, in one buffer the size of the largest part.

    A part is one layer's kernel, recurrent and bias: the range of
    NetworkParams.flat from `starts[l]` to `starts[l + 1]`.  The head joins
    the top layer's part, because the two are adjacent in flat.
    `layers[l]`, `head_w` and `head_b` are views as in a NetworkParams of
    gradients, but each part's views start at the buffer's first element,
    so that a part's gradients overwrite the part before it.  `parts[l]` is
    layer l's GradientPart, which `backward` with `on_part` hands on as
    soon as it is complete.
    """

    def __init__(self, spec: NetworkSpec, dtype=np.float64):
        offsets = list(itertools.accumulate(map(math.prod, _tensor_shapes(spec)), initial=0))
        top = len(spec.layers) - 1
        self.starts = offsets[:3 * top + 1:3] + offsets[-1:]
        self.buffer = np.zeros(max(b - a for a, b in itertools.pairwise(self.starts)), dtype=dtype)
        self._place(spec, self.buffer,
                    [offset - self.starts[min(k // 3, top)] for k, offset in enumerate(offsets)])
        # the parts name their tensors from the views, not through self, so that no cycle
        # keeps the buffer alive after the last reference to self goes
        self.parts = [GradientPart(start, self.buffer[:stop - start],
                                   functools.partial(_named, spec, self.layers, self.head_w,
                                                     self.head_b, [l]))
                      for l, (start, stop) in enumerate(itertools.pairwise(self.starts))]


@dataclass
class ForwardTape:
    """Each layer's tape plus what the head saw."""

    layers: list                      # layers[l] -> LstmTape | GruTape
    h_last: np.ndarray                # (batch, top_units), head input


def _check_windows(spec: NetworkSpec, windows, dtype=None) -> np.ndarray:
    """Check a (batch, lookback, features) stack; return it as an array (of `dtype`, if given)."""
    windows = np.asarray(windows, dtype=dtype)
    if windows.ndim != 3:
        raise ShapeError(f"windows: expected (batch, lookback, features), got {windows.shape}")
    if windows.shape[2] != spec.input_dim:
        raise ShapeError(f"windows feature dim {windows.shape[2]} != input_dim {spec.input_dim}")
    if windows.shape[1] < 1:
        raise ShapeError("lookback must be >= 1")
    return windows


def _layer_forward(layer: LayerSpec, p: LayerParams, x, keep_tape: bool = True, ws=None):
    forward = lstm_forward if layer.cell_kind == "lstm" else gru_forward
    return forward(p, x, layer.activation, keep_tape, ws)


def _layer_ws(ws: dict, l: int) -> dict:
    """Layer l's part of a network workspace: its own arrays, and the scratch all parts share.

    The part keeps the layer's tape; backward writes the layer's dL/dx
    over the tape's gates, which the layer below reads as its dh.
    """
    return ws.setdefault(f"layer{l}", {"scratch": ws.setdefault("scratch", {})})


def forward_batch(spec: NetworkSpec, params: NetworkParams, windows,
                  ws: dict | None = None) -> tuple[np.ndarray, ForwardTape]:
    """Run a (batch, lookback, features) stack of windows. Returns (preds, tape).

    The tape's arrays live in `ws` (a fresh workspace when None) and stay
    valid only until the backward that reads them or the next forward on
    the same workspace.  The layers share one set of scratch arrays, each
    the size the widest layer needs.
    """
    ws = {} if ws is None else ws
    x = np.ascontiguousarray(_check_windows(spec, windows, params.flat.dtype).transpose(1, 0, 2))
    tapes = []
    for l, (layer, p) in enumerate(zip(spec.layers, params.layers)):
        x, tape = _layer_forward(layer, p, x, ws=_layer_ws(ws, l))
        tapes.append(tape)
    h_last = x[-1]
    preds = h_last @ params.head_w.T + params.head_b
    return preds, ForwardTape(layers=tapes, h_last=h_last)


def predict_batch(spec: NetworkSpec, params: NetworkParams, windows) -> np.ndarray:
    """Predictions for many windows, with no tape. Returns (n, 1).

    The windows go through the layers in as few chunks as keep the widest
    layer's x K + b rows within PREDICT_CHUNK_BYTES, the chunks as equal in
    size as they can be (a short last chunk would more often run another
    BLAS kernel than one pass; see the module docstring).  So apart from
    one row of states per window the memory this takes is bounded whatever
    n.  Within a chunk each layer keeps only its input, its outputs, its
    x K + b rows (the gates are computed in place there) and one step of
    state, and frees them when the next layer has run.  Each chunk writes
    its top layer's last hidden states into one (n, top_units) array, and
    the head runs once over all of it.
    """
    dtype = params.flat.dtype
    windows = _check_windows(spec, windows)
    n, lookback = windows.shape[:2]
    widest = max(len(GATES[layer.cell_kind]) * layer.units for layer in spec.layers)
    per_chunk = max(1, PREDICT_CHUNK_BYTES // (lookback * widest * dtype.itemsize))
    chunks = -(-n // per_chunk)
    size, longer = divmod(n, max(chunks, 1))
    top = np.empty((n, spec.layers[-1].units), dtype=dtype)
    stop = 0
    for k in range(chunks):
        start, stop = stop, stop + size + (k < longer)
        x = windows[start:stop].transpose(1, 0, 2)    # the first layer casts the chunk
        for layer, p in zip(spec.layers, params.layers):
            x, _ = _layer_forward(layer, p, x, keep_tape=False)
        top[start:stop] = x[-1]
    return top @ params.head_w.T + params.head_b


def backward(spec: NetworkSpec, params: NetworkParams, tape: ForwardTape, dpred,
             grads: NetworkParams | PartGradients | None = None, ws: dict | None = None,
             on_part: Callable | None = None) -> NetworkParams | PartGradients:
    """Full-unrolled BPTT from dL/dprediction; returns the gradients, summed over timesteps.

    The gradients are written into `grads`, a fresh NetworkParams of `spec`
    when None; every element is overwritten, so a training loop can pass
    the same container each step.  The head's and the top layer's
    gradients come first, then each lower layer's.  The top layer's
    recursion starts from dL/dh of its last step, one (batch, units) row,
    because the head reads no other step.

    With `on_part`, `grads` is a PartGradients, whose parts share one
    buffer, and `on_part(grads.parts[l])` runs as soon as layer l is done,
    before the layer below overwrites the buffer.  It may change the
    part's weights, as training does by running the optimizer there:
    layer l has already read them for the dL/dx it passes down, and no
    lower layer reads them.  An exception it raises ends the backward.

    `ws` is the workspace the tape's forward used, or any other: backward
    uses the layers' shared scratch (the forward's x K + b rows become dz)
    and writes each layer's dL/dx over the gate tape in the layer's part
    (see `_layer_ws`).  The tape must come from the latest forward on its
    workspace, and backward spends it: a tape backs one backward.
    """
    dtype = params.flat.dtype
    dpred = np.asarray(dpred, dtype=dtype)
    if dpred.ndim == 1:
        dpred = dpred[None, :]
    batch = tape.h_last.shape[0]
    if dpred.shape != (batch, 1):
        raise ShapeError(f"dpred shape {dpred.shape}, expected ({batch}, 1)")
    if grads is None:
        grads = NetworkParams.zeros(spec, dtype)
    elif grads.spec != spec or grads.head_w.dtype != dtype:
        raise ShapeError("grads were built for a different network spec or dtype")
    ws = {} if ws is None else ws

    np.matmul(dpred.T, tape.h_last, out=grads.head_w)
    np.sum(dpred, axis=0, out=grads.head_b)
    dh = np.matmul(dpred, params.head_w, out=buffer(ws, "dh_top", tape.h_last.shape, dtype))
    for l in reversed(range(len(spec.layers))):
        layer_backward = lstm_backward if spec.layers[l].cell_kind == "lstm" else gru_backward
        dh = layer_backward(params.layers[l], tape.layers[l], dh, grads.layers[l],
                            _layer_ws(ws, l), input_grad=l > 0)
        if on_part is not None:
            on_part(grads.parts[l])
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
            "output_dim": 1,
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
        if check_type(header["spec"]["output_dim"], int, "output_dim") != 1:
            raise ValueError(f"output_dim {header['spec']['output_dim']} is not 1")
        spec = NetworkSpec(
            layers=tuple(LayerSpec(l["kind"], l["units"], l["activation"])
                         for l in header["spec"]["layers"]),
            input_dim=header["spec"]["input_dim"],
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
