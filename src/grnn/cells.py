"""LSTM and GRU layers run over a whole window, with hand-derived backward passes.

Weights use the fused layout of Keras and cuDNN.  A layer with input width
D, H units and G gates holds three arrays, all views into the network's
flat parameter vector (see `network.py`):

    kernel     (D, G*H)   input weights
    recurrent  (H, G*H)   recurrent weights
    bias       (G*H,)

Column block k (columns k*H to (k+1)*H) of all three belongs to gate k, in
the order f, i, o, c for LSTM (G = 4) and r, z, c for GRU (G = 3); c is the
candidate.  Gradients use the same layout.  A layer computes in the dtype
of its kernel, float32 or float64: inputs, dh, tape and gradients follow
it.  With [.]_g the block of gate g:

    LSTM:  f, i, o = sig([x_t K + h_{t-1} R + b]_{f,i,o})
           c~  = act([x_t K + h_{t-1} R + b]_c)
           c_t = f * c_{t-1} + i * c~
           h_t = o * act(c_t)

    GRU:   r, z = sig([x_t K + h_{t-1} R + b]_{r,z})
           h~  = act([x_t K + (r * h_{t-1}) R + b]_c)
           h_t = (1 - z) * h_{t-1} + z * h~

The GRU applies its reset gate before the recurrent product (the paper's
form, not Keras' reset_after).  `act` is tanh (default) or relu, chosen per
layer; sigmoid is evaluated as 0.5 + 0.5 tanh(x / 2), so the gates of one
step cost one tanh call.  Initial states are zero.

Inputs are time-major (T, B, D) and each forward returns the layer's
outputs (T, B, H) plus a tape (none with keep_tape=False, for
prediction).  A tape holds what backward cannot rebuild in one pass: the
input x, the states h (and the LSTM's c), each (T+1, B, H) with a zero
row 0, and the gates after their activations.  Backward rebuilds the
LSTM's act(c_t) from c and the GRU's r * h_{t-1} from r and h, with the
ufuncs the forward used on the same floats, so the forward keeps each
for one step only, in the row of h it writes last.  Forward does one
x K + b GEMM for the whole window into batch-major gate rows (T, B, G*H),
then one h R GEMM per step (GRU: h R_rz and (r * h) R_c), added to the
step's rows in place.  The tape holds the gates gate-major, (T, G, B, H),
so each gate of a step is one contiguous (B, H) block and the sigmoid
gates are one block.  The step's activation reads its rows through a
gate-major view and writes the tape: the one strided pass of a forward
step.  Backward runs its steps in spans, the last span first: a span is
as many whole steps as fit their (G, B, H) gate blocks in SPAN_BYTES
(512 KiB, about a quarter of a 2 MiB L2), at least one and at most the
window.  Before a span's steps it forms, gate-major, the span's factors
of dz that do not depend on the recursion (q, and "keep": the LSTM's
act'(act(c_t)) o_t, made in place over the span's rebuilt act(c_t), or
the GRU's 1 - z), in scratch sized for one span, so that scratch is
bounded by the span and not by the window; a window of more than one
span reserves the whole budget, so a short batch's longer spans view the
same scratch.  The arithmetic per element is the same whatever the span.
Each step forms its gradients of the gate pre-activations in one
(G, B, H) block.  One strided copy per step moves that block into the
batch-major dz (T, B, G*H), held in the forward's row buffer, which
every backward GEMM reads.  Its only per-step GEMMs carry dh back
through R.  Each weight gradient is then one GEMM over the stacked T*B
rows, written into the caller's gradient views, and the gradient for the
layer below, dz K^T, is computed once.  Everything is deterministic, and
the gradients are checked against central finite differences in the
tests.

Every array a forward or backward writes, tape included, comes from a
workspace: a dict from buffer name to array, passed as `ws`.  Each name
has one grow-only flat array, and `buffer` hands out a C-contiguous view
of its prefix in any shape, cached until the shape or dtype asked for
changes; the flat is reallocated only when it is smaller than the view
or the caller's reserve.  So a training loop that passes the same
workspace each step allocates nothing after the first full batch, and an
epoch's short last batch views a prefix.  The tape goes to `ws` itself
and every other array but dL/dx, scratch that no call leaves live, to
`ws["scratch"]` when there is one (a network's layers share it; see
`network.py`), else to `ws`.  Arrays that are never live at once share a
name.  The x K + b rows double as backward's dz.  "rec" holds the
forward's halved recurrent matrix (the GRU's r and z columns), then,
viewed in the transposed shape, backward's transposed copy of the whole
matrix, whose row blocks R_rz^T and R_c^T the GRU's recursion reads;
after that recursion, the GRU's rebuilt r * h_{t-1}, which dL/dR_c
reads.  A GRU forward that keeps a tape reserves room for both, so the
flat does not grow in backward.  dL/dx goes to `ws`'s "gates" flat,
over the gate tape, which backward has finished reading by then; the
flat grows when the input is wider than the gate rows.  So a tape is
valid until its backward, which spends it, or the next forward on the
same workspace, whichever comes first.  Called without a workspace, each
function makes a fresh one and allocates as it goes, and the tape is
left as it was.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .numerics import ShapeError, sigmoid_grad

LSTM_GATES = ("f", "i", "o", "c")
GRU_GATES = ("r", "z", "c")
ACTIVATIONS = ("tanh", "relu")
SPAN_BYTES = 512 << 10     # most bytes of one backward span's gate-major factors of dz


class LayerParams(NamedTuple):
    kernel: np.ndarray       # (D, G*H)
    recurrent: np.ndarray    # (H, G*H)
    bias: np.ndarray         # (G*H,)


class LstmTape(NamedTuple):
    x: np.ndarray            # (T, B, D) layer input
    h: np.ndarray            # (T+1, B, H) outputs; h[0] is the zero initial state
    c: np.ndarray            # (T+1, B, H) cell states; c[0] = 0
    gates: np.ndarray        # (T, 4, B, H) f, i, o, c~ after their activations, gate-major
    activation: str


class GruTape(NamedTuple):
    x: np.ndarray            # (T, B, D) layer input
    h: np.ndarray            # (T+1, B, H) outputs; h[0] is the zero initial state
    gates: np.ndarray        # (T, 3, B, H) r, z, h~ after their activations, gate-major
    activation: str


def _activate(name: str, a: np.ndarray, out: np.ndarray) -> None:
    """Write the candidate activation of `a` into `out` (may be `a` itself)."""
    if name == "tanh":
        np.tanh(a, out=out)
    else:
        np.maximum(a, 0.0, out=out)


def _activation_grad(name: str, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write d act / d pre, from the activation's output y, into `out`."""
    if name == "tanh":
        np.multiply(y, y, out)
        np.subtract(1.0, out, out)
    else:
        np.greater(y, 0.0, out)
    return out


def buffer(ws: dict, name: str, shape: tuple, dtype, reserve: int = 0) -> np.ndarray:
    """Uninitialised C-contiguous array `ws[name]` of `shape` and `dtype`.

    The array is a view of the name's flat array (its `base`: numpy makes
    a view of a view point at the owner), remade only when the shape or
    dtype changes.  The flat grows, and is never shrunk, when it holds
    fewer than max(elements of the view, `reserve`).  The old flat is let
    go before the new one is made, so that the two coexist only while a
    caller holds a view of the old one.
    """
    view = ws.get(name)
    if view is None or view.shape != shape or view.dtype != dtype:
        size = math.prod(shape)
        flat = None if view is None else view.base
        if flat is None or flat.dtype != dtype or flat.size < max(size, reserve):
            ws[name] = view = flat = None
            flat = np.empty(max(size, reserve), dtype=dtype)
        view = ws[name] = flat[:size].reshape(shape)
    return view


def _span(steps: int, n_gates: int, batch: int, units: int, dtype) -> tuple[int, int]:
    """(steps per backward span, elements to reserve for the span's q).

    A span is as many steps as fit their (G, B, H) gate blocks in
    SPAN_BYTES, at least one and at most the window.  A window of more than
    one span reserves the whole budget, so that a short batch, whose spans
    are longer, views a prefix of the same flats.
    """
    itemsize = dtype.itemsize
    span = min(steps, max(1, SPAN_BYTES // (n_gates * batch * units * itemsize)))
    return span, SPAN_BYTES // itemsize if span < steps else 0


def _scratch(ws: dict) -> dict:
    """Where a layer keeps the arrays that no call leaves live; see the module docstring."""
    return ws.get("scratch", ws)


def _sigmoid_from_half_tanh(a: np.ndarray) -> None:
    """Finish sig(x) = 0.5 + 0.5 tanh(x / 2) in place, given a = tanh(x / 2)."""
    a *= 0.5
    a += 0.5


def _by_gate(rows: np.ndarray, n_gates: int) -> np.ndarray:
    """View batch-major gate rows (..., B, G*H) gate-major, as (..., G, B, H)."""
    *lead, batch, width = rows.shape
    return rows.reshape(*lead, batch, n_gates, width // n_gates).swapaxes(-3, -2)


def _project_inputs(p: LayerParams, x, n_gates: int, activation: str, what: str, ws: dict):
    """Check shapes; return (x, T, B, H, (x K + b) * scale as (T, B, G*H), scale).

    `scale` (G*H,) is 0.5 on the sigmoid gates' columns and 1 on the
    candidate's, the last block: sig(a) = 0.5 + 0.5 tanh(a / 2), and
    scaling by 0.5 or 1 is exact.  One pass over whole rows costs less
    than halving the sigmoid columns alone.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
    x = np.ascontiguousarray(x, dtype=p.kernel.dtype)
    units = p.recurrent.shape[0]
    if x.ndim != 3:
        raise ShapeError(f"{what}: x must be (T, B, D), got shape {x.shape}")
    if p.kernel.shape != (x.shape[2], n_gates * units) or p.bias.shape != (n_gates * units,):
        raise ShapeError(f"{what}: kernel {p.kernel.shape} does not take inputs of width {x.shape[2]}")
    steps, batch, width = x.shape
    pre = buffer(ws, "rows", (steps, batch, n_gates * units), x.dtype)
    np.matmul(x.reshape(steps * batch, width), p.kernel, out=pre.reshape(steps * batch, -1))
    pre += p.bias
    scale = buffer(ws, "scale", (n_gates * units,), x.dtype)
    scale[:-units] = 0.5
    scale[-units:] = 1.0
    pre *= scale
    return x, steps, batch, units, pre, scale


def lstm_forward(p: LayerParams, x, activation: str = "tanh", keep_tape: bool = True,
                 ws: dict | None = None):
    """Run an LSTM layer over a (T, B, D) window. Returns (outputs (T, B, H), LstmTape).

    With keep_tape=False the gates are computed in place in the x K + b
    rows, the cell state lives in a two-row ring and the tape is None.
    Outputs and tape live in `ws`; the tape stays valid until its backward
    or the next forward on `ws`.
    """
    ws = {} if ws is None else ws
    scratch = _scratch(ws)
    x, steps, batch, units, pre, scale = _project_inputs(p, x, 4, activation, "lstm_forward",
                                                         scratch)
    pre_by_gate = _by_gate(pre, 4)
    # halving is exact, so the step GEMM needs no rescale
    rec = np.multiply(p.recurrent, scale, out=buffer(scratch, "rec", p.recurrent.shape, x.dtype))
    kept = steps if keep_tape else 1
    gates = buffer(ws, "gates", (steps, 4, batch, units), x.dtype) if keep_tape else pre_by_gate
    h = buffer(ws, "h", (steps + 1, batch, units), x.dtype)
    c = buffer(ws, "c", (kept + 1, batch, units), x.dtype)
    h[0] = 0.0
    c[0] = 0.0
    hr = buffer(scratch, "hr", (batch, 4 * units), x.dtype)
    for t in range(steps):
        c_prev, c_new, h_new = c[t % (kept + 1)], c[(t + 1) % (kept + 1)], h[t + 1]
        g = gates[t]
        if t:
            pre[t] += np.matmul(h[t], rec, out=hr)
        if activation == "tanh":
            np.tanh(pre_by_gate[t], out=g)     # gates and candidate in one call
        else:
            np.tanh(pre_by_gate[t, :3], out=g[:3])
            np.maximum(pre_by_gate[t, 3], 0.0, out=g[3])
        _sigmoid_from_half_tanh(g[:3])
        f, i, o, cand = g
        np.multiply(f, c_prev, out=c_new)
        c_new += np.multiply(i, cand, out=h_new)      # h_new is scratch until the last line
        _activate(activation, c_new, h_new)           # act(c_t), which backward rebuilds
        h_new *= o
    return h[1:], LstmTape(x, h, c, gates, activation) if keep_tape else None


def lstm_backward(p: LayerParams, tape: LstmTape, dh, grad: LayerParams,
                  ws: dict | None = None, input_grad: bool = True):
    """Backward through an LSTM layer.

    dh is dL/dh_t for every step, shape (T, B, H), from the layer above,
    or dL/dh of the last step only, shape (B, H), from the head.  A last
    step's dh gives the floats of a (T, B, H) dh that is zero before it:
    the recursion starts from it, and each step adds the tape's zero h[0]
    in place of dh[t], which turns -0.0 into +0.0 as a zero dh[t] does.
    Writes dL/dkernel, dL/drecurrent and dL/dbias into `grad` and returns
    dL/dx, shape (T, B, D) (None with input_grad=False, which skips that
    GEMM).  dL/dx is written over the gate tape in `ws`, the tape's own
    when `ws` is the forward's workspace, so a tape backs one backward.
    """
    if not isinstance(tape, LstmTape):
        raise ShapeError(f"lstm_backward: got a {type(tape).__name__}")
    ws = {} if ws is None else ws
    scratch = _scratch(ws)
    x, h, c, gates, activation = tape
    steps, batch, units = h[1:].shape
    dh = _check_dh(dh, h[1:], p.kernel.dtype, "lstm_backward")
    span, reserve = _span(steps, 4, batch, units, x.dtype)
    q_span = buffer(scratch, "q", (span, 4, batch, units), x.dtype, reserve)
    # a GRU span's keep is the larger (G = 3), so a hybrid's layers share one flat
    keep_span = buffer(scratch, "keep", (span, batch, units), x.dtype, reserve // 3)
    f = gates[:, 0]
    dz = buffer(scratch, "rows", (steps, batch, 4 * units), x.dtype)   # x K + b, no longer needed
    dz_by_gate = _by_gate(dz, 4)
    dz_t = buffer(scratch, "dz_t", (4, batch, units), x.dtype)
    dz_o = dz_t[2]
    rec_t = buffer(scratch, "rec", p.recurrent.shape[::-1], x.dtype)   # the forward's rec
    np.copyto(rec_t, p.recurrent.T)                  # BLAS runs this layout faster
    dh_rec, dc, dh_t, dcell = (buffer(scratch, name, (batch, units), x.dtype)
                               for name in ("dh_rec", "dc", "dh_t", "dcell"))
    every_step = dh.ndim == 3    # else dL/dh of the last step, where the recursion starts
    dh_rec[...] = 0.0 if every_step else dh
    zero = h[0]                  # the zero initial state, added where dh[t] would be
    dc[...] = 0.0
    for start in reversed(range(0, steps, span)):
        stop = min(start + span, steps)
        # the factors of dz that do not depend on the recursion, for this span's steps:
        # dz = [dcell, dcell, dh_t, dcell] * q, gate by gate
        g = gates[start:stop].swapaxes(0, 1)
        q = q_span[:stop - start]
        q_by_gate = q.swapaxes(0, 1)
        act_c = keep_span[:stop - start]         # act(c_t) as the forward made it, from c
        _activate(activation, c[start + 1:stop + 1], act_c)
        sigmoid_grad(g[:3], q_by_gate[:3])
        for k, factor in enumerate((c[start:stop], g[3], act_c)):
            q_by_gate[k] *= factor
        q_cand = _activation_grad(activation, g[3], q_by_gate[3])
        q_cand *= g[1]
        cell_from_h = _activation_grad(activation, act_c, act_c)
        cell_from_h *= g[2]
        q_o = q_by_gate[2]
        for t in reversed(range(start, stop)):
            s = t - start
            np.add(dh[t] if every_step else zero, dh_rec, dh_t)
            np.multiply(dh_t, cell_from_h[s], dcell)
            np.add(dcell, dc, dcell)
            np.multiply(q[s], dcell, dz_t)
            np.multiply(dh_t, q_o[s], dz_o)
            dz_by_gate[t] = dz_t
            if t:
                np.multiply(dcell, f[t], dc)
                np.matmul(dz[t], rec_t, dh_rec)
    return _weight_grads(p, grad, x, dz, ((h[:-1], slice(None)),), ws, input_grad)


def gru_forward(p: LayerParams, x, activation: str = "tanh", keep_tape: bool = True,
                ws: dict | None = None):
    """Run a GRU layer over a (T, B, D) window. Returns (outputs (T, B, H), GruTape).

    With keep_tape=False the gates are computed in place in the x K + b
    rows and the tape is None.  Outputs and tape live in `ws`; the tape
    stays valid until its backward or the next forward on `ws`.
    """
    ws = {} if ws is None else ws
    scratch = _scratch(ws)
    x, steps, batch, units, pre, _ = _project_inputs(p, x, 3, activation, "gru_forward",
                                                     scratch)
    n_sig = 2 * units
    pre_by_gate = _by_gate(pre, 3)
    # with a tape, room for backward's R^T and r * h_{t-1}, so the flat never grows there
    reserve = max(p.recurrent.size, steps * batch * units) if keep_tape else 0
    rec_rz = buffer(scratch, "rec", (units, n_sig), x.dtype, reserve)
    np.multiply(p.recurrent[:, :n_sig], 0.5, out=rec_rz)     # exact halving, as in lstm_forward
    rec_c = p.recurrent[:, n_sig:]
    h = buffer(ws, "h", (steps + 1, batch, units), x.dtype)
    h[0] = 0.0
    gates = buffer(ws, "gates", (steps, 3, batch, units), x.dtype) if keep_tape else pre_by_gate
    hr_rz = buffer(scratch, "hr_rz", (batch, n_sig), x.dtype)
    hr_c = buffer(scratch, "hr_c", (batch, units), x.dtype)
    for t in range(steps):
        g = gates[t]
        rz, cand = g[:2], g[2]
        if t:
            pre[t, :, :n_sig] += np.matmul(h[t], rec_rz, out=hr_rz)
        np.tanh(pre_by_gate[t, :2], out=rz)
        _sigmoid_from_half_tanh(rz)
        if t:               # r * h_{t-1}, which backward rebuilds, in the row h_t overwrites
            rh = np.multiply(rz[0], h[t], out=h[t + 1])
            pre[t, :, n_sig:] += np.matmul(rh, rec_c, out=hr_c)
        _activate(activation, pre_by_gate[t, 2], cand)
        np.subtract(cand, h[t], out=h[t + 1])
        h[t + 1] *= rz[1]
        h[t + 1] += h[t]
    return h[1:], GruTape(x, h, gates, activation) if keep_tape else None


def gru_backward(p: LayerParams, tape: GruTape, dh, grad: LayerParams,
                 ws: dict | None = None, input_grad: bool = True):
    """Backward through a GRU layer; same contract as `lstm_backward`."""
    if not isinstance(tape, GruTape):
        raise ShapeError(f"gru_backward: got a {type(tape).__name__}")
    ws = {} if ws is None else ws
    scratch = _scratch(ws)
    x, h, gates, activation = tape
    steps, batch, units = h[1:].shape
    dh = _check_dh(dh, h[1:], p.kernel.dtype, "gru_backward")
    n_sig = 2 * units
    h_prev = h[:-1]
    r = gates[:, 0]
    span, reserve = _span(steps, 3, batch, units, x.dtype)
    q_span = buffer(scratch, "q", (span, 3, batch, units), x.dtype, reserve)
    keep_span = buffer(scratch, "keep", (span, batch, units), x.dtype, reserve // 3)
    dz = buffer(scratch, "rows", (steps, batch, 3 * units), x.dtype)   # x K + b, no longer needed
    dz_by_gate = _by_gate(dz, 3)
    dz_rz = dz[:, :, :n_sig]
    dz_t = buffer(scratch, "dz_t", (3, batch, units), x.dtype)
    dz_r, dz_z, dz_c = dz_t
    rec_t = buffer(scratch, "rec", p.recurrent.shape[::-1], x.dtype)   # the forward's rec_rz
    np.copyto(rec_t, p.recurrent.T)
    rec_rz_t, rec_c_t = rec_t[:n_sig], rec_t[n_sig:]
    dh_rec, dh_t, d_rh, dh_rz = (buffer(scratch, name, (batch, units), x.dtype)
                                 for name in ("dh_rec", "dh_t", "d_rh", "dh_rz"))
    every_step = dh.ndim == 3
    dh_rec[...] = 0.0 if every_step else dh
    zero = h[0]
    for start in reversed(range(0, steps, span)):
        stop = min(start + span, steps)
        # factors of dz that do not depend on the recursion, for this span's steps, gate
        # by gate: q = [h_prev sig'(r), (h~ - h_prev) sig'(z), z act'(h~)], keep = 1 - z
        g = gates[start:stop].swapaxes(0, 1)
        q = q_span[:stop - start].swapaxes(0, 1)
        h_prev_span = h_prev[start:stop]
        sigmoid_grad(g[:2], q[:2])
        q_r, q_z, q_c = q
        q_r *= h_prev_span
        keep = np.subtract(g[2], h_prev_span, keep_span[:stop - start])
        q_z *= keep
        _activation_grad(activation, g[2], q_c)
        q_c *= g[1]
        np.subtract(1.0, g[1], keep)
        for t in reversed(range(start, stop)):
            s = t - start
            np.add(dh[t] if every_step else zero, dh_rec, dh_t)
            np.multiply(dh_t, q_c[s], dz_c)
            np.matmul(dz_c, rec_c_t, d_rh)
            np.multiply(d_rh, q_r[s], dz_r)
            np.multiply(dh_t, q_z[s], dz_z)
            dz_by_gate[t] = dz_t
            if t:
                np.multiply(dh_t, keep[s], dh_rec)
                np.add(dh_rec, np.matmul(dz_rz[t], rec_rz_t, dh_rz), dh_rec)
                np.multiply(d_rh, r[t], d_rh)
                np.add(dh_rec, d_rh, dh_rec)
    # r * h_{t-1} as the forward made it, over rec_t, which the recursion has finished with
    rh = np.multiply(r, h_prev, out=buffer(scratch, "rec", h_prev.shape, x.dtype))
    return _weight_grads(p, grad, x, dz, ((h_prev, slice(None, n_sig)), (rh, slice(n_sig, None))),
                         ws, input_grad)


def _check_dh(dh, per_step: np.ndarray, dtype, what: str) -> np.ndarray:
    """dh as an array of `dtype`, checked against a (T, B, H) array of the tape."""
    dh = np.asarray(dh, dtype=dtype)
    if dh.shape not in (per_step.shape, per_step.shape[1:]):
        raise ShapeError(f"{what}: dh shape {dh.shape}, expected {per_step.shape} "
                         f"or {per_step.shape[1:]}")
    return dh


def _weight_grads(p: LayerParams, grad: LayerParams, x, dz, recurrent_inputs, ws: dict,
                  input_grad: bool):
    """One GEMM per weight gradient over the stacked T*B rows; returns dL/dx or None.

    `recurrent_inputs` pairs each (T, B, H) input of the recurrent product
    with the gate columns it feeds.
    """
    steps, batch, width = dz.shape
    rows = steps * batch
    dz = dz.reshape(rows, width)
    for inp, cols in recurrent_inputs:
        np.matmul(inp.reshape(rows, -1).T, dz[:, cols], out=grad.recurrent[:, cols])
    np.matmul(x.reshape(rows, -1).T, dz, out=grad.kernel)
    ones = buffer(_scratch(ws), "ones", (rows,), dz.dtype)
    ones[...] = 1.0
    np.matmul(ones, dz, out=grad.bias)    # a GEMV sums the rows faster than np.sum
    if not input_grad:
        return None
    dx = buffer(ws, "gates", x.shape, x.dtype)      # over the spent gate tape
    np.matmul(dz, p.kernel.T, out=dx.reshape(rows, -1))
    return dx
