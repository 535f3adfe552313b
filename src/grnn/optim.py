"""First-order optimizers: SGD, AdaGrad, RMSProp, Adam, Nadam.

All five update in place a container's flat vector ``flat``, float32 or
float64; the gradients come in a second container of the same layout and
dtype (network params and gradients are both NetworkParams), and the
moments and scratch rows are made in that dtype too.  A step first checks
that every gradient is finite (on failure ``tensors()`` names the
offending tensor and nothing is updated), then runs a few in-place ufuncs
over blocks of BLOCK elements: ``m`` and ``v`` hold the moments, and two
preallocated scratch rows of one block take every intermediate.  A
block's parameters, gradients, moments and scratch rows (six rows of
256 KiB in float64, half that in float32) stay in a 2 MB L2 cache across
those ufuncs, where whole vectors of a large network would stream through
memory once per ufunc.  The arithmetic per element does not depend on the
blocking.  Update rules, with g the gradient, lr the learning rate and t
the 1-based step count:

    sgd      theta -= lr * g
    adagrad  G += g^2;                      theta -= lr * g / (sqrt(G) + eps)
    rmsprop  E = rho E + (1-rho) g^2;       theta -= lr * g / (sqrt(E) + eps)
    adam     m = b1 m + (1-b1) g
             v = b2 v + (1-b2) g^2
             mhat = m/(1-b1^t); vhat = v/(1-b2^t)
             theta -= lr * mhat / (sqrt(vhat) + eps)
    nadam    as adam, but with a one-step Nesterov lookahead on the
             bias-corrected first moment (momentum-schedule-free form):
             theta -= lr * (b1*mhat + (1-b1)*g/(1-b1^t)) / (sqrt(vhat) + eps)

Constants: b1=BETA1=0.9, b2=BETA2=0.999, eps=EPS=1e-8, rho=RHO=0.9.  Default
learning rates are per-kind (see DEFAULT_LEARNING_RATES); every one of
them reaches |theta - 3| < 0.01 on (theta-3)^2 within 10k steps from theta=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ShapeError

OPTIMIZER_KINDS = ("sgd", "adagrad", "rmsprop", "adam", "nadam")

# AdaGrad's monotonically shrinking steps need the larger rate to cross
# O(1) distances in bounded step budgets; the rest use common defaults.
DEFAULT_LEARNING_RATES = {
    "sgd": 0.01,
    "adagrad": 0.1,
    "rmsprop": 0.001,
    "adam": 0.001,
    "nadam": 0.001,
}


BETA1, BETA2, EPS, RHO = 0.9, 0.999, 1e-8, 0.9
BLOCK = 1 << 15      # elements per update block


class NonFiniteGradient(ValueError):
    """A gradient tensor contains NaN or Inf; message names the tensor."""


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step_count: int = 0
    m: np.ndarray | None = None      # first moment (adam, nadam)
    v: np.ndarray | None = None      # squared-gradient accumulator (all but sgd)
    scratch: np.ndarray | None = field(default=None, repr=False)   # (2, <= BLOCK) work rows

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.kind!r}; expected one of {OPTIMIZER_KINDS}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")

    @classmethod
    def create(cls, kind: str, learning_rate: float | None = None) -> "OptimizerState":
        if learning_rate is None:
            learning_rate = DEFAULT_LEARNING_RATES[kind]
        return cls(kind=kind, learning_rate=learning_rate)


def _check_finite(grads) -> None:
    g = grads.flat
    for start in range(0, g.size, BLOCK):
        if not np.isfinite(g[start:start + BLOCK]).all():
            name = next(n for n, t in grads.tensors() if not np.all(np.isfinite(t)))
            raise NonFiniteGradient(f"non-finite gradient in tensor {name!r}")


def apply(state: OptimizerState, params, grads) -> None:
    """One optimizer step over the flat vectors, updating `params` and `state` in place.

    A non-finite gradient raises NonFiniteGradient before anything is updated.
    """
    p, g = params.flat, grads.flat
    if p.shape != g.shape or p.dtype != g.dtype:
        raise ShapeError(f"params/grads mismatch: {p.dtype}{p.shape} vs {g.dtype}{g.shape}")
    _check_finite(grads)
    width = min(p.size, BLOCK)
    if state.scratch is None:
        state.scratch = np.empty((2, width), dtype=p.dtype)
        state.m = np.zeros_like(p) if state.kind in ("adam", "nadam") else None
        state.v = np.zeros_like(p) if state.kind != "sgd" else None
    elif (state.scratch.shape[1] != width or state.scratch.dtype != p.dtype
          or (state.v is not None and state.v.size != p.size)):
        raise ShapeError(f"optimizer state was made for other parameters "
                         f"than {p.dtype}({p.size},)")

    state.step_count += 1
    m, v = state.m, state.v
    for start in range(0, p.size, BLOCK):
        b = slice(start, start + BLOCK)
        _update(state, p[b], g[b], None if m is None else m[b], None if v is None else v[b],
                state.scratch[:, :p[b].size])


def _update(state: OptimizerState, p, g, m, v, scratch) -> None:
    """The update rule on one block; p, g, m, v are its views and `scratch` two rows as long."""
    t = state.step_count
    lr = state.learning_rate
    step, work = scratch

    if state.kind == "sgd":
        np.multiply(g, lr, out=step)
        p -= step
        return
    if state.kind in ("adagrad", "rmsprop"):
        if state.kind == "rmsprop":
            v *= RHO
        np.multiply(g, g, out=work)
        if state.kind == "rmsprop":
            work *= 1.0 - RHO
        v += work
        np.sqrt(v, out=work)
        np.multiply(g, lr, out=step)
    else:   # adam / nadam share the moment updates
        np.multiply(g, 1.0 - BETA1, out=work)
        m *= BETA1
        m += work
        if state.kind == "adam":
            np.multiply(m, lr / (1.0 - BETA1 ** t), out=step)
        else:   # lr * (b1 * m + (1 - b1) * g) / (1 - b1^t)
            np.multiply(m, BETA1, out=step)
            step += work
            step *= lr / (1.0 - BETA1 ** t)
        np.multiply(g, g, out=work)
        work *= 1.0 - BETA2
        v *= BETA2
        v += work
        np.divide(v, 1.0 - BETA2 ** t, out=work)
        np.sqrt(work, out=work)
    work += EPS
    step /= work
    p -= step


def global_norm(grads) -> float:
    """L2 norm over all gradient tensors taken together."""
    g = grads.flat
    with np.errstate(over="ignore"):
        sq = float(np.dot(g, g))
    if math.isinf(sq) and g.dtype != np.float64 and np.isfinite(g).all():
        g = g.astype(np.float64)          # float32 squares overflow near a norm of 1.8e19
        sq = float(np.dot(g, g))
    return math.sqrt(sq)


def clip_gradients(grads, max_norm: float):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    norm = global_norm(grads)
    if norm > max_norm:
        g = grads.flat
        g *= max_norm / norm
    return grads
