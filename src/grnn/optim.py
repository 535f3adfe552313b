"""The Nadam optimizer (Dozat, ICLR 2016 workshop).

A step updates in place a container's flat vector ``flat``, float32 or
float64; the gradients come in a second container of the same dtype
(network params and gradients are both NetworkParams), and the moments
and scratch rows are made in that dtype too.  A step may come in parts,
one contiguous range of ``flat`` per call, as `network.backward` hands
training's gradients over a layer at a time: the gradient container then
holds only the range (a `network.GradientPart`), and ``start`` says where
it begins.  The call whose range reaches the end of ``flat`` begins a step
and advances ``step_count``; the other calls of the step, for the ranges
below it, use the same count.  Each call first checks that every gradient
of its range is finite (on failure ``tensors()`` names the offending
tensor and nothing of the range is updated).  So a step in one call
updates nothing on failure, but a step in parts can stop after its upper
parts were updated; `train` then discards the run.  A call then runs a
few in-place ufuncs over blocks of BLOCK elements: ``m`` and ``v`` hold
the moments, and two preallocated scratch rows of one block take every
intermediate.  A block's parameters, gradients, moments and scratch rows
(six rows of 256 KiB in float64, half that in float32) stay in a 2 MB L2
cache across those ufuncs, where whole vectors of a large network would
stream through memory once per ufunc.  The arithmetic per element does
not depend on the blocking or on the parts.  The update rule, with g the
gradient, lr the learning rate and t the 1-based step count, keeps
bias-corrected first and second moments and takes a one-step Nesterov
lookahead on the first (momentum-schedule-free form):

    m = b1 m + (1-b1) g
    v = b2 v + (1-b2) g^2
    mhat = m/(1-b1^t); vhat = v/(1-b2^t)
    theta -= lr * (b1*mhat + (1-b1)*g/(1-b1^t)) / (sqrt(vhat) + eps)

Constants: b1=BETA1=0.9, b2=BETA2=0.999, eps=EPS=1e-8.  The default
learning rate, 0.001, reaches |theta - 3| < 0.01 on (theta-3)^2 within
10k steps from theta=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
BLOCK = 1 << 15      # elements per update block


class NonFiniteGradient(ValueError):
    """A gradient tensor contains NaN or Inf; message names the tensor."""


@dataclass
class OptimizerState:
    learning_rate: float = 0.001
    step_count: int = 0
    m: np.ndarray | None = None      # first moment
    v: np.ndarray | None = None      # second moment
    scratch: np.ndarray | None = field(default=None, repr=False)   # (2, <= BLOCK) work rows

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a finite number > 0")


def _check_finite(grads) -> None:
    g = grads.flat
    for start in range(0, g.size, BLOCK):
        if not np.isfinite(g[start:start + BLOCK]).all():
            name = next(n for n, t in grads.tensors() if not np.all(np.isfinite(t)))
            raise NonFiniteGradient(f"non-finite gradient in tensor {name!r}")


def apply(state: OptimizerState, params, grads, start: int = 0) -> None:
    """One Nadam step, or one part of it, over params.flat[start:start + grads.flat.size],
    updating that range and `state` in place; see the module docstring for parts.

    A non-finite gradient raises NonFiniteGradient before anything of the
    range is updated.
    """
    p, g = params.flat, grads.flat
    stop = start + g.size
    if p.dtype != g.dtype or not 0 <= start < stop <= p.size:
        raise ShapeError(f"params/grads mismatch: {p.dtype}{p.shape} vs {g.dtype}{g.shape} "
                         f"at {start}")
    if stop < p.size and not state.step_count:
        raise ShapeError("a step begins with the range that reaches the end of the parameters")
    _check_finite(grads)
    width = min(p.size, BLOCK)
    if state.scratch is None:
        state.scratch = np.empty((2, width), dtype=p.dtype)
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    elif (state.scratch.shape[1] != width or state.scratch.dtype != p.dtype
          or state.v.size != p.size):
        raise ShapeError(f"optimizer state was made for other parameters "
                         f"than {p.dtype}({p.size},)")

    if stop == p.size:
        state.step_count += 1
    t = state.step_count
    step_scale = state.learning_rate / (1.0 - BETA1 ** t)
    p, ms, vs = p[start:stop], state.m[start:stop], state.v[start:stop]
    for offset in range(0, p.size, BLOCK):
        b = slice(offset, offset + BLOCK)
        pb, gb, m, v = p[b], g[b], ms[b], vs[b]
        step, work = state.scratch[:, :pb.size]
        np.multiply(gb, 1.0 - BETA1, out=work)
        m *= BETA1
        m += work
        np.multiply(m, BETA1, out=step)     # lr * (b1 * m + (1 - b1) * g) / (1 - b1^t)
        step += work
        step *= step_scale
        np.multiply(gb, gb, out=work)
        work *= 1.0 - BETA2
        v *= BETA2
        v += work
        np.divide(v, 1.0 - BETA2 ** t, out=work)
        np.sqrt(work, out=work)
        work += EPS
        step /= work
        pb -= step
