"""Shared numerics: the float64 dtype FLOAT, ShapeError, a seeded RNG and Glorot init.

Data, normalisation, metrics, statistics and TPE work on plain
``numpy.float64`` (FLOAT) arrays: matrices are 2-D row-major, vectors are
1-D.  Networks compute in the dtype of their parameters, float32 or
float64 (see `network.py`), and do not read FLOAT.  All randomness flows
through :class:`Rng`, a Philox-backed counter-based generator, so that any
run is replayable from a single 64-bit seed.
"""

from __future__ import annotations

import numpy as np

FLOAT = np.float64


class ShapeError(ValueError):
    """Operand shapes violate an operation's precondition."""


def sigmoid_grad(y, out=None):
    """d sigmoid/dx expressed in terms of the output y = sigmoid(x): y (1 - y).

    With `out`, the result is written there.
    """
    out = np.subtract(1.0, y, out=out)
    out *= y
    return out


class Rng:
    """Deterministic Philox (counter-based) random generator.

    Identical seeds give identical draw sequences on every platform.
    ``child(i)`` derives an independent stream, so concurrent consumers
    (e.g. per-trial samplers) never share state.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=_spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "Rng":
        """Independent stream number `index` derived from this seed."""
        return Rng(self.seed, self._spawn_key + (int(index),))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def integers(self, low, high_inclusive, size=None):
        return self._gen.integers(low, high_inclusive, size=size, endpoint=True)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def glorot_uniform(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """(fan_out, fan_in) matrix, i.i.d. uniform on +/- sqrt(6/(fan_in+fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ShapeError(f"glorot_uniform: fans must be >= 1, got {fan_in}, {fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))
