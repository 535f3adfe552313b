"""Helpers shared by the test modules."""

from dataclasses import dataclass

import numpy as np


@dataclass
class ScalarBag:
    """A parameter container holding one flat vector, for optimizer tests."""

    value: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return self.value

    @classmethod
    def of(cls, x: float) -> "ScalarBag":
        return cls(np.array([float(x)], dtype=np.float64))

    def tensors(self):
        yield "value", self.value


def mse(pred, target) -> float:
    diff = np.ravel(pred) - np.ravel(target)
    return float(np.mean(diff * diff))


def central_differences(loss, arr: np.ndarray) -> np.ndarray:
    """Numeric gradient of `loss()` with respect to every entry of `arr`.

    Each entry is perturbed in place (so `arr` must be what `loss` reads,
    e.g. a network's flat parameter vector) and restored afterwards.
    """
    flat = arr.reshape(-1)
    assert np.shares_memory(flat, arr)
    grad = np.zeros(flat.size)
    for k in range(flat.size):
        orig = flat[k]
        h = 1e-6 * max(1.0, abs(orig))
        flat[k] = orig + h
        up = loss()
        flat[k] = orig - h
        dn = loss()
        flat[k] = orig
        grad[k] = (up - dn) / (2 * h)
    return grad.reshape(arr.shape)
