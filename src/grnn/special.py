"""The regularized incomplete beta and Student's t survival function.

Welch's test needs the t tail at a real-valued number of degrees of
freedom, which takes the incomplete beta: I_x(a, b) by its continued
fraction (modified Lentz), with log-gamma from `math.lgamma`.  The test
suite pins both against a frozen reference table to 1e-10.
"""

from __future__ import annotations

import math

_MAX_ITER = 400
_TINY = 1e-300
_EPS = 1e-15


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("betainc requires a, b > 0")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"betainc requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, dof: float) -> float:
    """Survival function P(T > t) of Student's t with `dof` degrees of freedom."""
    if dof <= 0.0:
        raise ValueError("t_sf requires dof > 0")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * betainc(0.5 * dof, 0.5, x)
    return tail if t > 0.0 else 1.0 - tail
