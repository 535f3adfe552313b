"""Statistical validation of per-run metric samples across architectures.

Two procedures, matching the usual published forms:

* D'Agostino-Pearson omnibus normality test: the sample skewness and
  kurtosis are mapped through their normalizing transforms
  (D'Agostino 1970; Anscombe & Glynn 1983), combined as K2 = Z1^2 + Z2^2,
  and referred to a chi-square with 2 dof.  Requires n >= MIN_NORMALITY_N
  (20); the transforms are unreliable below that.
* Welch's two-sample t-test with Welch-Satterthwaite degrees of freedom
  and a two-sided p-value from the t survival function.

`compare_architectures` applies both over run archives: one normality
result per label and a Welch result per unordered label pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import FLOAT
from .special import t_sf

ALPHA = 0.05
MIN_NORMALITY_N = 20


@dataclass
class NormalityResult:
    statistic: float        # K2 omnibus statistic
    p_value: float
    n: int


@dataclass
class WelchResult:
    t_statistic: float
    dof: float
    p_value: float
    significant_at_05: bool


class InsufficientData(ValueError):
    """A sample too small or too constant to test; `compare_architectures`
    marks its cells "insufficient data" instead of failing."""


def _clean_sample(sample, min_n: int, what: str) -> np.ndarray:
    """`sample` as a flat array, checked for size, then finiteness, then variance."""
    x = np.asarray(sample, dtype=FLOAT).ravel()
    if x.size < min_n:
        raise InsufficientData(f"{what}: need at least {min_n} observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: sample contains non-finite values")
    if float(np.var(x)) == 0.0:
        raise InsufficientData(f"{what}: sample has zero variance")
    return x


def _skew_z(b1: float, n: int) -> float:
    """D'Agostino (1970) normalizing transform of the sample skewness b1."""
    if b1 == 0.0:
        return 0.0
    y = b1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = (3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
             / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0)))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    return delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))


def _kurtosis_z(b2: float, n: int) -> float:
    """Anscombe & Glynn (1983) normalizing transform of the sample kurtosis b2."""
    eb2 = 3.0 * (n - 1.0) / (n + 1.0)
    vb2 = (24.0 * n * (n - 2.0) * (n - 3.0)
           / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0)))
    xx = (b2 - eb2) / math.sqrt(vb2)
    sqrt_beta1 = (6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0))
                  * math.sqrt(6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0))))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1 ** 2))
    term = (1.0 - 2.0 / a) / (1.0 + xx * math.sqrt(2.0 / (a - 4.0)))
    term = math.copysign(abs(term) ** (1.0 / 3.0), term)
    return ((1.0 - 2.0 / (9.0 * a)) - term) / math.sqrt(2.0 / (9.0 * a))


def dagostino_pearson(sample) -> NormalityResult:
    """Omnibus K2 normality test; small p rejects normality."""
    x = _clean_sample(sample, MIN_NORMALITY_N, "dagostino_pearson")
    d = x - x.mean()
    m2, m3, m4 = (np.mean(d ** p) for p in (2, 3, 4))
    z1 = _skew_z(m3 / m2 ** 1.5, x.size)
    z2 = _kurtosis_z(m4 / (m2 * m2), x.size)
    k2 = z1 * z1 + z2 * z2
    # exp(-k2 / 2) is the chi-square survival function at 2 degrees of freedom
    return NormalityResult(statistic=k2, p_value=math.exp(-0.5 * k2), n=int(x.size))


def welch_t(sample_a, sample_b) -> WelchResult:
    """Welch's unequal-variance two-sample t-test, two-sided."""
    a = _clean_sample(sample_a, 2, "welch_t sample_a")
    b = _clean_sample(sample_b, 2, "welch_t sample_b")
    na, nb = a.size, b.size
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    sa, sb = va / na, vb / nb
    t = (float(a.mean()) - float(b.mean())) / math.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa * sa / (na - 1.0) + sb * sb / (nb - 1.0))
    p = 2.0 * t_sf(abs(t), dof)
    return WelchResult(t_statistic=t, dof=dof, p_value=p, significant_at_05=p < ALPHA)


METRIC_KEYS = ("rmse", "mape", "r2")


@dataclass
class ComparisonResult:
    metric: str
    normality: dict         # label -> NormalityResult | str marker
    pairwise: dict          # (label_a, label_b) -> WelchResult | str marker


def _or_marker(test, *samples):
    try:
        return test(*samples)
    except InsufficientData:
        return "insufficient data"


def compare_architectures(samples_by_label: dict, metric: str) -> ComparisonResult:
    """Normality per label plus pairwise Welch tests over metric samples.

    `samples_by_label` maps an architecture label to the per-run values of
    one metric.  Cells whose samples are too small or constant to test get
    the marker string "insufficient data" instead of a result.
    """
    if metric not in METRIC_KEYS:
        raise ValueError(f"metric must be one of {METRIC_KEYS}, got {metric!r}")
    normality = {label: _or_marker(dagostino_pearson, sample)
                 for label, sample in samples_by_label.items()}
    pairwise = {(la, lb): _or_marker(welch_t, samples_by_label[la], samples_by_label[lb])
                for la, lb in itertools.combinations(samples_by_label, 2)}
    return ComparisonResult(metric=metric, normality=normality, pairwise=pairwise)


def _render_table(results: list[ComparisonResult], cells: str, heading, min_width: int,
                  rows: tuple) -> str:
    """Aligned text table: per metric, one line per (name, field) of `rows`
    and one column per key of each result's `cells` dict, headed `heading(key)`."""
    keys = list(getattr(results[0], cells)) if results else []
    heads = [heading(k) for k in keys]
    width = max([len(h) for h in heads] + [min_width]) + 2
    lines = [f"{'Metric':10s}{'':12s}" + "".join(f"{h:>{width}}" for h in heads)]
    for res in results:
        for row_name, field in rows:
            lines.append(f"{res.metric:10s}{row_name:12s}" + "".join(
                f"{'n/a':>{width}}" if isinstance(r, str) else f"{getattr(r, field):>{width}.4f}"
                for r in (getattr(res, cells)[k] for k in keys)))
    return "\n".join(lines)


def render_normality_table(results: list[ComparisonResult]) -> str:
    """Per metric, K2 statistic and p-value per label."""
    return _render_table(results, "normality", str, 10,
                         (("K2", "statistic"), ("p-value", "p_value")))


def render_pairwise_table(results: list[ComparisonResult]) -> str:
    """Per metric, Welch t and p per label pair."""
    return _render_table(results, "pairwise", lambda pair: f"({pair[0]}, {pair[1]})", 12,
                         (("t-statistic", "t_statistic"), ("p-value", "p_value")))
