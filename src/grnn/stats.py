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

import math
from dataclasses import dataclass

import numpy as np

from .numerics import FLOAT
from .special import chi2_sf, t_sf

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


def _clean_sample(sample, min_n: int, what: str) -> np.ndarray:
    x = np.asarray(sample, dtype=FLOAT).ravel()
    if x.size < min_n:
        raise ValueError(f"{what}: need at least {min_n} observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: sample contains non-finite values")
    if float(np.var(x)) == 0.0:
        raise ValueError(f"{what}: sample has zero variance")
    return x


def _skew_z(x: np.ndarray) -> float:
    """D'Agostino (1970) normalizing transform of the sample skewness."""
    n = x.size
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    m3 = np.mean((x - m) ** 3)
    b1 = m3 / m2 ** 1.5
    y = b1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = (3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
             / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0)))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    if y == 0.0:
        return 0.0
    return delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))


def _kurtosis_z(x: np.ndarray) -> float:
    """Anscombe & Glynn (1983) normalizing transform of the sample kurtosis."""
    n = x.size
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    m4 = np.mean((x - m) ** 4)
    b2 = m4 / (m2 * m2)
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
    z1 = _skew_z(x)
    z2 = _kurtosis_z(x)
    k2 = z1 * z1 + z2 * z2
    return NormalityResult(statistic=k2, p_value=chi2_sf(k2, 2.0), n=int(x.size))


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


def compare_architectures(samples_by_label: dict, metric: str) -> ComparisonResult:
    """Normality per label plus pairwise Welch tests over metric samples.

    `samples_by_label` maps an architecture label to the per-run values of
    one metric.  Cells without enough runs get the marker string
    "insufficient data" instead of a result.
    """
    if metric not in METRIC_KEYS:
        raise ValueError(f"metric must be one of {METRIC_KEYS}, got {metric!r}")
    labels = list(samples_by_label)
    normality = {}
    for label in labels:
        values = np.asarray(samples_by_label[label], dtype=FLOAT)
        if values.size < MIN_NORMALITY_N or float(np.var(values)) == 0.0:
            normality[label] = "insufficient data"
        else:
            normality[label] = dagostino_pearson(values)
    pairwise = {}
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            a = np.asarray(samples_by_label[la], dtype=FLOAT)
            b = np.asarray(samples_by_label[lb], dtype=FLOAT)
            if (a.size < 2 or b.size < 2
                    or float(np.var(a, ddof=1)) == 0.0 or float(np.var(b, ddof=1)) == 0.0):
                pairwise[(la, lb)] = "insufficient data"
            else:
                pairwise[(la, lb)] = welch_t(a, b)
    return ComparisonResult(metric=metric, normality=normality, pairwise=pairwise)


def render_normality_table(results: list[ComparisonResult]) -> str:
    """Aligned text table: per metric, K2 statistic and p-value per label."""
    labels = list(results[0].normality) if results else []
    width = max([len(l) for l in labels] + [10]) + 2
    header = f"{'Metric':10s}{'':12s}" + "".join(f"{l:>{width}}" for l in labels)
    lines = [header]
    for res in results:
        for row_name, getter in (("K2", lambda r: r.statistic), ("p-value", lambda r: r.p_value)):
            cells = []
            for l in labels:
                r = res.normality[l]
                cells.append(f"{getter(r):>{width}.4f}" if isinstance(r, NormalityResult)
                             else f"{'n/a':>{width}}")
            lines.append(f"{res.metric:10s}{row_name:12s}" + "".join(cells))
    return "\n".join(lines)


def render_pairwise_table(results: list[ComparisonResult]) -> str:
    """Aligned text table: per metric, Welch t and p per label pair."""
    pairs = list(results[0].pairwise) if results else []
    cols = [f"({a}, {b})" for a, b in pairs]
    width = max([len(c) for c in cols] + [12]) + 2
    header = f"{'Metric':10s}{'':12s}" + "".join(f"{c:>{width}}" for c in cols)
    lines = [header]
    for res in results:
        for row_name, getter in (("t-statistic", lambda r: r.t_statistic),
                                 ("p-value", lambda r: r.p_value)):
            cells = []
            for pair in pairs:
                r = res.pairwise[pair]
                cells.append(f"{getter(r):>{width}.4f}" if isinstance(r, WelchResult)
                             else f"{'n/a':>{width}}")
            lines.append(f"{res.metric:10s}{row_name:12s}" + "".join(cells))
    return "\n".join(lines)
