import math

import numpy as np
import pytest

from grnn.numerics import Rng
from grnn.special import betainc, t_sf
from grnn.stats import (
    ComparisonResult,
    compare_architectures,
    dagostino_pearson,
    render_normality_table,
    render_pairwise_table,
    welch_t,
)

# Reference values computed once with an independent implementation
# (scipy.special / scipy.stats) and frozen here.
BETAINC_REFS = [
    ((0.5, 0.5, 0.3), 0.36901011956554536),
    ((2.0, 3.0, 0.5), 0.6875),
    ((10.0, 0.5, 0.9), 0.15164090963470994),
    ((4.0, 4.0, 0.1), 0.0027280000000000004),
    ((0.5, 9.0, 0.02), 0.44797863601129156),
    ((25.0, 25.0, 0.55), 0.7597043439619476),
]
T_SF_REFS = [
    ((0.0, 5.0), 0.5),
    ((1.0, 8.0), 0.17329675354366708),
    ((2.5, 3.7), 0.035911011455913376),
    ((-1.3, 12.0), 0.8909914144582428),
    ((6.0, 2.0), 0.013335736607712385),
]


def test_special_functions_match_reference_table():
    for (a, b, x), want in BETAINC_REFS:
        assert abs(betainc(a, b, x) - want) < 1e-10
    for (t, d), want in T_SF_REFS:
        assert abs(t_sf(t, d) - want) < 1e-10


def test_distribution_anchor_points():
    assert t_sf(0.0, 7.0) == 0.5


def test_p_monotone_in_t():
    ts = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    ps = [2.0 * t_sf(t, 9.0) for t in ts]
    assert all(a > b for a, b in zip(ps, ps[1:]))


# --- D'Agostino-Pearson ----------------------------------------------------

def fixed_sample_50():
    rng = np.random.Generator(np.random.Philox(key=2024))
    return np.round(rng.normal(10.0, 2.0, size=50) + 0.3 * rng.uniform(size=50), 6)


def test_dagostino_matches_reference_implementation():
    res = dagostino_pearson(fixed_sample_50())
    assert res.statistic == pytest.approx(1.5816817844787967, abs=1e-6)
    assert res.p_value == pytest.approx(0.4534633211279182, abs=1e-6)
    assert res.n == 50
    assert res.p_value == math.exp(-0.5 * res.statistic)    # chi-square tail at 2 dof


def test_dagostino_preconditions():
    with pytest.raises(ValueError):
        dagostino_pearson(np.arange(19.0))
    with pytest.raises(ValueError):
        dagostino_pearson(np.full(25, 3.0))


def test_dagostino_accepts_normal_samples():
    rng = Rng(909)
    accept = sum(
        dagostino_pearson(rng.standard_normal(10_000)).p_value > 0.05
        for _ in range(100))
    assert accept >= 95


def test_dagostino_rejects_uniform_samples():
    rng = Rng(910)
    reject = sum(
        dagostino_pearson(rng.uniform(0.0, 1.0, size=1000)).p_value < 0.05
        for _ in range(100))
    assert reject >= 95


# --- Welch -----------------------------------------------------------------

def test_welch_identical_samples():
    res = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.t_statistic == 0.0
    assert res.p_value == pytest.approx(1.0, abs=1e-15)
    assert not res.significant_at_05


def test_welch_hand_example():
    res = welch_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert res.t_statistic == pytest.approx(-1.0, abs=1e-12)
    assert res.dof == pytest.approx(8.0, abs=1e-12)
    assert res.p_value == pytest.approx(0.34659350708733416, abs=1e-6)


def test_welch_second_reference():
    a = [12.1, 14.3, 11.8, 13.5, 12.9, 15.0, 13.3]
    b = [10.2, 11.9, 10.8, 12.4]
    res = welch_t(a, b)
    assert res.t_statistic == pytest.approx(2.9430809358386174, abs=1e-6)
    assert res.dof == pytest.approx(7.104756532926345, abs=1e-6)
    assert res.p_value == pytest.approx(0.02125681392126196, abs=1e-6)
    assert res.significant_at_05


def test_welch_antisymmetry():
    rng = Rng(77)
    a, b = rng.standard_normal(12), rng.standard_normal(15) + 0.4
    fwd, rev = welch_t(a, b), welch_t(b, a)
    assert fwd.t_statistic == pytest.approx(-rev.t_statistic, rel=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)


def test_welch_dof_bounds():
    rng = Rng(78)
    for _ in range(20):
        na, nb = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        res = welch_t(rng.standard_normal(na), 2 * rng.standard_normal(nb))
        assert min(na, nb) - 1 <= res.dof <= na + nb - 2 + 1e-12


def test_welch_degenerate_samples():
    with pytest.raises(ValueError):
        welch_t([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        welch_t([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# --- architecture comparison ------------------------------------------------

def test_compare_single_architecture():
    rng = Rng(5)
    res = compare_architectures({"lstm1": rng.standard_normal(30)}, "rmse")
    assert res.pairwise == {}
    assert set(res.normality) == {"lstm1"}


def test_compare_same_distribution_rarely_rejects():
    rng = Rng(6)
    hits = 0
    for _ in range(50):
        a = rng.standard_normal(30) + 5.0
        b = rng.standard_normal(30) + 5.0
        res = compare_architectures({"a": a, "b": b}, "rmse")
        hits += res.pairwise[("a", "b")].p_value > 0.05
    assert hits >= 45      # >= 90% of repeats


def test_compare_detects_large_shift():
    rng = Rng(7)
    a = rng.standard_normal(30)
    b = rng.standard_normal(30) + 5.0
    res = compare_architectures({"a": a, "b": b}, "mape")
    assert res.pairwise[("a", "b")].p_value < 0.001


def test_compare_insufficient_data_markers():
    res = compare_architectures({"a": np.array([1.0]), "b": np.arange(25.0)}, "r2")
    assert res.normality["a"] == "insufficient data"
    assert res.pairwise[("a", "b")] == "insufficient data"
    assert not isinstance(res.normality["b"], str)


def test_compare_marks_constant_samples_and_rejects_non_finite():
    res = compare_architectures({"a": np.full(25, 2.0), "b": np.arange(25.0)}, "rmse")
    assert res.normality["a"] == "insufficient data"
    assert res.pairwise[("a", "b")] == "insufficient data"
    with pytest.raises(ValueError, match="non-finite"):
        compare_architectures({"a": np.append(np.arange(24.0), np.inf),
                               "b": np.arange(25.0)}, "rmse")


def test_render_tables_shape():
    rng = Rng(8)
    results = [compare_architectures(
        {"lstm1": rng.standard_normal(25) + 3,
         "gru1": rng.standard_normal(25) + 3}, metric)
        for metric in ("rmse", "mape", "r2")]
    norm_tbl = render_normality_table(results)
    pair_tbl = render_pairwise_table(results)
    assert "lstm1" in norm_tbl and "gru1" in norm_tbl
    assert "(lstm1, gru1)" in pair_tbl
    assert len(norm_tbl.splitlines()) == 1 + 3 * 2
    assert len(pair_tbl.splitlines()) == 1 + 3 * 2
    # short labels keep the minimum column widths: 10 and 12, plus 2
    short = [compare_architectures({"a": rng.standard_normal(25),
                                    "b": rng.standard_normal(25)}, "rmse")]
    assert render_normality_table(short).splitlines()[0] == f"{'Metric':22s}{'a':>12}{'b':>12}"
    assert render_pairwise_table(short).splitlines()[0] == f"{'Metric':22s}{'(a, b)':>14}"
