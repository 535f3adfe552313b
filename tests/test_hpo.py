import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grnn.hpo import (
    IntUniform,
    LogUniform,
    SearchSpace,
    TpeConfig,
    Trial,
    load_history,
    optimize,
    save_history,
    split_good_bad,
    suggest,
)
from grnn.numerics import Rng

UNITS = IntUniform("units", 32, 512)
LR = LogUniform("learning_rate", 1e-4, 1e-2)
BATCH = IntUniform("batch_size", 16, 128)
SPACE = SearchSpace((UNITS, LR, BATCH))


def bowl(values):
    return ((values["units"] - 272) / 240.0) ** 2 \
        + (math.log10(values["learning_rate"]) + 3.0) ** 2


def make_history(rng, n, objective=bowl, fail_every=0):
    out = []
    for i in range(n):
        values = SPACE.sample_prior(rng)
        if fail_every and i % fail_every == 0:
            out.append(Trial(i, values, None, "failed"))
        else:
            out.append(Trial(i, values, objective(values), "complete"))
    return out


# --- priors ------------------------------------------------------------------

def test_int_prior_covers_range_and_endpoints():
    rng = Rng(1)
    draws = np.array([UNITS.sample_prior(rng) for _ in range(100_000)])
    assert draws.min() == 32 and draws.max() == 512
    assert np.all((draws >= 32) & (draws <= 512))


def test_log_prior_median_is_geometric_mean():
    rng = Rng(2)
    draws = np.array([LR.sample_prior(rng) for _ in range(100_000)])
    assert np.all((draws >= 1e-4) & (draws <= 1e-2))
    assert abs(np.median(draws) - 1e-3) <= 0.15e-3


def test_degenerate_distributions_rejected():
    with pytest.raises(ValueError):
        IntUniform("x", 8, 8)
    with pytest.raises(ValueError):
        LogUniform("x", 1e-3, 1e-3)
    with pytest.raises(ValueError):
        LogUniform("x", 0.0, 1.0)


# --- suggest ----------------------------------------------------------------

def test_suggest_on_empty_history_samples_prior():
    values = suggest([], SPACE, TpeConfig(seed=0), Rng(4))
    assert 32 <= values["units"] <= 512
    assert 1e-4 <= values["learning_rate"] <= 1e-2
    assert 16 <= values["batch_size"] <= 128


def test_split_good_bad_sizes():
    rng = Rng(5)
    for n in (2, 3, 7, 20, 21, 60):
        hist = make_history(rng, n)
        good, bad = split_good_bad(hist, 0.25)
        assert len(good) == math.ceil(0.25 * n)
        assert len(bad) == n - len(good)
        assert len(good) >= 1 and len(bad) >= 1
        assert max(t.objective for t in good) <= min(t.objective for t in bad)


def test_suggest_respects_bounds_after_startup():
    rng = Rng(6)
    hist = make_history(rng, 40)
    for k in range(200):
        values = suggest(hist, SPACE, TpeConfig(seed=0), rng)
        assert 32 <= values["units"] <= 512
        assert 1e-4 <= values["learning_rate"] <= 1e-2
        assert 16 <= values["batch_size"] <= 128
        assert isinstance(values["units"], int)
        assert isinstance(values["batch_size"], int)


def test_suggest_falls_back_to_prior_when_all_failed():
    rng = Rng(7)
    hist = [Trial(i, SPACE.sample_prior(rng), None, "failed") for i in range(30)]
    values = suggest(hist, SPACE, TpeConfig(seed=0), rng)
    assert 32 <= values["units"] <= 512


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(0, 59))
def test_suggest_bounds_under_fuzzed_histories(seed, n_hist):
    rng = Rng(seed)
    hist = make_history(rng, n_hist, fail_every=7)
    values = suggest(hist, SPACE, TpeConfig(seed=seed), rng)
    assert 32 <= values["units"] <= 512
    assert 1e-4 <= values["learning_rate"] <= 1e-2
    assert 16 <= values["batch_size"] <= 128


# --- optimize ---------------------------------------------------------------

def test_optimize_history_length_and_best():
    best, hist = optimize(bowl, SPACE, TpeConfig(n_trials=25, n_startup=5, seed=1))
    assert len(hist) == 25
    assert [t.trial_id for t in hist] == list(range(25))
    assert best.objective == min(t.objective for t in hist if t.status == "complete")


def test_optimize_constant_objective_picks_first_trial():
    best, hist = optimize(lambda v: 1.0, SPACE,
                          TpeConfig(n_trials=10, n_startup=3, seed=2))
    assert best.trial_id == 0
    assert len(hist) == 10


def test_optimize_all_failures_yields_none():
    def boom(values):
        raise RuntimeError("nope")

    best, hist = optimize(boom, SPACE, TpeConfig(n_trials=8, n_startup=2, seed=3))
    assert best is None
    assert all(t.status == "failed" for t in hist)
    assert len(hist) == 8


def test_optimize_marks_nonfinite_objective_failed():
    def sometimes(values):
        return float("inf") if values["units"] % 2 else 1.0

    _, hist = optimize(sometimes, SPACE, TpeConfig(n_trials=12, n_startup=4, seed=4))
    assert {t.status for t in hist} == {"complete", "failed"}


def test_optimize_deterministic_for_fixed_seed():
    cfg = TpeConfig(n_trials=30, n_startup=10, seed=11)
    best1, hist1 = optimize(bowl, SPACE, cfg)
    best2, hist2 = optimize(bowl, SPACE, cfg)
    assert [t.values for t in hist1] == [t.values for t in hist2]
    assert best1.trial_id == best2.trial_id


def test_optimize_resume_matches_uninterrupted(tmp_path):
    cfg = TpeConfig(n_trials=40, n_startup=10, seed=12)
    _, full = optimize(bowl, SPACE, cfg)

    cfg_half = TpeConfig(n_trials=20, n_startup=10, seed=12)
    _, half = optimize(bowl, SPACE, cfg_half)
    path = tmp_path / "trials.jsonl"
    save_history(path, half)

    calls = []

    def counting(values):
        calls.append(values)
        return bowl(values)

    _, resumed = optimize(counting, SPACE, cfg, history=load_history(path))
    assert len(calls) == 20          # exactly the remaining trials run
    assert [t.values for t in resumed] == [t.values for t in full]
    assert [t.objective for t in resumed] == [t.objective for t in full]


def test_a_repeated_trial_takes_the_recorded_outcome():
    space = SearchSpace((IntUniform("units", 4, 6),))
    calls = []

    def objective(values):
        calls.append(values["units"])
        if values["units"] == 6:
            raise RuntimeError("too wide")
        return float(values["units"])

    cfg = TpeConfig(n_trials=10, n_startup=2, seed=3)
    _, hist = optimize(objective, space, cfg)
    first = {}
    for t in hist:
        seen = first.setdefault(t.values["units"], t)
        assert (t.objective, t.status, t.error) == (seen.objective, seen.status, seen.error)
    assert sorted(calls) == sorted(first)          # each distinct value ran once
    assert {t.status for t in hist} == {"complete", "failed"}

    calls.clear()
    _, resumed = optimize(objective, space, cfg, history=hist[:len(hist) - 1])
    assert calls == []                  # the last trial repeats an earlier one
    assert [t.to_record() for t in resumed] == [t.to_record() for t in hist]


def test_history_file_roundtrip(tmp_path):
    rng = Rng(13)
    hist = make_history(rng, 15, fail_every=5)
    path = tmp_path / "h.jsonl"
    save_history(path, hist)
    back = load_history(path)
    assert [t.to_record() for t in back] == [t.to_record() for t in hist]
    with open(path, encoding="utf-8") as fh:
        assert all(json.loads(line) for line in fh if line.strip())


def test_tpe_beats_prior_sampling_on_smooth_objective():
    cfg = TpeConfig(seed=21)
    best, _ = optimize(bowl, SearchSpace((UNITS, LR)), cfg)
    assert best.objective < 0.05


def test_tpe_config_validation():
    with pytest.raises(ValueError):
        TpeConfig(gamma=0.0)
    with pytest.raises(ValueError):
        TpeConfig(n_trials=10, n_startup=10)


@pytest.mark.parametrize("n_startup", [0, 1])
def test_tiny_startup_draws_from_the_prior_until_both_sets_fill(n_startup):
    cfg = TpeConfig(n_trials=6, n_startup=n_startup, seed=14)
    for n_complete in (0, 1):
        hist = make_history(Rng(15), n_complete)
        assert suggest(hist, SPACE, cfg, Rng(16)) == SPACE.sample_prior(Rng(16))
    _, hist = optimize(bowl, SPACE, cfg)
    assert [t.status for t in hist] == ["complete"] * 6


def test_negative_startup_is_rejected():
    with pytest.raises(ValueError, match="n_startup must be >= 0"):
        TpeConfig(n_trials=10, n_startup=-1)


def test_torn_last_line_of_a_history_is_dropped(tmp_path):
    hist = make_history(Rng(17), 3)
    path = tmp_path / "trials.jsonl"
    save_history(path, hist)
    text = path.read_text()
    path.write_text(text[:-20])
    assert [t.to_record() for t in load_history(path)] == [t.to_record() for t in hist[:2]]
    path.write_text(text[:-1])          # only the newline lost: the record is whole
    assert len(load_history(path)) == 3
