"""Tree-structured Parzen Estimator search over flat hyperparameter spaces.

The search space is a list of independent dimensions: integer ranges
(units per layer, batch size) and log-uniform continuous ranges
(learning rate).  Until `n_startup` trials have completed, and while
the good or the bad set below would be empty, values come from the
prior.  After that each dimension is proposed independently:
completed trials are split at the gamma quantile of the objective into a
good set and a bad set, Gaussian kernel-density estimators l(x) and g(x)
are built over each set's values in the dimension's native space (log
space for log-uniform, integers treated as continuous), n_ei_candidates
draws from l are scored, and the candidate maximizing l(x)/g(x) wins.

Kernel bandwidths use the distance-to-neighbour heuristic: each
observation's bandwidth is the larger of the gaps to its sorted
neighbours, floored at 1% of the native range and capped at the full
range.  Following the adaptive Parzen construction, each estimator also
carries the uniform prior as one extra equal-weight mixture component;
without it the good-set kernels collapse onto an early cluster and the
search stops exploring.  It also floors a mixture of n kernels at
1/((n+1)(hi-lo)), so the density cannot underflow, and BANDWIDTH_FLOOR
bounds each kernel's peak: the density is summed directly, one exp per
kernel and one log, with no log-sum-exp max and shift.  Proposals are
clamped to their bounds, so a suggestion can never leave its range.

Trial histories serialize to line-delimited JSON and runs can resume from
a partial file; each trial draws from an independent seed-derived stream,
so a resumed run reproduces the uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import check_type, read_jsonl, write_jsonl
from .numerics import FLOAT, Rng

BANDWIDTH_FLOOR = 0.01      # least kernel width, as a fraction of the native range


@dataclass(frozen=True)
class IntUniform:
    """Uniform integers on [low, high]."""

    name: str
    low: int
    high: int

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"{self.name}: low must be < high, got [{self.low}, {self.high}]")

    def sample_prior(self, rng: Rng):
        return int(self.low + rng.integers(0, self.high - self.low))

    def to_native(self, value) -> float:
        return float(value)

    def from_native(self, x: float):
        snapped = self.low + np.round(np.asarray(x) - self.low)
        return np.clip(snapped, self.low, self.high).astype(np.int64)

    def native_bounds(self):
        return float(self.low), float(self.high)


@dataclass(frozen=True)
class LogUniform:
    """exp(uniform(log low, log high)); the native space is log."""

    name: str
    low: float
    high: float

    def __post_init__(self):
        if not 0.0 < self.low < self.high < math.inf:
            raise ValueError(f"{self.name}: need 0 < low < high < inf, "
                             f"got [{self.low}, {self.high}]")

    def sample_prior(self, rng: Rng):
        return float(np.exp(rng.uniform(math.log(self.low), math.log(self.high))))

    def to_native(self, value) -> float:
        return math.log(float(value))

    def from_native(self, x: float):
        return np.clip(np.exp(np.asarray(x, dtype=FLOAT)), self.low, self.high)

    def native_bounds(self):
        return math.log(self.low), math.log(self.high)


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple

    def __post_init__(self):
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")

    def sample_prior(self, rng: Rng) -> dict:
        return {d.name: d.sample_prior(rng) for d in self.dims}

    def check(self, values) -> None:
        """Raise KeyError, TypeError or ValueError unless `values` holds a
        finite number for every dimension, an int for an integer one."""
        check_type(values, dict, "'values'")
        for d in self.dims:
            kind = int if isinstance(d, IntUniform) else float
            value = check_type(values[d.name], kind, f"value of {d.name!r}")
            if not math.isfinite(d.to_native(value)):
                raise ValueError(f"value of {d.name!r} is not finite: {value!r}")


@dataclass
class Trial:
    trial_id: int
    values: dict
    objective: float | None
    status: str                  # "complete" | "failed"
    error: str = ""

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "Trial":
        if rec["status"] == "complete" and not math.isfinite(
                check_type(rec["objective"], float, "objective")):
            raise ValueError(f"objective {rec['objective']!r} of a complete trial is not finite")
        return cls(trial_id=rec["trial_id"], values=rec["values"],
                   objective=rec["objective"], status=rec["status"],
                   error=rec.get("error", ""))


@dataclass
class TpeConfig:
    """[hpo]: the TPE search, the trial budget and the search bounds."""

    n_trials: int = 60
    n_startup: int = 20
    gamma: float = 0.25
    n_ei_candidates: int = 24
    seed: int = 0
    max_epochs: int = 40
    train_seed: int = 0
    units_low: int = 32
    units_high: int = 512
    lr_low: float = 1e-4
    lr_high: float = 1e-2
    batch_low: int = 16
    batch_high: int = 128

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.n_startup < 0:
            raise ValueError("n_startup must be >= 0")
        if self.n_startup >= self.n_trials:
            raise ValueError("n_startup must be < n_trials")
        if self.n_ei_candidates < 1:
            raise ValueError("n_ei_candidates must be >= 1")
        if self.seed < 0 or self.train_seed < 0:
            raise ValueError("seed and train_seed must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.units_low < 1:
            raise ValueError("units_low must be >= 1")
        if self.batch_low < 1:
            raise ValueError("batch_low must be >= 1")


def split_good_bad(complete: list[Trial], gamma: float):
    """Best ceil(gamma*n) trials by objective, then the rest; ids break ties."""
    ordered = sorted(complete, key=lambda t: (t.objective, t.trial_id))
    n_good = int(math.ceil(gamma * len(ordered)))
    return ordered[:n_good], ordered[n_good:]


def _bandwidths(sorted_obs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-point kernel widths: the larger gap to the sorted neighbours.

    Clipped below by span/(n+1) -- wide kernels while evidence is thin,
    tightening as the set grows -- and by BANDWIDTH_FLOOR of the range;
    capped at the full range.
    """
    span = hi - lo
    n = sorted_obs.size
    if n == 1:
        bw = np.array([span], dtype=FLOAT)
    else:
        gaps = np.diff(sorted_obs)
        left = np.concatenate(([gaps[0]], gaps))
        right = np.concatenate((gaps, [gaps[-1]]))
        bw = np.maximum(left, right)
    floor = max(BANDWIDTH_FLOOR * span, span / (n + 1.0))
    return np.clip(bw, floor, span)


def _kde_logpdf(x: np.ndarray, mus: np.ndarray, sigmas: np.ndarray,
                lo: float, hi: float) -> np.ndarray:
    """log density of the Gaussian mixture plus the uniform prior component,
    all len(mus)+1 of equal weight (summed directly; see the module docstring)."""
    z = np.subtract.outer(x, mus)
    z /= sigmas
    z *= z
    z *= -0.5
    dens = np.exp(z, out=z) @ (1.0 / (sigmas * math.sqrt(2.0 * math.pi)))
    return np.log((dens + 1.0 / (hi - lo)) / (mus.size + 1))


def _suggest_dim(dist, good_native: np.ndarray, bad_native: np.ndarray,
                 cfg: TpeConfig, rng: Rng, n: int = 1) -> np.ndarray:
    """n independent TPE proposals for one dimension, in value space."""
    lo, hi = dist.native_bounds()
    g_sorted = np.sort(good_native)
    b_sorted = np.sort(bad_native)
    g_bw = _bandwidths(g_sorted, lo, hi)
    b_bw = _bandwidths(b_sorted, lo, hi)

    # component good_n means "draw from the uniform prior"
    idx = rng.integers(0, g_sorted.size, size=(n, cfg.n_ei_candidates))
    kernel = np.minimum(idx, g_sorted.size - 1)
    cand = g_sorted[kernel] + g_bw[kernel] * rng.standard_normal((n, cfg.n_ei_candidates))
    from_prior = idx == g_sorted.size
    cand = np.where(from_prior, rng.uniform(lo, hi, size=cand.shape), cand)
    cand = np.clip(cand, lo, hi)

    flat = cand.ravel()
    score = (_kde_logpdf(flat, g_sorted, g_bw, lo, hi)
             - _kde_logpdf(flat, b_sorted, b_bw, lo, hi))
    best = np.argmax(score.reshape(n, cfg.n_ei_candidates), axis=1)
    chosen = cand[np.arange(n), best]
    return dist.from_native(chosen)


def suggest(history: list[Trial], space: SearchSpace, cfg: TpeConfig, rng: Rng) -> dict:
    """Propose values for every dimension given the trials so far."""
    complete = [t for t in history if t.status == "complete"]
    good, bad = split_good_bad(complete, cfg.gamma)
    if len(complete) < cfg.n_startup or not good or not bad:
        return space.sample_prior(rng)
    out = {}
    for dim in space.dims:
        g = np.array([dim.to_native(t.values[dim.name]) for t in good], dtype=FLOAT)
        b = np.array([dim.to_native(t.values[dim.name]) for t in bad], dtype=FLOAT)
        value = _suggest_dim(dim, g, b, cfg, rng, n=1)[0]
        out[dim.name] = int(value) if isinstance(dim, IntUniform) else float(value)
    return out


def _values_key(values: dict) -> tuple:
    return tuple(sorted(values.items()))


def optimize(objective, space: SearchSpace, cfg: TpeConfig,
             history: list[Trial] | None = None, on_trial=None):
    """Run suggest->evaluate cycles until the history holds cfg.n_trials.

    `objective` maps a values dict to a float loss.  A FloatingPointError
    (a diverged run: `train.TrainingDiverged`) or a non-finite return marks
    the trial failed; any other exception is a bug and propagates, and no
    trial is recorded for it.  The objective must be
    deterministic: an exact repeat of a finished trial's values takes that
    trial's outcome instead of calling it again.  Returns (best trial or
    None if nothing completed, full history).  Passing a partial history
    resumes it; trial k always draws from stream k of cfg.seed, so the
    resumed run matches the uninterrupted one.
    """
    history = list(history) if history else []
    base = Rng(cfg.seed)
    finished = {}
    for t in history:
        finished.setdefault(_values_key(t.values), t)
    while len(history) < cfg.n_trials:
        trial_id = len(history)
        values = suggest(history, space, cfg, base.child(trial_id))
        key = _values_key(values)
        if key in finished:
            same = finished[key]
            trial = Trial(trial_id, values, same.objective, same.status, same.error)
        else:
            try:
                result = float(objective(values))
            except FloatingPointError as exc:       # a diverged run
                result, error = math.nan, f"{type(exc).__name__}: {exc}"
            else:
                error = f"ValueError: objective returned {result}"
            if math.isfinite(result):
                trial = Trial(trial_id, values, result, "complete")
            else:
                trial = Trial(trial_id, values, None, "failed", error=error)
            finished[key] = trial
        history.append(trial)
        if on_trial is not None:
            on_trial(trial)
    complete = [t for t in history if t.status == "complete"]
    best = min(complete, key=lambda t: (t.objective, t.trial_id)) if complete else None
    return best, history


def save_history(path, history: list[Trial]) -> None:
    """Write a whole trial log atomically (`data.write_jsonl`)."""
    write_jsonl(path, [t.to_record() for t in history])


def load_history(path, space: SearchSpace | None = None) -> list[Trial]:
    """Trials of a log; with `space`, each trial's values are checked against it.

    A last line with no newline that is not valid JSON is the torn end of
    an interrupted append and is dropped.
    """
    def parse(record):
        trial = Trial.from_record(record)
        if space is not None:
            space.check(trial.values)
        return trial

    return read_jsonl(path, parse, drop_torn_tail=True)
