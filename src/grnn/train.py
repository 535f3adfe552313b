"""Training loop and the repeated-run experiment protocol.

One `train` call is fully deterministic from its seed: weights are
initialized from the seed's stream, and per-epoch shuffling draws from a
second stream of the same seed.  The monitored quantity is the training
MSE; early stopping fires when the best loss so far has not improved by
at least 1e-12 for `patience` consecutive epochs (the test split never
influences stopping).  The weights with the lowest monitored loss are the
returned model.  Training computes in float32 (TRAIN_DTYPE): the weights,
gradients, optimizer moments and each batch of windows, which
`forward_batch` casts as it takes it (the dataset's windows stay float64
views); the loss, its sum over the epoch and early stopping stay float64.
A non-finite loss or gradient ends the run with TrainingDiverged (the
gradient usually overflows first).
A run keeps one workspace for the tapes and the backward's arrays, and
its gradients in one buffer the size of the network's largest part (a
layer; the top layer's part holds the head too): `backward` hands each
layer's part to the optimizer as soon as it is complete, top first, so a
run never holds the whole gradient vector (`network.PartGradients`).  Its
steps reuse memory instead of allocating it; the epoch's short last batch
views a prefix of the workspace's arrays.  A non-finite gradient found in
a lower layer's part ends the run after the upper parts of that step were
updated; the run is discarded, so no weights of it are kept.

`run_experiment` trains cfg.repeats runs with seeds cfg.seed, cfg.seed+1,
... and evaluates each run on the held-out test split, retaining runs whose
test R^2 clears cfg.r2_bar (0.90 by default); `[train]` loads into that
one TrainConfig.  Every run -- retained, discarded, or diverged -- stays
in the archive for statistical testing.  Runs come back in seed order.

Where the runs execute follows one rule with two paths.  A single run
trains in-process at the process's BLAS threads.  Every run of a
multi-seed experiment trains in one of `pool_size(repeats)` =
min(cores, GRNN_THREADS, repeats) workers forked from this process with
os.fork, even when that is one worker, so the dataset reaches them by
copy-on-write.  Each worker trains at one BLAS thread: the parent sets
its BLAS to one thread before its first fork and restores its count when
the pool ends, so the workers inherit one thread and none sets it
(OpenBLAS would start a helper thread in a worker that did).  Where
numpy's BLAS has no thread getter and setter, there is one worker.  The
parent starts no thread of its own: it sends each worker one seed at a
time down a pipe, waits on the workers' result pipes with `selectors`,
and reaps only its own workers.  A second BLAS thread speeds one seed up
by less than a second seed adds work, so pooled seeds finish sooner than
serial ones (README; scripts/bench.py pool, BENCH_pool.json).
Each worker holds its own network, workspace and optimizer, about 85 MB
at gru-lstm1 (BENCH_pool.json's largest worker); the parent keeps the best
run's weights only.  The cost: one and two BLAS threads round float32
differently at the c09 shape (lstm1, 47 units, batch 46), so a multi-seed
archive can differ from single runs of the same seeds, though it depends
on neither the worker count nor the core count.  Each run is scored
where it trained; `grnn evaluate` scores at the process's BLAS threads,
and at the c09 test split one and two threads give the same report.
A worker exits when its seed pipe reaches EOF: when the parent has no seed
left for it, or when the parent dies, so the workers of a killed run stop
after their current seed.  A worker that dies fails only the seed it held
("worker died"), and a fresh worker takes the remaining seeds.  Any
exception other than TrainingDiverged is a bug: the worker sends its
traceback, and the parent stops the workers and raises it as a RuntimeError
that names the seed, as a single run would raise it.  Where os.fork is
missing, a multi-seed run raises OSError.  On Python >= 3.12,
forking while BLAS threads are alive raises a DeprecationWarning.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cells import ACTIVATIONS
from .data import DataError, WindowedDataset, read_jsonl, write_jsonl
from .metrics import EvalReport, evaluate
from .network import NetworkParams, NetworkSpec, PartGradients, backward, forward_batch
from .numerics import FLOAT, Rng
from .optim import NonFiniteGradient, OptimizerState, apply

IMPROVEMENT_EPS = 1e-12
R2_RETENTION_BAR = 0.90
TRAIN_DTYPE = np.dtype(np.float32)


class TrainingDiverged(FloatingPointError):
    """Training loss or gradient became non-finite; the run is recorded as failed.

    A FloatingPointError, so that `hpo.optimize` logs it as a failed trial
    without importing this module."""


@dataclass
class TrainConfig:
    """[train]: one training run, the cell activation and the repeated-run protocol."""

    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 5
    learning_rate: float = 0.001
    seed: int = 0
    activation: str = "tanh"
    repeats: int = 48
    r2_bar: float = R2_RETENTION_BAR

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        OptimizerState(self.learning_rate)          # the optimizer checks the rate
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not math.isfinite(self.r2_bar):
            raise ValueError("r2_bar must be a finite number")


@dataclass
class TrainResult:
    best_params: NetworkParams
    epoch_losses: list
    stopped_epoch: int
    seed: int

    @property
    def best_loss(self) -> float:
        return min(self.epoch_losses)


def train(spec: NetworkSpec, data: WindowedDataset, cfg: TrainConfig) -> TrainResult:
    """Fit one network; see the module docstring for the protocol."""
    xs, ys = data.train_x, data.train_y      # forward_batch casts each batch
    n = xs.shape[0]
    if n == 0:
        raise ValueError("training split is empty")
    if xs.shape[2] != spec.input_dim:
        raise ValueError(f"dataset features {xs.shape[2]} != spec input_dim {spec.input_dim}")

    seed_rng = Rng(cfg.seed)
    params = NetworkParams.init(spec, seed_rng.child(0), TRAIN_DTYPE)
    shuffle_rng = seed_rng.child(1)
    opt = OptimizerState(cfg.learning_rate)
    ws: dict = {}
    grads = PartGradients(spec, TRAIN_DTYPE)

    def update(part):                   # backward hands each layer's part over as it completes
        apply(opt, params, part, part.start)

    best_loss = np.inf
    best_params = params.copy()
    epoch_losses: list[float] = []
    epochs_since_improvement = 0
    stopped_epoch = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            # overflow surfaces through the explicit finite checks of loss and gradient
            with np.errstate(over="ignore", invalid="ignore"):
                preds, tape = forward_batch(spec, params, xs[idx], ws)
                err = preds[:, 0] - ys[idx]
                batch_loss = float(np.mean(err * err))
                if not np.isfinite(batch_loss):
                    raise TrainingDiverged(
                        f"non-finite training loss at epoch {epoch} (seed {cfg.seed})")
                sq_err_sum += batch_loss * idx.size
                dpred = (2.0 * err / idx.size)[:, None]
                try:
                    backward(spec, params, tape, dpred, grads, ws, update)
                except NonFiniteGradient as exc:
                    raise TrainingDiverged(f"non-finite gradient at epoch {epoch} "
                                           f"(seed {cfg.seed}): {exc}") from None
        epoch_loss = sq_err_sum / n
        epoch_losses.append(epoch_loss)
        stopped_epoch = epoch

        if epoch_loss < best_loss - IMPROVEMENT_EPS:
            best_loss = epoch_loss
            np.copyto(best_params.flat, params.flat)
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
            if epochs_since_improvement >= cfg.patience:
                break

    return TrainResult(best_params=best_params,
                       epoch_losses=epoch_losses, stopped_epoch=stopped_epoch,
                       seed=cfg.seed)


@dataclass
class RunRecord:
    """One experiment run: training outcome plus its test-set evaluation."""

    seed: int
    status: str                      # "complete" | "failed"
    stopped_epoch: int = 0
    train_loss: float | None = None
    report: EvalReport | None = None
    retained: bool = False
    error: str = ""

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "RunRecord":
        report = EvalReport.from_record(rec["report"]) if rec.get("report") else None
        if rec.get("retained") and report is None:
            raise ValueError("a retained run needs a report")
        return cls(seed=rec["seed"], status=rec["status"],
                   stopped_epoch=rec.get("stopped_epoch", 0),
                   train_loss=rec.get("train_loss"), report=report,
                   retained=rec.get("retained", False), error=rec.get("error", ""))


@dataclass
class RunArchive:
    """All runs of one architecture across seeds, plus the retained subset."""

    architecture: str
    runs: list                       # RunRecord, in seed order
    best_params: NetworkParams | None = None    # weights of best(); in memory only

    @property
    def retained(self) -> list:
        return [r for r in self.runs if r.retained]

    def best(self) -> RunRecord | None:
        """Best retained run: highest R^2, then lowest MAPE, then lowest RMSE."""
        candidates = self.retained
        if not candidates:
            return None
        return min(candidates,
                   key=lambda r: (-r.report.r2, r.report.mape, r.report.rmse, r.seed))

    def metric_samples(self, metric: str) -> np.ndarray:
        return np.array([getattr(r.report, metric) for r in self.retained], dtype=FLOAT)


def _run_one(job, seed: int):
    spec, data, cfg, label = job
    cfg = replace(cfg, seed=seed)
    try:
        result = train(spec, data, cfg)
        report = evaluate(spec, result.best_params, data, seed=seed, architecture=label)
        record = RunRecord(seed=seed, status="complete",
                           stopped_epoch=result.stopped_epoch,
                           train_loss=result.best_loss, report=report,
                           retained=report.r2 > cfg.r2_bar)
        return record, result.best_params
    except TrainingDiverged as exc:
        return RunRecord(seed=seed, status="failed", error=str(exc)), None


_BLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _blas_threads():
    """(getter, setter) of numpy's BLAS thread count, or None where it has none.

    dlsym on numpy's extension module also searches the BLAS it links.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in _BLAS_SYMBOLS:
        getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


def pool_size(repeats: int) -> int:
    """Workers for a multi-seed run: min(cores, GRNN_THREADS, repeats).

    The cores are those this process may run on, or all of the machine's
    where the platform cannot tell (no os.sched_getaffinity).  Where
    numpy's BLAS has no thread getter and setter the workers could not be
    held to one BLAS thread, so the pool has one worker.
    """
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    cap = os.environ.get("GRNN_THREADS")
    if cap:
        digits = cap.strip()
        if not (digits.isascii() and digits.isdigit() and int(digits) >= 1):
            raise ValueError(f"GRNN_THREADS must be a whole number of at least 1, got {cap!r}")
        workers = min(workers, int(digits))
    if _blas_threads() is None:
        workers = 1
    return max(1, min(workers, repeats))


def _fork_worker(job, inherited: list):
    """Fork a worker that trains each seed read from its seed pipe and writes
    the pickled outcome to its result pipe; return its pid, the seed pipe's
    write end and the result pipe's read end.  The worker exits at the seed
    pipe's EOF, which also comes when this process dies, and never returns
    into the caller: an exception from a seed's run is sent as its formatted
    traceback, and any other ends the worker with os._exit(1)."""
    seeds_r, seeds_w = os.pipe()
    results_r, results_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            for fd in (seeds_w, results_r, *inherited):      # the parent's pipe ends
                os.close(fd)
            with open(seeds_r, "rb") as seeds, open(results_w, "wb") as results:
                for line in seeds:
                    try:
                        outcome = _run_one(job, int(line))
                    except Exception:           # a bug: the parent raises it
                        import traceback        # only here, so that no command loads it

                        outcome = traceback.format_exc()
                    pickle.dump(outcome, results)
                    results.flush()
                    del outcome         # the run's weights, before the next run makes its own
            os._exit(0)
        finally:
            os._exit(1)
    os.close(seeds_r)
    os.close(results_w)
    return pid, seeds_w, open(results_r, "rb")


def _run_pooled(job, seeds: list, workers: int):
    """Run `seeds` in `workers` forked workers; yield each (record,
    best_params) in seed order.  A worker holds one seed at a time and is
    sent the next when it returns one.  A worker that dies (EOF or a torn
    pickle on its result pipe) fails only the seed it held, and a fresh
    worker takes the rest.  A worker that sends a traceback stops the pool:
    it is raised as a RuntimeError naming its seed.  This process runs at
    one BLAS thread from its first fork until the pool ends, when its
    count is restored (see the module docstring)."""
    # imported here, so that commands which start no pool never load them
    import selectors
    import signal

    if not hasattr(os, "fork"):
        raise OSError("this platform has no os.fork, so train one seed per run (--repeats 1)")
    pending = list(seeds)
    early = {}                  # outcomes that finished before an earlier seed
    next_seed = 0
    sel = selectors.DefaultSelector()    # result pipe -> [pid, seed pipe, seed held]
    blas = _blas_threads()                  # (getter, setter), or None
    threads = blas[0]() if blas else None

    def send_or_retire(key, alive=True):
        if alive and pending:
            key.data[2] = pending.pop(0)
            with contextlib.suppress(BrokenPipeError):   # then its result pipe shows EOF
                os.write(key.data[1], b"%d\n" % key.data[2])
            return
        sel.unregister(key.fileobj)
        key.fileobj.close()
        os.close(key.data[1])                # the worker reads EOF and exits
        os.waitpid(key.data[0], 0)

    try:
        if blas:
            blas[1](1)                       # the workers inherit one BLAS thread
        while pending or sel.get_map():
            while pending and len(sel.get_map()) < workers:
                ours = [fd for key in sel.get_map().values() for fd in (key.fd, key.data[1])]
                pid, seeds_w, results = _fork_worker(job, ours)
                send_or_retire(sel.register(results, selectors.EVENT_READ, [pid, seeds_w, None]))
            for key, _ in sel.select():
                seed, alive = key.data[2], True
                try:
                    early[seed] = pickle.load(key.fileobj)
                except (EOFError, pickle.UnpicklingError):
                    early[seed] = RunRecord(seed=seed, status="failed", error="worker died"), None
                    alive = False
                if isinstance(early[seed], str):
                    raise RuntimeError(f"seed {seed} failed in its worker:\n{early[seed]}")
                send_or_retire(key, alive)
            while next_seed < len(seeds) and seeds[next_seed] in early:
                yield early.pop(seeds[next_seed])
                next_seed += 1
    finally:                                 # left early: stop the workers still running
        for key in list(sel.get_map().values()):
            os.kill(key.data[0], signal.SIGKILL)
            send_or_retire(key, alive=False)
        sel.close()
        if blas:
            blas[1](threads)


def run_experiment(spec: NetworkSpec, data: WindowedDataset, cfg: TrainConfig,
                   architecture: str = "", on_run=None) -> RunArchive:
    """Train cfg.repeats times with seeds cfg.seed, cfg.seed+1, ...

    Runs with test R^2 > cfg.r2_bar are retained; all runs are archived in
    seed order, and `on_run(record)` is called for each, in seed order.
    The archive keeps the weights of its best run only.  See the module
    docstring for where the runs execute.
    """
    job = (spec, data, cfg, architecture)
    if cfg.repeats == 1:
        outcomes = contextlib.nullcontext([_run_one(job, cfg.seed)])
    else:       # closed on the way out, so an exception from on_run stops the workers
        outcomes = contextlib.closing(_run_pooled(
            job, [cfg.seed + k for k in range(cfg.repeats)], pool_size(cfg.repeats)))
    archive = RunArchive(architecture=architecture, runs=[])
    with outcomes as runs:
        for record, params in runs:
            archive.runs.append(record)
            if archive.best() is record:
                archive.best_params = params
            if on_run is not None:
                on_run(record)
    return archive


def save_archive(path, archive: RunArchive) -> None:
    """Line-delimited records, one per run, preceded by an archive header;
    written atomically."""
    header = {"architecture": archive.architecture, "n_runs": len(archive.runs)}
    write_jsonl(path, [header] + [run.to_record() for run in archive.runs])


def load_archive(path) -> RunArchive:
    records = read_jsonl(path, RunRecord.from_record, first=dict)
    if not records:
        raise DataError(f"{path}: empty archive")
    header, *runs = records
    return RunArchive(architecture=header.get("architecture", ""), runs=runs)
