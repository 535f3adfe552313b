import datetime as dt
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import grnn.train as train_module
from grnn.data import NormalizationParams, WindowedDataset
from grnn.metrics import evaluate
from grnn.network import (
    LayerSpec,
    NetworkParams,
    NetworkSpec,
    PartGradients,
    backward,
    forward_batch,
)
from grnn.numerics import FLOAT, Rng
from grnn.optim import NonFiniteGradient, OptimizerState, apply
from grnn.train import (
    TRAIN_DTYPE,
    RunArchive,
    TrainConfig,
    TrainingDiverged,
    load_archive,
    run_experiment,
    save_archive,
    train,
)

SINE_SPEC = NetworkSpec(layers=(LayerSpec("lstm", 16),), input_dim=1)


def zero_dataset(n=12, lookback=3):
    """All-zero inputs and targets: the loss is exactly constant."""
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    return WindowedDataset(
        train_x=np.zeros((n, lookback, 1), dtype=FLOAT),
        train_y=np.zeros(n, dtype=FLOAT),
        test_x=np.zeros((4, lookback, 1), dtype=FLOAT),
        test_y=np.zeros(4, dtype=FLOAT),
        norm=NormalizationParams({"X": (0.0, 1.0)}),
        feature_order=["X"], target_name="X", lookback=lookback,
        train_dates=dates, test_dates=dates[:4],
    )


def test_constant_loss_stops_after_patience_plus_one():
    spec = NetworkSpec(layers=(LayerSpec("lstm", 2),), input_dim=1)
    cfg = TrainConfig(batch_size=4, max_epochs=100, patience=5, seed=0)
    result = train(spec, zero_dataset(), cfg)
    assert result.stopped_epoch == 6          # epoch 1 sets best, 5 misses follow
    assert len(result.epoch_losses) == 6
    assert result.epoch_losses == [0.0] * 6


def test_decreasing_loss_runs_to_max_epochs(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=12, patience=5,
                      learning_rate=3e-3, seed=1)
    result = train(SINE_SPEC, sine_dataset, cfg)
    assert result.stopped_epoch == 12
    assert all(a > b for a, b in zip(result.epoch_losses, result.epoch_losses[1:]))


def test_train_is_deterministic(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=8, patience=5,
                      learning_rate=3e-3, seed=7)
    r1 = train(SINE_SPEC, sine_dataset, cfg)
    r2 = train(SINE_SPEC, sine_dataset, cfg)
    assert r1.best_params.flat.dtype == np.float32
    assert np.array(r1.epoch_losses).tobytes() == np.array(r2.epoch_losses).tobytes()
    assert r1.best_params.flat.tobytes() == r2.best_params.flat.tobytes()


def test_nonfinite_gradient_is_reported_as_divergence(sine_dataset, monkeypatch):
    def poisoned_apply(state, params, grads, start=0):
        grads.flat[-1] = np.inf             # head.b, the last element of the only part
        apply(state, params, grads, start)

    monkeypatch.setattr(train_module, "apply", poisoned_apply)
    cfg = TrainConfig(batch_size=16, max_epochs=3, seed=4)
    with pytest.raises(TrainingDiverged, match=r"gradient at epoch 1 \(seed 4\).*head.b"):
        train(SINE_SPEC, sine_dataset, cfg)


def test_sine_smoke_reaches_low_loss(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=500, patience=5,
                      learning_rate=3e-3, seed=42)
    result = train(SINE_SPEC, sine_dataset, cfg)
    assert result.best_loss < 1e-3
    report = evaluate(SINE_SPEC, result.best_params, sine_dataset)
    assert report.r2 > 0.99


def test_early_stop_invariant(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=60, patience=3,
                      learning_rate=0.05, seed=3)
    result = train(SINE_SPEC, sine_dataset, cfg)
    assert result.best_loss == min(result.epoch_losses)
    gap = result.stopped_epoch - (int(np.argmin(result.epoch_losses)) + 1)
    assert 0 <= gap <= cfg.patience


def test_batch_one_and_full_batch_both_converge(sine_dataset):
    for batch in (1, sine_dataset.train_x.shape[0]):
        cfg = TrainConfig(batch_size=batch, max_epochs=40, patience=40,
                          learning_rate=3e-3, seed=5)
        result = train(SINE_SPEC, sine_dataset, cfg)
        assert result.best_loss < 0.02, f"batch={batch}"


def test_divergence_is_reported(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=50, patience=50,
                      learning_rate=1e20, seed=2)
    with pytest.raises(TrainingDiverged):
        train(SINE_SPEC, sine_dataset, cfg)


def test_run_experiment_determinism_and_retention(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=120, patience=5,
                      learning_rate=3e-3, repeats=2, seed=42)
    arc1 = run_experiment(SINE_SPEC, sine_dataset, cfg, architecture="lstm1")
    arc2 = run_experiment(SINE_SPEC, sine_dataset, cfg, architecture="lstm1")
    assert [r.to_record() for r in arc1.runs] == [r.to_record() for r in arc2.runs]
    assert [r.seed for r in arc1.runs] == [42, 43]
    assert all(r.retained for r in arc1.runs)          # sine runs clear 0.90 easily
    best = arc1.best()
    assert best.report.r2 == max(r.report.r2 for r in arc1.runs)


def test_run_experiment_zero_retained_is_not_a_crash(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=1, patience=5,
                      learning_rate=1e-5, repeats=2, seed=0, r2_bar=0.999999)
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg, architecture="lstm1")
    assert archive.best() is None
    assert archive.retained == []
    assert len(archive.runs) == 2


def test_run_experiment_records_failed_runs(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=30, patience=30,
                      learning_rate=1e20, repeats=2, seed=9)
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg)
    assert all(r.status == "failed" for r in archive.runs)
    assert all(r.report is None for r in archive.runs)
    assert archive.best() is None


def test_archive_roundtrip_and_byte_determinism(tmp_path, sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=60, patience=5,
                      learning_rate=3e-3, repeats=2, seed=11)
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg, architecture="lstm1")
    p1, p2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
    save_archive(p1, archive)
    save_archive(p2, run_experiment(SINE_SPEC, sine_dataset, cfg, architecture="lstm1"))
    assert p1.read_bytes() == p2.read_bytes()
    back = load_archive(p1)
    assert back.architecture == "lstm1"
    assert [r.to_record() for r in back.runs] == [r.to_record() for r in archive.runs]


def test_parallel_workers_match_sequential(sine_dataset, monkeypatch):
    cfg = TrainConfig(batch_size=16, max_epochs=25, patience=5,
                      learning_rate=3e-3, repeats=2, seed=21)
    archives = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GRNN_THREADS", threads)
        archives.append(run_experiment(SINE_SPEC, sine_dataset, cfg, architecture="x"))
    seq, par = archives
    assert [r.to_record() for r in seq.runs] == [r.to_record() for r in par.runs]


def test_one_worker_trains_every_seed_and_only_the_parent_sets_blas(sine_dataset,
                                                                    monkeypatch, tmp_path):
    blas = train_module._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no thread getter and setter")
    get, setter = blas
    log = tmp_path / "blas_calls"

    def logged_setter(n):        # a file, because a pool worker is another process
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {n}\n")
        setter(n)

    monkeypatch.setattr(train_module, "_blas_threads", lambda: (get, logged_setter))
    monkeypatch.setenv("GRNN_THREADS", "1")
    cfg = TrainConfig(batch_size=16, max_epochs=3, patience=5, learning_rate=3e-3,
                      repeats=2, seed=51)
    threads = get()
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg)
    calls = [line.split() for line in log.read_text().splitlines()]
    # the parent set one thread before it forked and its own count after the pool
    assert calls == [[str(os.getpid()), "1"], [str(os.getpid()), str(threads)]]
    # at the sine shape one and two BLAS threads agree, so the pooled seeds
    # match single-seed runs, which train in this process
    singles = [run_experiment(SINE_SPEC, sine_dataset, replace(cfg, repeats=1, seed=seed))
               for seed in (51, 52)]
    assert [r.to_record() for r in archive.runs] == [a.runs[0].to_record() for a in singles]
    assert len(log.read_text().splitlines()) == 2        # nor does a single seed set BLAS


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_pool_restores_the_blas_threads_and_its_workers_run_one_thread(sine_dataset,
                                                                         monkeypatch, tmp_path):
    """A pooled run leaves this process's BLAS thread count as it found it,
    also when on_run raises; each worker trains with one OS thread and one
    BLAS thread, because it never sets the count that it inherits."""
    blas = train_module._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no thread getter and setter")
    get, setter = blas
    log = tmp_path / "workers"

    def logged_train(spec, data, cfg):
        result = train(spec, data, cfg)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), len(os.listdir("/proc/self/task")), get()]) + "\n")
        return result

    class Stop(Exception):
        pass

    def stop(record):
        raise Stop

    monkeypatch.setattr(train_module, "train", logged_train)
    monkeypatch.setenv("GRNN_THREADS", "2")
    cfg = TrainConfig(batch_size=16, max_epochs=3, patience=5, learning_rate=3e-3,
                      repeats=2, seed=90)
    threads = get()
    setter(2)
    try:
        run_experiment(SINE_SPEC, sine_dataset, cfg)
        assert get() == 2
        with pytest.raises(Stop):
            run_experiment(SINE_SPEC, sine_dataset, replace(cfg, repeats=3), on_run=stop)
        assert get() == 2
    finally:
        setter(threads)
    workers = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(workers) >= 3 and all(pid != os.getpid() for pid, _, _ in workers)
    assert [(tasks, blas_threads) for _, tasks, blas_threads in workers] == [(1, 1)] * len(workers)


def test_the_archive_keeps_the_best_runs_weights_only(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=6, patience=5, learning_rate=3e-3,
                      repeats=3, seed=88)
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg)
    best = archive.best()
    assert best.seed == 89          # neither the first nor the last run
    want = train(SINE_SPEC, sine_dataset, replace(cfg, seed=best.seed)).best_params
    assert archive.best_params.flat.tobytes() == want.flat.tobytes()
    held = [value for obj in (archive, *archive.runs) for value in vars(obj).values()
            if isinstance(value, NetworkParams)]
    assert held == [archive.best_params]


def test_a_single_seed_run_sizes_no_pool(sine_dataset, monkeypatch):
    def no_pool(repeats):
        raise AssertionError("a single seed needs no pool")

    monkeypatch.setattr(train_module, "pool_size", no_pool)
    cfg = TrainConfig(batch_size=16, max_epochs=2, patience=5, learning_rate=3e-3,
                      repeats=1, seed=55)
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg)
    assert [r.status for r in archive.runs] == ["complete"]


def test_a_dead_worker_fails_its_seeds_and_the_rest_still_run(sine_dataset, monkeypatch):
    def dying(spec, data, cfg):
        if cfg.seed == 60:
            os._exit(1)
        return train(spec, data, cfg)

    monkeypatch.setattr(train_module, "train", dying)
    cfg = TrainConfig(batch_size=16, max_epochs=5, patience=5, learning_rate=3e-3,
                      repeats=4, seed=60)
    seen = []
    monkeypatch.setenv("GRNN_THREADS", "2")
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg, on_run=seen.append)
    assert [r.seed for r in archive.runs] == [60, 61, 62, 63]
    assert seen == archive.runs
    assert (archive.runs[0].status, archive.runs[0].error) == ("failed", "worker died")
    # seed 61 trained beside the worker that died; a fresh worker took the rest
    assert [r.status for r in archive.runs[1:]] == ["complete"] * 3


@pytest.mark.parametrize("death", ["before_its_result", "mid_result"])
def test_a_worker_dying_on_the_last_seed_still_reports_it(sine_dataset, monkeypatch, death):
    """The dying seed is the last event of the run: its "worker died" record
    still leaves the reorder buffer.  A worker dies either before it writes
    a result (EOF on its result pipe) or halfway through one (a torn pickle)."""
    def dying(spec, data, cfg):
        if cfg.seed == 72 and death == "before_its_result":
            os._exit(1)
        return train(spec, data, cfg)

    def torn_dump(outcome, file):
        data = pickle.dumps(outcome)
        if outcome[0].seed == 72:
            file.write(data[:len(data) // 2])
            file.flush()
            os._exit(1)
        file.write(data)

    monkeypatch.setattr(train_module, "train", dying)
    monkeypatch.setattr(train_module.pickle, "dump", torn_dump)
    monkeypatch.setenv("GRNN_THREADS", "1")
    cfg = TrainConfig(batch_size=16, max_epochs=3, patience=5, learning_rate=3e-3,
                      repeats=3, seed=70)
    seen = []
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg, on_run=seen.append)
    assert [(r.seed, r.status, r.error) for r in archive.runs] == [
        (70, "complete", ""), (71, "complete", ""), (72, "failed", "worker died")]
    assert seen == archive.runs


def _children() -> set:
    pid = os.getpid()
    with open(f"/proc/{pid}/task/{pid}/children", encoding="utf-8") as fh:
        return set(fh.read().split())


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_a_run_left_early_stops_and_reaps_its_workers(sine_dataset, monkeypatch):
    """An exception from on_run stops the workers still training and reaps
    them before it leaves run_experiment, even while the caller holds its
    traceback: no worker is left running or as a zombie."""
    class Stop(Exception):
        pass

    def stop(record):
        assert _children() - before                  # a worker holds seed 81 or 82
        raise Stop

    monkeypatch.setenv("GRNN_THREADS", "2")
    before = _children()
    cfg = TrainConfig(batch_size=16, max_epochs=50, patience=50, learning_rate=3e-3,
                      repeats=3, seed=80)
    with pytest.raises(Stop) as stopped:
        run_experiment(SINE_SPEC, sine_dataset, cfg, on_run=stop)
    assert stopped.traceback and _children() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_pooled_run_starts_no_thread_and_loads_no_pool_module(sine_dataset, tmp_path):
    """The parent of a 2-seed run starts no thread, so no thread of it ends
    while another reader lists /proc/self/task, and it never imports
    multiprocessing or concurrent.futures.  OpenBLAS ends its own threads
    at every fork and starts them at its next call, so the script runs
    with one BLAS thread: its task list is then its main thread alone."""
    data = tmp_path / "sine.pickle"
    data.write_bytes(pickle.dumps(sine_dataset))
    script = ("import json, os, pickle, sys, threading\n"
              "from grnn.network import LayerSpec, NetworkSpec\n"
              "from grnn.train import TrainConfig, run_experiment\n"
              "with open(sys.argv[1], 'rb') as fh:\n"
              "    data = pickle.load(fh)\n"
              "def threads():\n"
              "    return threading.active_count(), sorted(os.listdir('/proc/self/task'))\n"
              "seen = [threads()]\n"
              "archive = run_experiment(\n"
              "    NetworkSpec(layers=(LayerSpec('lstm', 16),), input_dim=1), data,\n"
              "    TrainConfig(batch_size=16, max_epochs=3, learning_rate=3e-3, repeats=2,\n"
              "                seed=5), on_run=lambda record: seen.append(threads()))\n"
              "seen.append(threads())\n"
              "pool = ('multiprocessing', 'concurrent.futures')\n"
              "print(json.dumps({'seen': seen, 'status': [r.status for r in archive.runs],\n"
              "                  'loaded': [m for m in pool if m in sys.modules]}))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(train_module.__file__)))
    env = {**os.environ, "GRNN_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, str(data)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["status"] == ["complete", "complete"]
    assert len(got["seen"]) == 4                     # start, two on_run calls, after
    assert all(entry == got["seen"][0] for entry in got["seen"]), got["seen"]
    assert got["seen"][0][0] == 1
    assert got["loaded"] == []


def test_metric_samples_pull_retained_only(sine_dataset):
    cfg = TrainConfig(batch_size=16, max_epochs=80, patience=5,
                      learning_rate=3e-3, repeats=2, seed=31)
    archive = run_experiment(SINE_SPEC, sine_dataset, cfg, architecture="lstm1")
    samples = archive.metric_samples("r2")
    assert samples.size == len(archive.retained)
    assert np.all(samples > 0.90)


def reference_train(spec, data, cfg):
    """`train`'s loop with no workspace, a fresh gradient vector per step and
    each batch cast to the compute dtype on its own."""
    seed_rng = Rng(cfg.seed)
    params = NetworkParams.init(spec, seed_rng.child(0), TRAIN_DTYPE)
    shuffle_rng = seed_rng.child(1)
    opt = OptimizerState(cfg.learning_rate)
    n = data.train_x.shape[0]
    losses, best, best_loss = [], params.copy(), np.inf
    for _ in range(cfg.max_epochs):
        order = shuffle_rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            preds, tape = forward_batch(spec, params, data.train_x[idx])
            err = preds[:, 0] - data.train_y[idx]
            batch_loss = float(np.mean(err * err))
            sq_err_sum += batch_loss * idx.size
            apply(opt, params, backward(spec, params, tape, (2.0 * err / idx.size)[:, None]))
        losses.append(sq_err_sum / n)
        if losses[-1] < best_loss - 1e-12:
            best_loss, best = losses[-1], params.copy()
    return best, losses


@pytest.mark.parametrize("layers", [
    (LayerSpec("lstm", 9),),
    (LayerSpec("gru", 7),),
    (LayerSpec("gru", 6), LayerSpec("lstm", 5)),
    (LayerSpec("lstm", 6, "relu"), LayerSpec("gru", 5, "relu")),
])
def test_train_with_workspace_is_byte_identical_to_fresh_arrays(sine_dataset, layers):
    spec = NetworkSpec(layers=layers, input_dim=1)
    cfg = TrainConfig(batch_size=15, max_epochs=3, patience=10, learning_rate=0.01, seed=8)
    assert sine_dataset.train_x.shape[0] % cfg.batch_size != 0    # a short last batch
    result = train(spec, sine_dataset, cfg)
    best, losses = reference_train(spec, sine_dataset, cfg)
    assert result.best_params.flat.tobytes() == best.flat.tobytes()
    assert np.array(result.epoch_losses).tobytes() == np.array(losses).tobytes()


def test_steady_training_step_allocates_less_than_one_gate_block():
    steps, batch, features, units = 10, 46, 8, 47          # the c09 shape
    spec = NetworkSpec(layers=(LayerSpec("lstm", units),), input_dim=features)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((batch, steps, features))
    y = rng.standard_normal(batch)
    params, grads = NetworkParams.init(spec, Rng(3)), NetworkParams.zeros(spec)
    opt, ws = OptimizerState(1e-3), {}

    def step():
        preds, tape = forward_batch(spec, params, x, ws)
        backward(spec, params, tape, (2.0 * (preds[:, 0] - y) / batch)[:, None], grads, ws)
        apply(opt, params, grads)

    step()
    step()
    tracemalloc.start()
    try:
        for _ in range(3):
            step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < steps * batch * 4 * units * 8


def whole_vector_train(spec, data, cfg):
    """`train`'s loop with one full gradient vector: each step runs the whole
    backward and then one apply over the whole vector.  Returns (best, losses)."""
    seed_rng = Rng(cfg.seed)
    params = NetworkParams.init(spec, seed_rng.child(0), TRAIN_DTYPE)
    shuffle_rng = seed_rng.child(1)
    opt, ws = OptimizerState(cfg.learning_rate), {}
    grads = NetworkParams.zeros(spec, TRAIN_DTYPE)
    n = data.train_x.shape[0]
    losses, best, best_loss = [], params.copy(), np.inf
    for _ in range(cfg.max_epochs):
        order = shuffle_rng.permutation(n)
        sq_err_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            preds, tape = forward_batch(spec, params, data.train_x[idx], ws)
            err = preds[:, 0] - data.train_y[idx]
            sq_err_sum += float(np.mean(err * err)) * idx.size
            backward(spec, params, tape, (2.0 * err / idx.size)[:, None], grads, ws)
            apply(opt, params, grads)
        losses.append(sq_err_sum / n)
        if losses[-1] < best_loss - 1e-12:
            best_loss = losses[-1]
            np.copyto(best.flat, params.flat)
    return best, losses


@pytest.mark.parametrize("layers, batch_size", [
    ((LayerSpec("lstm", 47),), 46),                   # c09: 2,909 windows end in a batch of 11
    ((LayerSpec("gru", 12, "relu"), LayerSpec("lstm", 9), LayerSpec("gru", 7, "relu")), 64),
])
def test_updating_a_part_at_a_time_gives_the_bytes_of_whole_vector_steps(market_dataset, layers,
                                                                          batch_size):
    spec = NetworkSpec(layers=layers, input_dim=8)
    cfg = TrainConfig(batch_size=batch_size, max_epochs=2, patience=2, learning_rate=0.005,
                      seed=3)
    assert market_dataset.train_x.shape[0] % batch_size != 0          # a short last batch
    result = train(spec, market_dataset, cfg)
    best, losses = whole_vector_train(spec, market_dataset, cfg)
    assert np.array(result.epoch_losses).tobytes() == np.array(losses).tobytes()
    assert result.best_params.flat.tobytes() == best.flat.tobytes()


def test_a_lower_layers_nonfinite_gradient_leaves_that_layer_as_it_was():
    spec = NetworkSpec(layers=(LayerSpec("gru", 6), LayerSpec("lstm", 5)), input_dim=3)
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((7, 4, 3)), rng.standard_normal(7)
    params = NetworkParams.init(spec, Rng(4), TRAIN_DTYPE)
    grads, opt, ws = PartGradients(spec, TRAIN_DTYPE), OptimizerState(0.01), {}

    def step(poison=False):
        preds, tape = forward_batch(spec, params, x, ws)
        if poison:
            tape.layers[0].x[2, 1, 0] = np.nan     # reaches layer 0's kernel gradient only
        backward(spec, params, tape, (2.0 * (preds[:, 0] - y) / 7)[:, None], grads, ws,
                 lambda part: apply(opt, params, part, part.start))

    step()
    lower = slice(0, grads.starts[1])
    before = [a[lower].copy() for a in (params.flat, opt.m, opt.v)]
    top_before = params.flat[lower.stop:].copy()
    with pytest.raises(NonFiniteGradient, match="layer0.v_r"):
        step(poison=True)
    for got, want in zip((params.flat, opt.m, opt.v), before):
        np.testing.assert_array_equal(got[lower], want)
    assert not np.array_equal(params.flat[lower.stop:], top_before)   # the top part ran first
    assert opt.step_count == 2


def test_training_holds_one_parts_gradients_not_the_whole_vectors(market_dataset):
    """One epoch of `train` peaks at least the whole vector less its largest
    part below the same loop with a whole gradient vector, less 4 KiB for the
    small Python objects (frames, views, the part's bookkeeping) of a step."""
    spec = NetworkSpec(layers=(LayerSpec("gru", 64), LayerSpec("lstm", 48)), input_dim=8)
    cfg = TrainConfig(batch_size=64, max_epochs=1, patience=1, learning_rate=0.005, seed=3)
    data = replace(market_dataset, train_x=market_dataset.train_x[:640],
                   train_y=market_dataset.train_y[:640])
    peaks = []
    for run in (train, whole_vector_train):
        run(spec, data, cfg)          # first-use allocations (caches, interned names) go untraced
        tracemalloc.start()
        try:
            run(spec, data, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    starts = PartGradients(spec).starts
    largest = max(b - a for a, b in zip(starts, starts[1:]))
    assert largest < starts[-1] * 2 // 3
    assert peaks[1] - peaks[0] >= (starts[-1] - largest) * TRAIN_DTYPE.itemsize - 4096
