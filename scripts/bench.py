"""Time the stages of the pipeline, optionally against a git revision; write
BENCH_<case>.json for each case, with each key's verdict.

    python scripts/bench.py CASE [CASE ...] [--rounds 5] [--against REV] [--out-dir DIR]

Each case is one kind of measurement.  The in-process cases (layer, step,
predict, suggest, optim, stages) time calls into grnn: each round runs one
of them in one child process that holds every tree, through one driver
(`interleaved`, below).  The fresh-process cases (commands, pool) time
start-up, forking or whole commands, so each round runs one of them in a
fresh child per tree.  Every case does a fixed amount of work per round; an
in-process key times k calls.

    layer  one LSTM and one GRU layer, float32: forward then backward (with
           dL/dx, as a layer above the first runs it), on one workspace
           reused as `train` reuses it, after two warm-up calls: k = 300 at
           16 units on smoke-sine.ini's shape (batch 16, lookback 8, 1
           input), 300 at 47 units and 60 at 512 (batch 46, lookback 10, 8
           inputs).  Keys <kind><units>/forward and <kind><units>/backward;
           digests: the second warm-up's outputs, and its weight gradients
           with dL/dx.
    step   one float32 training step as `train` runs it: forward_batch, then
           backward into a PartGradients, which hands each layer's part to
           nadam `apply` as soon as the part is done (one workspace), after
           two warm-up steps: k = 300 at c09 (lstm1, 47 units, 10,576
           parameters, one part) and 20 at gru-lstm1 (GRU 498 into LSTM 311,
           1.77 M, two parts); batch 46, lookback 10, 8 features.  Keys
           <shape>/float32.  After the warm-up, a fresh workspace runs a
           full, a short (SHORT_BATCH) and a full step under tracemalloc,
           and the peak is the key's peak_alloc_mb (the gradient part
           buffer and Nadam's moments are made before it starts); the bytes
           that workspace then holds are workspace_bytes, one reading per
           buffer (<key>/<part>/<name>, the shared scratch once).  Digests:
           the weights after those five steps.
    predict
           `predict_batch` on 720 windows (the synthetic market bundle's
           test split), lookback 10, 8 features, with float32 weights, after
           one warm-up call: k = 30 at c09, 5 at gru-lstm1 and 5 at a
           512-unit LSTM.  Keys are the shapes; digests: the warm-up's
           predictions.  Then one more call runs under tracemalloc, and its
           peak is the key's peak_alloc_mb.
    suggest
           one TPE `suggest` on a fixed 60-trial history, after one warm-up
           call: k = 200 in the lstm1 space (units, learning rate, batch
           size) and 200 in the gru-lstm1 space (two units dimensions), at
           the [hpo] default bounds and TPE settings.  The history's values
           are prior draws from one seed, scored by a fixed bowl.  Call n,
           the warm-up being call 0, draws from Rng(1).child(n), made before
           its timing starts.  Keys are the spaces; digests: the warm-up's
           proposal.
    optim  one nadam `apply` on fixed float32 gradients, after two warm-up
           calls: k = 1000 at c09 (10,576 parameters) and 100 at gru-lstm1
           (1.77 M).  Keys are the shapes; digests: the weights after the
           warm-up.
    stages each stage of `grnn prepare` on the synthetic market bundle under
           profiles/synthetic-market.ini, on the output of the stages before
           it, after one warm-up call: k = STAGE_CALLS of ingest,
           add_indicators, normalize, write_frame_csv, read_frame_csv and
           window.  Keys are the stages; digests: each stage's output (the
           file, for write_frame_csv).  One more call runs under
           tracemalloc, and its peak is the stage's peak_alloc_mb.
    commands
           import grnn.cli, then `grnn prepare`, then perfbench's
           train-lstm1 and train-gru-lstm1 commands (lstm1: 8 seeds x 12
           epochs, patience 12; gru-lstm1: 1 seed x 1 epoch), each in a
           fresh process on the synthetic market bundle: wall seconds from
           this process, and the command's own peak_rss_mb (ru_maxrss of
           RUSAGE_SELF, so not its pool workers'; perfbench reads its
           peak_rss_mb the same way).  Digests: each command's exit code
           and every file written.
    pool   one multi-seed `run_experiment` three ways: serial (one
           `repeats=1` run per seed, in-process at the process's BLAS
           threads), one_worker (GRNN_THREADS=1: a pool of one forked
           one-BLAS-thread worker) and pooled (`pool_size(repeats)`
           workers), on sine (smoke-sine.ini lstm1, 2 seeds x 15 epochs),
           c09 (synthetic-market.ini lstm1, 8 seeds x 12 epochs) and
           gru-lstm1 (synthetic-market.ini, 2 seeds x 2 epochs).  Keys
           <shape>/<mode>; digests: the run records.  After each shape the
           peak RSS so far of the process and of its largest pool worker is
           read (peak_rss_mb <shape>/self and <shape>/largest_worker); the
           shapes run from the smallest network to the largest, so each
           reading is its own shape's.

The synthetic market bundle and the sine CSV are written once into a
temporary work directory, each child's working directory.  With --against
REV, `git archive REV` is unpacked into a temporary tree too.  Round r runs
the trees in one order and round r + 1 in the other, so that drift of a
shared host hits both alike.  A fresh-process child gets
PYTHONPATH=<tree>/src.  An in-process child loads each tree's grnn under the
package name grnn_change or grnn_parent (`load_grnn`) in the round's order
and runs `interleaved`: per key, each tree sets up, warms up and is
digested, then the key's k calls run in at most BLOCKS blocks
(`block_sizes`) that alternate between the trees, the tree that goes first
flipping every block.  Both trees share one allocator, one BLAS pool and
the caches; the warm-up, the alternating blocks and the flipped load order
keep that fair.  The case code runs on both trees, so it calls only names
that both have.

Before each child, this process times perfbench/probe.py's host-speed
probe PROBE_READINGS times and keeps the median, so a set of rounds taken
on a busy host shows as such.  Every child returns {times, digests,
readings: {field: {key: number}}}, and an in-process child each key's block
sums too.  Each BENCH_<case>.json holds the machine (perfbench/envinfo.py),
the rounds, the probe's time on a fast host (probe_ref_s) and, per tree,
its commit, its digests, each round's probe reading (probe_s), each key's
median, min and count of timings, and each reading's median and value per
round.

The rule.  Lower is better for every key and reading, and a round's value
of a key is the median of its timings in that round.  With --against,
`compare` gives each time key (change_vs_parent) and each reading
(readings_vs_parent) one ratio, change over parent, and counts the rounds
in which the change read lower and higher.  The ratio of an in-process key
is the median of its blocks' ratios, with quartiles and blocks_lower; of
any other, the ratio of the medians over rounds.  The timings of one child
are not independent of each other, so rounds, not blocks, are the pairs.
A verdict of gain (loss) needs at least 9 of 10 rounds lower (higher) and,
for an in-process key, a block ratio below (above) the key's identical-tree
band in BANDS, or else a median over rounds lower (higher) than the
parent's by more than the parent's interquartile range over rounds.  Fewer
than ROUNDS rounds, or an in-process key with no band, is unresolved; any
other result is none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = "import sys, bench; bench.child(*sys.argv[1:])"
FRESH_PROCESS = ("commands", "pool")     # their cost includes start-up and forking

BATCH, LOOKBACK, FEATURES = 46, 10, 8
SHORT_BATCH = 11                 # the last of the synthetic market bundle's 2,909 train windows
STEP_SHAPES = {                  # name: (layers, timed steps per round)
    "c09": ((("lstm", 47),), 300),
    "gru-lstm1": ((("gru", 498), ("lstm", 311)), 20),
}
LAYER_SHAPES = {     # name: (kind, units, batch, lookback, inputs, timed calls per round)
    "lstm16": ("lstm", 16, 16, 8, 1, 300),                  # smoke-sine.ini's shape
    "gru16": ("gru", 16, 16, 8, 1, 300),
    "lstm47": ("lstm", 47, BATCH, LOOKBACK, FEATURES, 300),
    "gru47": ("gru", 47, BATCH, LOOKBACK, FEATURES, 300),
    "lstm512": ("lstm", 512, BATCH, LOOKBACK, FEATURES, 60),
    "gru512": ("gru", 512, BATCH, LOOKBACK, FEATURES, 60),
}
BLOCKS = 10          # interleaved blocks per round and key, at most
PREDICT_WINDOWS = 720
PREDICT_SHAPES = {               # name: (layers, timed calls per round)
    "c09": ((("lstm", 47),), 30),
    "gru-lstm1": ((("gru", 498), ("lstm", 311)), 5),
    "lstm512": ((("lstm", 512),), 5),
}
SUGGEST_SPACES = {               # name: (units dimensions, timed calls per round)
    "lstm1": (1, 200),
    "gru-lstm1": (2, 200),
}
SUGGEST_HISTORY = 60
OPTIM_SHAPES = {                 # name: (layers, timed calls per round)
    "c09": ((("lstm", 47),), 1000),
    "gru-lstm1": ((("gru", 498), ("lstm", 311)), 100),
}
STAGE_CALLS = 10                 # timed calls per stage and round
PROBE_READINGS = 5
POOL_SHAPES = {                  # name: (profile, architecture, seeds, epochs)
    "sine": ("smoke-sine.ini", "lstm1", 2, 15),
    "c09": ("synthetic-market.ini", "lstm1", 8, 12),
    "gru-lstm1": ("synthetic-market.ini", "gru-lstm1", 2, 2),
}
MODES = ("serial", "one_worker", "pooled")
COMMANDS = {         # name: grnn arguments, as perfbench's market workloads run them; none: import
    "import": (),
    "prepare": ("prepare",),
    "train-lstm1": ("train", "--arch", "lstm1", "--repeats", "8",
                    "--set", "train.max_epochs=12", "--set", "train.patience=12"),
    "train-gru-lstm1": ("train", "--arch", "gru-lstm1", "--repeats", "1",
                        "--set", "train.max_epochs=1"),
}
# one grnn command, or only the import, in this process; its exit code and own peak RSS
COMMAND_CHILD = ("import json, resource, sys; from grnn.cli import main; "
                 "code = main(sys.argv[1:]) if sys.argv[1:] else 0; "
                 "print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")
ROUNDS = 10          # rounds a verdict needs, of which 9 in 10 must go its way


def band(low: float, high: float, *keys: str) -> dict:
    return dict.fromkeys(keys, (low, high))


# "<case>/<key>": the band of an in-process key's median block ratio on identical
# trees.  layer ... optim: six sets of 10 rounds, five against a parent whose
# timed code was the same and one against HEAD (2 cores, OpenBLAS 0.3.31, a
# shared host with the probe at 6-19 ms against 6.6 ms fast); the measured
# range of ratios widened by at least 0.003 to the next 0.005.  lstm512
# backward read 0.990-1.060, above 1.02 in three sets (one round's memory
# layout moves it), so it has no band.  stages: three sets of 10 rounds against
# HEAD, widened the same way; each set's ratio lay within the others' quartiles.
BANDS = {
    **band(0.99, 1.01, *(f"layer/{kind}16/{way}" for kind in ("lstm", "gru")
                         for way in ("forward", "backward"))),
    **band(0.985, 1.02, *(f"layer/{kind}47/{way}" for kind in ("lstm", "gru")
                          for way in ("forward", "backward"))),
    **band(0.98, 1.015, "layer/gru512/forward", "layer/gru512/backward",
           "layer/lstm512/forward"),
    **band(0.985, 1.01, "step/c09/float32", "step/gru-lstm1/float32"),
    **band(0.995, 1.01, "predict/c09"),
    **band(0.98, 1.025, "predict/gru-lstm1"),
    **band(0.99, 1.015, "predict/lstm512"),
    **band(0.99, 1.01, "suggest/lstm1", "suggest/gru-lstm1", "optim/c09"),
    **band(0.985, 1.03, "optim/gru-lstm1"),
    **band(0.995, 1.015, "stages/ingest", "stages/window"),
    **band(0.99, 1.005, "stages/add_indicators", "stages/read_frame_csv"),
    **band(0.995, 1.005, "stages/normalize", "stages/write_frame_csv"),
}


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def load_grnn(tree: str, name: str):
    """The grnn package of `tree`, imported as package `name` beside any other grnn."""
    import importlib.util

    package = os.path.join(tree, "src", "grnn")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def block_sizes(k: int) -> list:
    """The calls of each block of a key's round: at most BLOCKS blocks, none empty,
    summing to k."""
    blocks = min(k, BLOCKS)
    return [k // blocks + (block < k % blocks) for block in range(blocks)]


def interleaved(case: str, trees: dict) -> dict:
    """One round of the in-process `case` for the trees ({name: path}), in this process.

    Each tree's grnn loads as package grnn_<name>, in the order given, and
    the case's generator runs on it (`<case>_calls(grnn)`).  It yields, one
    key at a time, after that key's set-up and warm-up: (keys, k, call,
    digest, readings).  call() runs once and returns its seconds per key;
    digest() returns the bytes each key's digest hashes; readings is
    {field: {key: number}}.  Per key, the trees set up in the order given
    and are digested; then the k calls run in `block_sizes(k)` blocks that
    alternate between the trees, the tree that goes first flipping every
    block.  A key's call and digest run only
    until the case's next key is set up.  Returns, per tree, each key's
    per-call times and per-block summed seconds, its digests and readings.
    """
    order = list(trees)
    packages = [load_grnn(path, f"grnn_{name}") for name, path in trees.items()]
    out = {name: {"times": {}, "blocks": {}, "digests": {}, "readings": {}} for name in order}
    for entries in zip(*(CASES[case][0](grnn) for grnn in packages)):
        calls = {}
        for name, (keys, k, call, digest, readings) in zip(order, entries):
            calls[name] = call
            out[name]["digests"].update(zip(keys, map(sha1, digest())))
            for key in keys:
                out[name]["times"][key], out[name]["blocks"][key] = [], []
            for field, values in readings.items():
                out[name]["readings"].setdefault(field, {}).update(values)
        for block, size in enumerate(block_sizes(k)):      # keys and k: the same on each tree
            for name in order[block % 2:] + order[:block % 2]:
                spent = [calls[name]() for _ in range(size)]
                for key, part in zip(keys, zip(*spent)):
                    out[name]["times"][key] += part
                    out[name]["blocks"][key].append(sum(part))
    return out


def seconds(fn, *args) -> tuple:
    """(the seconds of fn(*args),): the timing of a one-key case's call."""
    started = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - started,)


def traced_peak_mb(fn, *args) -> float:
    """The peak MiB that tracemalloc sees fn(*args) allocate."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


def float32_network(grnn, layers: tuple):
    """(spec, params): a float32 network of `layers` on FEATURES inputs, from Rng(3)."""
    import numpy as np

    spec = grnn.NetworkSpec(layers=tuple(grnn.LayerSpec(*layer) for layer in layers),
                            input_dim=FEATURES)
    return spec, grnn.NetworkParams.init(spec, grnn.Rng(3), np.dtype(np.float32))


def layer_calls(grnn):
    import numpy as np

    cells = grnn.cells
    for name, (kind, units, batch, lookback, inputs, k) in LAYER_SHAPES.items():
        forward, backward = ((cells.lstm_forward, cells.lstm_backward) if kind == "lstm"
                             else (cells.gru_forward, cells.gru_backward))
        width = (4 if kind == "lstm" else 3) * units
        rng = np.random.default_rng(0)
        limit = np.sqrt(6.0 / (inputs + units + width))
        p = cells.LayerParams(*(rng.uniform(-limit, limit, shape).astype(np.float32)
                                for shape in ((inputs, width), (units, width), (width,))))
        grad = cells.LayerParams(*(np.empty_like(a) for a in p))
        x = rng.standard_normal((lookback, batch, inputs)).astype(np.float32)
        dh = (rng.standard_normal((lookback, batch, units)) / batch).astype(np.float32)
        ws, last = {}, []

        def call():
            started = time.perf_counter()
            h, tape = forward(p, x, "tanh", True, ws)
            middle = time.perf_counter()
            dx = backward(p, tape, dh, grad, ws, True)
            ended = time.perf_counter()
            last[:] = h, dx
            return middle - started, ended - middle

        call()
        call()
        yield ((f"{name}/forward", f"{name}/backward"), k, call,
               lambda: (last[0].tobytes(), b"".join(a.tobytes() for a in (*grad, last[1]))), {})


def step_calls(grnn):
    import numpy as np

    network, optim = grnn.network, grnn.optim
    for name, (layers, k) in STEP_SHAPES.items():
        spec, params = float32_network(grnn, layers)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((BATCH, LOOKBACK, FEATURES)).astype(np.float32)
        y = rng.standard_normal(BATCH)
        grads = network.PartGradients(spec, np.dtype(np.float32))
        opt, ws = optim.OptimizerState(learning_rate=1e-4), {}

        def update(part):           # as `train` runs Nadam: a part at a time, inside backward
            optim.apply(opt, params, part, part.start)

        def step(ws=ws, rows=BATCH):
            preds, tape = network.forward_batch(spec, params, x[:rows], ws)
            dpred = (2.0 * (preds[:, 0] - y[:rows]) / rows)[:, None]
            network.backward(spec, params, tape, dpred, grads, ws, update)

        step()
        step()
        key, fresh = f"{name}/float32", {}
        peak_alloc_mb = traced_peak_mb(lambda: [step(fresh, rows)
                                                for rows in (BATCH, SHORT_BATCH, BATCH)])
        yield ((key,), k, lambda: seconds(step), lambda: (params.flat.tobytes(),),
               {"peak_alloc_mb": {key: peak_alloc_mb},
                "workspace_bytes": workspace_bytes(fresh, f"{key}/")})


def workspace_bytes(ws: dict, prefix: str) -> dict:
    """{"<prefix><part>/<name>": bytes of the name's flat array} of a network
    workspace; a dict met again (the scratch the parts share) is counted where
    first met."""
    out, seen = {}, set()

    def walk(part: dict, prefix: str) -> None:
        seen.add(id(part))
        for name, value in part.items():
            if isinstance(value, dict):
                if id(value) not in seen:
                    walk(value, f"{prefix}{name}/")
            else:
                out[prefix + name] = (value if value.base is None else value.base).nbytes
    walk(ws, prefix)
    return out


def predict_calls(grnn):
    import numpy as np

    windows = np.random.default_rng(0).standard_normal((PREDICT_WINDOWS, LOOKBACK, FEATURES))
    for name, (layers, k) in PREDICT_SHAPES.items():
        spec, params = float32_network(grnn, layers)
        preds = grnn.predict_batch(spec, params, windows)
        peak_alloc_mb = traced_peak_mb(grnn.predict_batch, spec, params, windows)
        yield ((name,), k, lambda: seconds(grnn.predict_batch, spec, params, windows),
               lambda: (preds.tobytes(),), {"peak_alloc_mb": {name: peak_alloc_mb}})


def suggest_calls(grnn):
    import importlib
    import itertools

    hpo, Rng = importlib.import_module(f"{grnn.__name__}.config").HpoSettings(), grnn.Rng
    for name, (layers, k) in SUGGEST_SPACES.items():
        space = grnn.SearchSpace((
            *(grnn.IntUniform(f"units_{i}", hpo.units_low, hpo.units_high)
              for i in range(layers)),
            grnn.LogUniform("learning_rate", hpo.lr_low, hpo.lr_high),
            grnn.IntUniform("batch_size", hpo.batch_low, hpo.batch_high)))

        def bowl(values):
            total = 0.0
            for d in space.dims:
                lo, hi = d.native_bounds()
                total += ((d.to_native(values[d.name]) - lo) / (hi - lo) - 0.3) ** 2
            return total

        rng, history = Rng(0), []
        for i in range(SUGGEST_HISTORY):
            values = space.sample_prior(rng)
            history.append(grnn.Trial(i, values, bowl(values), "complete"))
        children = itertools.count()
        proposal = grnn.suggest(history, space, hpo, Rng(1).child(next(children)))
        yield ((name,), k,
               lambda: seconds(grnn.suggest, history, space, hpo, Rng(1).child(next(children))),
               lambda: (json.dumps(proposal, sort_keys=True).encode(),), {})


def optim_calls(grnn):
    import numpy as np

    for name, (layers, k) in OPTIM_SHAPES.items():
        spec, params = float32_network(grnn, layers)
        grads = grnn.NetworkParams.zeros(spec, np.dtype(np.float32))
        grads.flat[:] = np.random.default_rng(0).standard_normal(grads.flat.size) * 1e-2
        opt = grnn.OptimizerState(learning_rate=1e-4)
        grnn.apply(opt, params, grads)
        grnn.apply(opt, params, grads)
        yield ((name,), k, lambda: seconds(grnn.apply, opt, params, grads),
               lambda: (params.flat.tobytes(),), {})


def stages_calls(grnn):
    import importlib

    tree = os.path.dirname(os.path.dirname(grnn.__path__[0]))
    cfg = importlib.import_module(f"{grnn.__name__}.config").load_config(
        os.path.join(tree, "profiles", "synthetic-market.ini"))
    data, path, out = grnn.data, f"{grnn.__name__}-prepared.csv", {}

    def frame_bytes(frame):
        return repr((frame.dates, frame.feature_order)).encode() + frame.matrix().tobytes()

    stages = {       # name: (the stage on the outputs of the stages before it, its output's bytes)
        "ingest": (lambda: data.ingest(cfg.sources, cfg.date_column), frame_bytes),
        "add_indicators": (lambda: data.add_indicators(out["ingest"], cfg.target, cfg.indicators),
                           frame_bytes),
        "normalize": (lambda: data.normalize(out["add_indicators"], fit_on=cfg.fit_on,
                                             split=cfg.split),
                      lambda pair: frame_bytes(pair[0]) + repr(pair[1]).encode()),
        "write_frame_csv": (lambda: data.write_frame_csv(path, out["normalize"][0],
                                                         cfg.date_column),
                            lambda _: pathlib.Path(path).read_bytes()),
        "read_frame_csv": (lambda: data.read_frame_csv(path, cfg.date_column), frame_bytes),
        "window": (lambda: data.window(out["read_frame_csv"], cfg.lookback, out["normalize"][1],
                                       split=cfg.split, target=cfg.target),
                   lambda ds: b"".join(getattr(ds, name).tobytes()
                                       for name in ("train_x", "test_x", "train_y", "test_y"))),
    }
    for name, (stage, output_bytes) in stages.items():
        out[name] = stage()
        yield ((name,), STAGE_CALLS, lambda: seconds(stage), lambda: (output_bytes(out[name]),),
               {"peak_alloc_mb": {name: traced_peak_mb(stage)}})


def pool_case(tree: str) -> dict:
    import resource
    from dataclasses import replace
    from unittest import mock

    from grnn import cli
    from grnn.config import load_config
    from grnn.train import run_experiment

    times, digests, peak_rss_mb = {}, {}, {}
    for name, (profile, label, seeds, epochs) in POOL_SHAPES.items():
        path = os.path.join(tree, "profiles", profile)
        with tempfile.TemporaryDirectory(dir=".") as out:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if cli.main(["prepare", "--config", path, "--out", out]) != 0:
                    raise SystemExit(f"grnn prepare failed on {profile}")
            cfg = load_config(path)
            dataset = cli.load_prepared(cfg, out)
        arch = cfg.arch(label)
        spec = cli._network_spec(cfg, arch, arch.units)
        tc = replace(cfg.train, batch_size=arch.batch_size, learning_rate=arch.learning_rate,
                     max_epochs=epochs, patience=epochs)
        for mode in MODES:
            started = time.perf_counter()
            if mode == "serial":
                runs = [run_experiment(spec, dataset, replace(tc, seed=tc.seed + k),
                                       repeats=1).runs[0] for k in range(seeds)]
            else:
                one_worker = {"GRNN_THREADS": "1"} if mode == "one_worker" else {}
                with mock.patch.dict(os.environ, one_worker):
                    runs = run_experiment(spec, dataset, tc, repeats=seeds).runs
            times[f"{name}/{mode}"] = [time.perf_counter() - started]
            if [r.status for r in runs] != ["complete"] * seeds:
                raise SystemExit(f"{name}/{mode}: a run failed: {runs}")
            digests[f"{name}/{mode}"] = sha1(json.dumps(
                [r.to_record() for r in runs], sort_keys=True).encode())
        for what, who in (("self", resource.RUSAGE_SELF),
                          ("largest_worker", resource.RUSAGE_CHILDREN)):
            peak_rss_mb[f"{name}/{what}"] = resource.getrusage(who).ru_maxrss / 1024.0
    return {"times": times, "digests": digests, "readings": {"peak_rss_mb": peak_rss_mb}}


def commands_case(tree: str) -> dict:
    profile = os.path.join(tree, "profiles", "synthetic-market.ini")
    times, digests, peak_rss_mb = {}, {}, {}
    with tempfile.TemporaryDirectory(dir=".") as out:
        for name, args in COMMANDS.items():
            argv = [*args, "--config", profile, "--out", out] if args else []
            started = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", COMMAND_CHILD, *argv], check=True,
                                  capture_output=True, text=True)
            times[name] = [time.perf_counter() - started]
            code, maxrss_kb = json.loads(done.stdout.splitlines()[-1])
            if code not in (0, 1):      # 1: no run cleared the R2 bar
                raise SystemExit(f"grnn {name} exited {code}: {done.stderr}")
            peak_rss_mb[name] = maxrss_kb / 1024.0
            digests[f"{name}/exit"] = code
        for folder, _, files in os.walk(out):
            for file in files:
                path = os.path.join(folder, file)
                digests[os.path.relpath(path, out)] = sha1(pathlib.Path(path).read_bytes())
    return {"times": times, "digests": digests, "readings": {"peak_rss_mb": peak_rss_mb}}


CASES = {
    "layer": (layer_calls, "seconds of one LSTM or GRU layer forward, and of its backward "
                           f"with dL/dx, float32, batch {BATCH}, lookback {LOOKBACK}, "
                           f"{FEATURES} inputs"),
    "predict": (predict_calls, f"seconds of one predict_batch call on {PREDICT_WINDOWS} "
                               f"windows, float32, lookback {LOOKBACK}, {FEATURES} features"),
    "step": (step_calls, "seconds of one training step (forward_batch, then backward "
                         f"applying nadam a part at a time), batch {BATCH}, lookback "
                         f"{LOOKBACK}, {FEATURES} features"),
    "suggest": (suggest_calls, f"seconds of one TPE suggest on a {SUGGEST_HISTORY}-trial "
                               "history at the [hpo] default bounds"),
    "optim": (optim_calls, "seconds of one nadam apply on fixed float32 gradients"),
    "stages": (stages_calls, "seconds of one prepare stage in-process on the synthetic "
                             "market bundle"),
    "commands": (commands_case, "raw wall seconds of one grnn command, or of the import of "
                                "grnn.cli, in a fresh process on the synthetic market bundle; "
                                "peak_rss_mb: that process's own peak RSS"),
    "pool": (pool_case, "raw wall seconds of one multi-seed run_experiment: serial, "
                        "one_worker and pooled"),
}


def child(case: str, *trees: str) -> None:
    """Run `case` on the NAME=PATH trees given and print, as one JSON line, each
    tree's result: a fresh-process case's on its one tree, whose grnn is on
    sys.path, or `interleaved`'s."""
    trees = dict(tree.split("=", 1) for tree in trees)
    with contextlib.redirect_stdout(sys.stderr):
        result = ({name: CASES[case][0](path) for name, path in trees.items()}
                  if case in FRESH_PROCESS else interleaved(case, trees))
    print(json.dumps(result))


def run_child(case: str, work: str, trees: dict) -> dict:
    src = [os.path.join(tree, "src") for tree in trees.values() if case in FRESH_PROCESS]
    path = os.pathsep.join(src + [os.path.join(ROOT, "scripts")])
    done = subprocess.run([sys.executable, "-c", CHILD, case,
                           *(f"{name}={tree}" for name, tree in trees.items())],
                          cwd=work, check=True, env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def unpack(rev: str, tmp: str) -> tuple[str, str]:
    """(commit, tree): `git archive` of `rev`, unpacked under `tmp`."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tree = os.path.join(tmp, "parent")
    os.makedirs(tree)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return commit, tree


def summary(ts: list) -> dict:
    return {"median_s": statistics.median(ts), "min_s": min(ts), "n": len(ts)}


def spread(values: list) -> dict:
    return {"median": statistics.median(values), "rounds": values}


def compare(change: list, parent: list, blocks: list | None = None,
            band: tuple | None = None) -> dict:
    """One key or reading against the parent, from its value per round in each
    tree and, for an in-process key, its (change, parent) block pairs and
    band: the ratio, the rounds lower and higher, and the verdict."""
    rounds = len(change)
    vs = {"median_ratio": statistics.median(change) / statistics.median(parent),
          "rounds": rounds, "rounds_lower": sum(a < b for a, b in zip(change, parent)),
          "rounds_higher": sum(a > b for a, b in zip(change, parent))}
    beyond = None        # the ratio or median difference: -1 below its margin, 1 above, 0 within
    if blocks is not None:
        q1, vs["median_ratio"], q3 = statistics.quantiles(
            [a / b for a, b in blocks], n=4, method="inclusive")
        vs.update(ratio_q1=q1, ratio_q3=q3, blocks=len(blocks), band=band,
                  blocks_lower=sum(a < b for a, b in blocks))
        beyond = band and (vs["median_ratio"] > band[1]) - (vs["median_ratio"] < band[0])
    elif rounds >= ROUNDS:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        diff = statistics.median(change) - statistics.median(parent)
        beyond = (diff > q3 - q1) - (diff < q1 - q3)
    if beyond is None or rounds < ROUNDS:
        vs["verdict"] = "unresolved"
    elif beyond < 0 and 10 * vs["rounds_lower"] >= 9 * rounds:
        vs["verdict"] = "gain"
    elif beyond > 0 and 10 * vs["rounds_higher"] >= 9 * rounds:
        vs["verdict"] = "loss"
    else:
        vs["verdict"] = "none"
    return vs


def report(case: str, environment: dict, rounds: int, commits: dict, runs: dict,
           probe_ref_s: float) -> dict:
    """The BENCH_<case>.json record of `runs`: tree -> list of child results."""
    result = {"case": case, "what": CASES[case][1], "environment": environment,
              "rounds": rounds, "probe_ref_s": probe_ref_s, "trees": {}}
    for name, outs in runs.items():
        result["trees"][name] = {
            "git_commit": commits[name], "digests": outs[-1]["digests"],
            "probe_s": [out["probe_s"] for out in outs],
            "times": {key: summary([t for out in outs for t in out["times"][key]])
                      for key in outs[0]["times"]},
            "readings": {field: {key: spread([out["readings"][field][key] for out in outs])
                                 for key in keys}
                         for field, keys in outs[0]["readings"].items()}}
    if "parent" in runs:
        change, parent = runs["change"], runs["parent"]
        result["artifacts_identical"] = change[-1]["digests"] == parent[-1]["digests"]
        result["change_vs_parent"] = {}
        for key in change[0]["times"]:
            blocks = ([pair for a, b in zip(change, parent)
                       for pair in zip(a["blocks"][key], b["blocks"][key])]
                      if "blocks" in change[0] else None)
            result["change_vs_parent"][key] = compare(
                [statistics.median(out["times"][key]) for out in change],
                [statistics.median(out["times"][key]) for out in parent],
                blocks, BANDS.get(f"{case}/{key}"))
        result["readings_vs_parent"] = {
            field: {key: compare([out["readings"][field][key] for out in change],
                                 [out["readings"][field][key] for out in parent])
                    for key in keys if key in parent[0]["readings"].get(field, {})}
            for field, keys in change[0]["readings"].items()}
    return result


def describe(vs: dict) -> str:
    """One comparison as its printed line ends."""
    line = f"x{vs['median_ratio']:.3f}"
    if "blocks" in vs:
        line += (f" [{vs['ratio_q1']:.3f}-{vs['ratio_q3']:.3f}], lower in "
                 f"{vs['blocks_lower']}/{vs['blocks']} blocks")
    return line + f", lower in {vs['rounds_lower']}/{vs['rounds']} rounds: {vs['verdict']}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="+", choices=list(CASES), metavar="CASE",
                    help=f"one or more of {', '.join(CASES)}")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--against", metavar="REV", help="also time this git revision")
    ap.add_argument("--out-dir", default=ROOT, help="where BENCH_<case>.json go")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    cases = list(dict.fromkeys(args.cases))

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import envinfo
    import probe
    from grnn.synthetic import write_bundle, write_sine

    environment = envinfo.record(ROOT)
    host_probe = probe.Probe()
    with tempfile.TemporaryDirectory() as tmp:
        trees, commits = {"change": ROOT}, {"change": environment["git_commit"]}
        if args.against:
            commits["parent"], trees["parent"] = unpack(args.against, tmp)
        work = os.path.join(tmp, "work")   # the profiles name their sources relative to it
        write_bundle(os.path.join(work, "data", "synthetic"), seed=0)
        os.makedirs(os.path.join(work, "data", "sine"))
        write_sine(os.path.join(work, "data", "sine", "sine.csv"))
        runs = {case: {name: [] for name in trees} for case in cases}
        for r in range(args.rounds):
            order = list(trees) if r % 2 else list(trees)[::-1]
            for case in cases:
                for group in [[name] for name in order] if case in FRESH_PROCESS else [order]:
                    probe_s = statistics.median(host_probe() for _ in range(PROBE_READINGS))
                    out = run_child(case, work, {name: trees[name] for name in group})
                    for name in group:
                        runs[case][name].append({**out[name], "probe_s": probe_s})

    for case in cases:
        result = report(case, environment, args.rounds, commits, runs[case], probe.REF_S)
        trees = result["trees"].values()
        for key in result["trees"]["change"]["times"]:
            line = " | ".join(f"{name} median {tree['times'][key]['median_s'] * 1e3:9.2f} ms"
                              for name, tree in result["trees"].items())
            if "change_vs_parent" in result:
                line += " | " + describe(result["change_vs_parent"][key])
            print(f"{case}/{key:<22} {line}")
        for field, keys in result["trees"]["change"]["readings"].items():
            for key in keys:
                line = " / ".join(f"{tree['readings'][field][key]['median']:.2f}"
                                  for tree in trees if key in tree["readings"].get(field, {}))
                if key in result.get("readings_vs_parent", {}).get(field, {}):
                    line += " | " + describe(result["readings_vs_parent"][field][key])
                print(f"{case}/{field}/{key}: median {line}")
        print(f"{case}: probe median " + " | ".join(
            f"{name} {statistics.median(tree['probe_s']) * 1e3:.2f} ms"
            for name, tree in result["trees"].items()) + f" (fast host {probe.REF_S * 1e3} ms)")
        path = os.path.join(args.out_dir, f"BENCH_{case}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
