"""Time the stages of the pipeline, optionally against a git revision; write
BENCH_<case>.json for each case.

    python scripts/bench.py CASE [CASE ...] [--rounds 5] [--against REV] [--out-dir DIR]

Cases, each with a fixed amount of work per round:

    step   one float32 training step with a whole gradient vector
           (forward_batch, backward, then one nadam apply over the vector;
           one workspace), after two warm-up steps: 300 at c09 (lstm1, 47
           units, 10,576 parameters) and 20 at gru-lstm1 (GRU 498 into LSTM
           311, 1.77 M); batch 46, lookback 10, 8 features.  Keys
           <shape>/float32; digests: the weights after the last step.
           Then a fresh workspace runs forward_batch and backward on a
           full, a short (SHORT_BATCH) and a full batch under tracemalloc,
           and the peak is the key's peak_alloc_mb; the bytes that
           workspace then holds, per buffer ("<part>/<name>", the shared
           scratch once), are its workspace_bytes.
    layer  one LSTM and one GRU layer, float32: forward then backward (with
           dL/dx, as a layer above the first runs it), on one workspace
           reused as `train` reuses it, after two warm-up calls: 300 at 16
           units on smoke-sine.ini's shape (batch 16, lookback 8, 1 input),
           300 at 47 units and 60 at 512 (batch 46, lookback 10, 8
           inputs).  Keys <kind><units>/forward and <kind><units>/backward;
           digests: the outputs, the weight gradients and dL/dx.  With
           --against, both trees run in one process; see below.
    predict
           `predict_batch` on 720 windows (the synthetic market bundle's
           test split), lookback 10, 8 features, with float32 weights, after
           one warm-up call: 30 calls at c09, 5 at gru-lstm1 and 5 at a
           512-unit LSTM.  Keys are the shapes; digests: the predictions.
           After the timed calls one more call runs under tracemalloc, and
           its peak is the key's peak_alloc_mb.
    suggest
           one TPE `suggest` on a fixed 60-trial history, after one warm-up
           call: 200 calls in the lstm1 space (units, learning rate, batch
           size) and 200 in the gru-lstm1 space (two units dimensions), at
           the [hpo] default bounds and TPE settings.  The history's values
           are prior draws from one seed, scored by a fixed bowl.  Keys are
           the spaces; digests: the proposals.
    setup  command start-up on the synthetic market bundle under
           profiles/synthetic-market.ini: fresh-process `import grnn.cli`
           (import) and `grnn prepare` (prepare), then each prepare stage 5
           times in-process: ingest, add_indicators, normalize,
           write_frame_csv, read_frame_csv and window.  Then one untimed
           pass runs each stage under its own tracemalloc, and the peak is
           the stage's peak_alloc_mb.  Digests: prepared.csv,
           norm_params.json and window's train_x, test_x, train_y, test_y.
    pool   one multi-seed `run_experiment` three ways: serial (one
           `repeats=1` run per seed, in-process at the process's BLAS
           threads), one_worker (GRNN_THREADS=1: a pool of one forked
           one-BLAS-thread worker) and pooled (`pool_size(repeats)`
           workers), on sine (smoke-sine.ini lstm1, 2 seeds x 15 epochs),
           c09 (synthetic-market.ini lstm1, 8 seeds x 12 epochs) and
           gru-lstm1 (synthetic-market.ini, 2 seeds x 2 epochs).  Keys
           <shape>/<mode>; digests: the run records.  After each shape the
           peak RSS so far of the process and of its largest pool worker is
           read; the shapes run from the smallest network to the largest,
           so each reading is its own shape's.
    rss    each of `grnn prepare`, then the train-lstm1 and train-gru-lstm1
           commands of perfbench (lstm1: 8 seeds x 12 epochs, patience 12;
           gru-lstm1: 1 seed x 1 epoch) in a fresh process on the synthetic
           market bundle.  Keys are the commands; rss_mb is the process's
           own ru_maxrss (RUSAGE_SELF, so not its pool workers'); perfbench's
           peak_rss_mb reads it the same way, over one process that runs
           prepare and then the train command.  Digests: each command's
           exit code and every file written.
    optim  one nadam `apply` on fixed float32 gradients, after two warm-up
           calls: 1000 at c09 (10,576 parameters) and 100 at gru-lstm1
           (1.77 M).  Keys are the shapes; digests: the weights after the
           last call.

The synthetic market bundle and the sine CSV are written once into a
temporary work directory.  With --against REV, `git archive REV` is
unpacked into a temporary tree too.  Each round runs every case in a fresh
process per tree, with PYTHONPATH=<tree>/src, the trees' order
alternating from round to round so that drift of a shared host hits both
alike.  Before each child, this process times perfbench/probe.py's
host-speed probe PROBE_READINGS times and keeps the median, so a set of
rounds taken on a busy host shows as such.  Each BENCH_<case>.json holds
the machine (perfbench/envinfo.py), the rounds, the probe's time on a fast
host (probe_ref_s) and, per tree, its commit, its digests, each round's
probe reading (probe_s), each key's median, min and sample count and, for
pool, predict, setup and step, the largest memory reading of any round
(for rss, every round's reading and their median); with --against also,
per key, the ratio of the medians (change over parent) and the number of
rounds in which this tree's median of the round was the lower (for rss
also its reading: rss_change_vs_parent), and whether both trees' digests
agree.
The timings of one child process are not independent of each other, so
rounds, not single timings, are the pairs: a speed claim needs the change
to win 9 of 10 rounds.  The case code runs on both trees, so it calls only
names that both have.

The layer case with --against runs interleaved: each round is one child
that loads both trees' grnn under the package names grnn_change and
grnn_parent (`load_grnn`), in an order that flips from round to round,
and runs `layer_interleaved`: per key, both trees warm up and are
digested, then LAYER_BLOCKS blocks of calls alternate between them.  The
JSON adds, per key, "interleaved": the median of the blocks' change /
parent ratios, its quartiles, and blocks_faster out of blocks; the rounds
are still the pairs of the claim rule above.  Both trees share one
allocator, one BLAS pool and the caches; the warm-up, the alternating
blocks and the flipped load order keep that fair.  Noise floor, identical
trees (--against HEAD on an unchanged checkout, 10 rounds each, 2 cores,
OpenBLAS 0.3.31, a shared host with the probe at 8-15 ms against 6.6 ms
fast): two sets of fresh-process layer children, one per tree, read median
ratios of 0.904-1.051 with 3-8/10 rounds faster; three interleaved sets
read median block ratios of 0.986-1.020 at 16 and 47 units and
0.971-1.029 at 512 (6 calls per block), with 38-67/100 blocks and 0-8/10
rounds faster.  So an interleaved claim needs 9/10 rounds and a median
block ratio outside that band (0.985-1.02 at 16 and 47 units, 0.97-1.03
at 512); no key of the three identical-tree sets passed it (0 of 36).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = "import sys, bench; bench.child(*sys.argv[1:])"

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
LAYER_PARTS = ("forward", "backward")
LAYER_BLOCKS = 10    # interleaved blocks per round and key
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
PROBE_READINGS = 5
STAGE_REPEATS = 5
STAGES = ("ingest", "add_indicators", "normalize", "write_frame_csv", "read_frame_csv",
          "window")
POOL_SHAPES = {                  # name: (profile, architecture, seeds, epochs)
    "sine": ("smoke-sine.ini", "lstm1", 2, 15),
    "c09": ("synthetic-market.ini", "lstm1", 8, 12),
    "gru-lstm1": ("synthetic-market.ini", "gru-lstm1", 2, 2),
}
MODES = ("serial", "one_worker", "pooled")
RSS_COMMANDS = {                 # name: grnn arguments, as perfbench's market workloads run them
    "prepare": ("prepare",),
    "train-lstm1": ("train", "--arch", "lstm1", "--repeats", "8",
                    "--set", "train.max_epochs=12", "--set", "train.patience=12"),
    "train-gru-lstm1": ("train", "--arch", "gru-lstm1", "--repeats", "1",
                        "--set", "train.max_epochs=1"),
}
# one grnn command in this process; its exit code and this process's own peak RSS
RSS_CHILD = ("import json, resource, sys; from grnn.cli import main; "
             "code = main(sys.argv[1:]); "
             "print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def file_sha1(path: str) -> str:
    with open(path, "rb") as fh:
        return sha1(fh.read())


def step_case(tree: str) -> dict:
    import tracemalloc

    import numpy as np
    from grnn.network import LayerSpec, NetworkParams, NetworkSpec, backward, forward_batch
    from grnn.numerics import Rng
    from grnn.optim import OptimizerState, apply

    times, digests, peak_alloc_mb, ws_bytes = {}, {}, {}, {}
    for name, (layers, k) in STEP_SHAPES.items():
        spec = NetworkSpec(layers=tuple(LayerSpec(*layer) for layer in layers),
                           input_dim=FEATURES)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((BATCH, LOOKBACK, FEATURES)).astype(np.float32)
        y = rng.standard_normal(BATCH)
        params = NetworkParams.init(spec, Rng(3), np.dtype(np.float32))
        grads = NetworkParams.zeros(spec, np.dtype(np.float32))
        opt, ws = OptimizerState(learning_rate=1e-4), {}

        def forward_backward(ws, rows=BATCH):
            preds, tape = forward_batch(spec, params, x[:rows], ws)
            dpred = (2.0 * (preds[:, 0] - y[:rows]) / rows)[:, None]
            backward(spec, params, tape, dpred, grads, ws)

        def step():
            forward_backward(ws)
            apply(opt, params, grads)

        key = f"{name}/float32"
        times[key] = []
        step()
        step()
        for _ in range(k):
            started = time.perf_counter()
            step()
            times[key].append(time.perf_counter() - started)
        digests[key] = sha1(params.flat.tobytes())
        fresh = {}
        tracemalloc.start()
        try:
            for rows in (BATCH, SHORT_BATCH, BATCH):
                forward_backward(fresh, rows)
            peak_alloc_mb[key] = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        ws_bytes[key] = workspace_bytes(fresh)
    return {"times": times, "digests": digests, "peak_alloc_mb": peak_alloc_mb,
            "workspace_bytes": ws_bytes}


def workspace_bytes(ws: dict) -> dict:
    """{"<part>/<name>": bytes of the name's flat array} of a network workspace;
    a dict met again (the scratch the parts share) is counted where first met."""
    out, seen = {}, set()

    def walk(part: dict, prefix: str) -> None:
        seen.add(id(part))
        for name, value in part.items():
            if isinstance(value, dict):
                if id(value) not in seen:
                    walk(value, f"{prefix}{name}/")
            else:
                out[prefix + name] = (value if value.base is None else value.base).nbytes
    walk(ws, "")
    return out


def layer_calls(cells, kind: str, units: int, batch: int, lookback: int, inputs: int):
    """One layer of `cells` on fixed float32 inputs and one workspace.

    Returns (call, digests): call() runs forward then backward (with dL/dx)
    and returns their seconds; digests() hashes the last call's outputs,
    and its weight gradients with dL/dx.  Both follow LAYER_PARTS' order.
    """
    import numpy as np

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

    def digests():
        h, dx = last
        return sha1(h.tobytes()), sha1(b"".join(a.tobytes() for a in (*grad, dx)))
    return call, digests


def layer_case(tree: str) -> dict:
    from grnn import cells

    times, digests = {}, {}
    for name, (*shape, k) in LAYER_SHAPES.items():
        call, digest = layer_calls(cells, *shape)
        call()
        call()
        spent = [call() for _ in range(k)]
        for part, (what, value) in enumerate(zip(LAYER_PARTS, digest())):
            times[f"{name}/{what}"] = [s[part] for s in spent]
            digests[f"{name}/{what}"] = value
    return {"times": times, "digests": digests}


def load_grnn(tree: str, name: str):
    """The grnn package of `tree`, imported as package `name` beside any other grnn."""
    import importlib.util

    package = os.path.join(tree, "src", "grnn")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_interleaved(trees: dict) -> dict:
    """The layer case for the trees ({"change": path, "parent": path}) in this process.

    The trees load, and per key set up, in the order given.  Per key, each
    tree warms up with two calls, which are digested; then LAYER_BLOCKS
    blocks of k // LAYER_BLOCKS calls alternate between the trees, the tree
    that goes first flipping every block.  Returns each tree's per-call
    times and digests, and per key each block's summed seconds as
    [change, parent].
    """
    import importlib

    order = list(trees)
    for tree, path in trees.items():
        load_grnn(path, f"grnn_{tree}")
    cells = {tree: importlib.import_module(f"grnn_{tree}.cells") for tree in order}
    out = {tree: {"times": {}, "digests": {}} for tree in order}
    blocks = {}
    for name, (*shape, k) in LAYER_SHAPES.items():
        keys = [f"{name}/{what}" for what in LAYER_PARTS]
        calls = {tree: layer_calls(cells[tree], *shape) for tree in order}
        for tree, (call, digest) in calls.items():
            call()
            call()
            out[tree]["digests"].update(zip(keys, digest()))
            out[tree]["times"].update({key: [] for key in keys})
        blocks.update({key: [] for key in keys})
        for block in range(LAYER_BLOCKS):
            summed = {}
            for tree in order[block % 2:] + order[:block % 2]:
                spent = [calls[tree][0]() for _ in range(max(1, k // LAYER_BLOCKS))]
                summed[tree] = [sum(part) for part in zip(*spent)]
                for key, part in zip(keys, zip(*spent)):
                    out[tree]["times"][key] += part
            for part, key in enumerate(keys):
                blocks[key].append([summed["change"][part], summed["parent"][part]])
    return {"trees": out, "blocks": blocks}


def predict_case(tree: str) -> dict:
    import tracemalloc

    import numpy as np
    from grnn.network import LayerSpec, NetworkParams, NetworkSpec, predict_batch
    from grnn.numerics import Rng

    times, digests, peak_alloc_mb = {}, {}, {}
    windows = np.random.default_rng(0).standard_normal((PREDICT_WINDOWS, LOOKBACK, FEATURES))
    for name, (layers, k) in PREDICT_SHAPES.items():
        spec = NetworkSpec(layers=tuple(LayerSpec(*layer) for layer in layers),
                           input_dim=FEATURES)
        params = NetworkParams.init(spec, Rng(3), np.dtype(np.float32))
        preds = predict_batch(spec, params, windows)
        times[name] = []
        for _ in range(k):
            started = time.perf_counter()
            predict_batch(spec, params, windows)
            times[name].append(time.perf_counter() - started)
        tracemalloc.start()
        try:
            predict_batch(spec, params, windows)
            peak_alloc_mb[name] = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
        digests[name] = sha1(preds.tobytes())
    return {"times": times, "digests": digests, "peak_alloc_mb": peak_alloc_mb}


def suggest_case(tree: str) -> dict:
    from grnn.config import HpoSettings
    from grnn.hpo import IntUniform, LogUniform, SearchSpace, Trial, suggest
    from grnn.numerics import Rng

    hpo = HpoSettings()
    times, digests = {}, {}
    for name, (layers, k) in SUGGEST_SPACES.items():
        space = SearchSpace((
            *(IntUniform(f"units_{i}", hpo.units_low, hpo.units_high) for i in range(layers)),
            LogUniform("learning_rate", hpo.lr_low, hpo.lr_high),
            IntUniform("batch_size", hpo.batch_low, hpo.batch_high)))

        def bowl(values):
            total = 0.0
            for d in space.dims:
                lo, hi = d.native_bounds()
                total += ((d.to_native(values[d.name]) - lo) / (hi - lo) - 0.3) ** 2
            return total

        rng, history = Rng(0), []
        for i in range(SUGGEST_HISTORY):
            values = space.sample_prior(rng)
            history.append(Trial(i, values, bowl(values), "complete"))
        suggest(history, space, hpo, Rng(1).child(k))
        times[name], proposals = [], []
        for call in range(k):
            started = time.perf_counter()
            proposals.append(suggest(history, space, hpo, Rng(1).child(call)))
            times[name].append(time.perf_counter() - started)
        digests[name] = sha1(json.dumps(proposals, sort_keys=True).encode())
    return {"times": times, "digests": digests}


def timed(argv: list) -> float:
    started = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - started


def setup_case(tree: str) -> dict:
    import tracemalloc

    profile = os.path.join(tree, "profiles", "synthetic-market.ini")
    times = {"import": [timed([sys.executable, "-c", "import grnn.cli"])]}
    with tempfile.TemporaryDirectory(dir=".") as out:
        times["prepare"] = [timed([sys.executable, "-m", "grnn.cli", "prepare", "--config",
                                   profile, "--out", out])]
        digests = {name: file_sha1(os.path.join(out, name))
                   for name in ("prepared.csv", "norm_params.json")}
        from grnn import data
        from grnn.config import load_config

        cfg = load_config(profile)
        path = os.path.join(out, "stages.csv")
        times.update({name: [] for name in STAGES})
        peak_alloc_mb = {}

        def timed_stage(name, fn, *args, **kwargs):
            started = time.perf_counter()
            value = fn(*args, **kwargs)
            times[name].append(time.perf_counter() - started)
            return value

        def traced_stage(name, fn, *args, **kwargs):
            tracemalloc.start()
            try:
                value = fn(*args, **kwargs)
                peak_alloc_mb[name] = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
            finally:
                tracemalloc.stop()
            return value

        def stages(stage):
            frame = stage("ingest", data.ingest, cfg.sources, cfg.date_column)
            frame = stage("add_indicators", data.add_indicators, frame, cfg.target,
                          cfg.indicators)
            frame, norm = stage("normalize", data.normalize, frame, fit_on=cfg.fit_on,
                                split=cfg.split)
            stage("write_frame_csv", data.write_frame_csv, path, frame, cfg.date_column)
            frame = stage("read_frame_csv", data.read_frame_csv, path, cfg.date_column)
            return stage("window", data.window, frame, cfg.lookback, norm, split=cfg.split,
                         target=cfg.target)

        for _ in range(STAGE_REPEATS):
            dataset = stages(timed_stage)
        digests.update({name: sha1(getattr(dataset, name).tobytes())
                        for name in ("train_x", "test_x", "train_y", "test_y")})
        stages(traced_stage)
    return {"times": times, "digests": digests, "peak_alloc_mb": peak_alloc_mb}


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
        peak_rss_mb[name] = {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "largest_worker": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    return {"times": times, "digests": digests, "peak_rss_mb": peak_rss_mb}


def rss_case(tree: str) -> dict:
    profile = os.path.join(tree, "profiles", "synthetic-market.ini")
    times, digests, rss_mb = {}, {}, {}
    with tempfile.TemporaryDirectory(dir=".") as out:
        for name, args in RSS_COMMANDS.items():
            started = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", RSS_CHILD, *args, "--config", profile,
                                   "--out", out], check=True, capture_output=True, text=True)
            times[name] = [time.perf_counter() - started]
            code, maxrss_kb = json.loads(done.stdout.splitlines()[-1])
            if code not in (0, 1):      # 1: no run cleared the R2 bar
                raise SystemExit(f"grnn {name} exited {code}: {done.stderr}")
            rss_mb[name] = maxrss_kb / 1024.0
            digests[f"{name}/exit"] = code
        for folder, _, files in os.walk(out):
            for file in files:
                path = os.path.join(folder, file)
                digests[os.path.relpath(path, out)] = file_sha1(path)
    return {"times": times, "digests": digests, "rss_mb": rss_mb}


def optim_case(tree: str) -> dict:
    import numpy as np
    from grnn.network import LayerSpec, NetworkParams, NetworkSpec
    from grnn.numerics import Rng
    from grnn.optim import OptimizerState, apply

    times, digests = {}, {}
    for name, (layers, k) in OPTIM_SHAPES.items():
        spec = NetworkSpec(layers=tuple(LayerSpec(*layer) for layer in layers),
                           input_dim=FEATURES)
        params = NetworkParams.init(spec, Rng(3), np.dtype(np.float32))
        grads = NetworkParams.zeros(spec, np.dtype(np.float32))
        grads.flat[:] = np.random.default_rng(0).standard_normal(grads.flat.size) * 1e-2
        opt = OptimizerState(learning_rate=1e-4)
        apply(opt, params, grads)
        apply(opt, params, grads)
        times[name] = []
        for _ in range(k):
            started = time.perf_counter()
            apply(opt, params, grads)
            times[name].append(time.perf_counter() - started)
        digests[name] = sha1(params.flat.tobytes())
    return {"times": times, "digests": digests}


CASES = {
    "layer": (layer_case, "seconds of one LSTM or GRU layer forward, and of its backward "
                          f"with dL/dx, float32, batch {BATCH}, lookback {LOOKBACK}, "
                          f"{FEATURES} inputs"),
    "predict": (predict_case, f"seconds of one predict_batch call on {PREDICT_WINDOWS} "
                              f"windows, float32, lookback {LOOKBACK}, {FEATURES} features"),
    "step": (step_case, "seconds of one training step (forward_batch + backward + nadam "
                        f"apply), batch {BATCH}, lookback {LOOKBACK}, {FEATURES} features"),
    "suggest": (suggest_case, f"seconds of one TPE suggest on a {SUGGEST_HISTORY}-trial "
                              "history at the [hpo] default bounds"),
    "setup": (setup_case, "seconds of command start-up on the synthetic market bundle: "
                          "fresh-process `import grnn.cli` and `grnn prepare`, and each "
                          "prepare stage in-process"),
    "pool": (pool_case, "raw wall seconds of one multi-seed run_experiment: serial, "
                        "one_worker and pooled"),
    "rss": (rss_case, "raw wall seconds of one grnn command in a fresh process on the "
                      "synthetic market bundle; rss_mb: that process's own peak RSS"),
    "optim": (optim_case, "seconds of one nadam apply on fixed float32 gradients"),
}


def child(case: str, *trees: str) -> None:
    """Run one case with the grnn of sys.path (one tree path), or the layer case
    interleaved over NAME=PATH trees in the order given; print its result as one
    JSON line."""
    with contextlib.redirect_stdout(sys.stderr):
        result = (CASES[case][0](*trees) if len(trees) == 1
                  else layer_interleaved(dict(tree.split("=", 1) for tree in trees)))
    print(json.dumps(result))


def run_child(case: str, work: str, *trees: str) -> dict:
    src = [os.path.join(trees[0], "src")] if len(trees) == 1 else []
    path = os.pathsep.join(src + [os.path.join(ROOT, "scripts")])
    done = subprocess.run([sys.executable, "-c", CHILD, case, *trees], cwd=work, check=True,
                          env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE,
                          text=True)
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


def report(case: str, environment: dict, rounds: int, commits: dict, runs: dict,
           probe_ref_s: float, blocks: list | None = None) -> dict:
    """The BENCH_<case>.json record of `runs`: tree -> list of child results;
    with `blocks`, each interleaved child's [change, parent] block seconds per key."""
    result = {"case": case, "what": CASES[case][1], "environment": environment,
              "rounds": rounds, "probe_ref_s": probe_ref_s, "trees": {}}
    if blocks:
        result["interleaved"] = {}
        for key in blocks[0]:
            pairs = [pair for child_blocks in blocks for pair in child_blocks[key]]
            ratios = [change / parent for change, parent in pairs]
            q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
            result["interleaved"][key] = {
                "median_ratio": median, "ratio_q1": q1, "ratio_q3": q3,
                "blocks_faster": sum(change < parent for change, parent in pairs),
                "blocks": len(pairs)}
    times = {}
    for name, outs in runs.items():
        times[name] = {key: [t for out in outs for t in out["times"][key]]
                       for key in outs[0]["times"]}
        tree = result["trees"][name] = {
            "git_commit": commits[name], "digests": outs[-1]["digests"],
            "probe_s": [out["probe_s"] for out in outs],
            "times": {key: summary(ts) for key, ts in times[name].items()}}
        if "peak_rss_mb" in outs[0]:
            tree["peak_rss_mb"] = {
                shape: {what: max(out["peak_rss_mb"][shape][what] for out in outs)
                        for what in outs[0]["peak_rss_mb"][shape]}
                for shape in outs[0]["peak_rss_mb"]}
        if "peak_alloc_mb" in outs[0]:
            tree["peak_alloc_mb"] = {key: max(out["peak_alloc_mb"][key] for out in outs)
                                     for key in outs[0]["peak_alloc_mb"]}
        if "workspace_bytes" in outs[0]:
            tree["workspace_bytes"] = outs[-1]["workspace_bytes"]
        if "rss_mb" in outs[0]:
            tree["rss_mb"] = {}
            for key in outs[0]["rss_mb"]:
                mbs = [out["rss_mb"][key] for out in outs]
                tree["rss_mb"][key] = {"median": statistics.median(mbs), "rounds": mbs}
    if "parent" in runs:
        trees = result["trees"]
        result["artifacts_identical"] = (trees["change"]["digests"]
                                         == trees["parent"]["digests"])
        result["change_vs_parent"] = {
            key: {"median_ratio": (trees["change"]["times"][key]["median_s"]
                                   / trees["parent"]["times"][key]["median_s"]),
                  "rounds_faster": sum(
                      statistics.median(a["times"][key]) < statistics.median(b["times"][key])
                      for a, b in zip(runs["change"], runs["parent"])),
                  "rounds": len(runs["change"])}
            for key in times["change"]}
        if "rss_mb" in trees["change"]:
            result["rss_change_vs_parent"] = {
                key: {"median_ratio": (trees["change"]["rss_mb"][key]["median"]
                                       / trees["parent"]["rss_mb"][key]["median"]),
                      "rounds_lower": sum(a["rss_mb"][key] < b["rss_mb"][key]
                                          for a, b in zip(runs["change"], runs["parent"])),
                      "rounds": len(runs["change"])}
                for key in trees["change"]["rss_mb"]}
    return result


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
        blocks = {case: [] for case in cases}
        for r in range(args.rounds):
            order = list(trees) if r % 2 else list(trees)[::-1]
            for case in cases:
                if case == "layer" and args.against:
                    probe_s = statistics.median(host_probe() for _ in range(PROBE_READINGS))
                    out = run_child(case, work, *(f"{name}={trees[name]}" for name in order))
                    for name in trees:
                        runs[case][name].append({**out["trees"][name], "probe_s": probe_s})
                    blocks[case].append(out["blocks"])
                    continue
                for name in order:
                    probe_s = statistics.median(host_probe() for _ in range(PROBE_READINGS))
                    runs[case][name].append({**run_child(case, work, trees[name]),
                                             "probe_s": probe_s})

    for case in cases:
        result = report(case, environment, args.rounds, commits, runs[case], probe.REF_S,
                        blocks[case])
        for key in result["trees"]["change"]["times"]:
            line = " | ".join(f"{name} median {tree['times'][key]['median_s'] * 1e3:9.2f} ms"
                              for name, tree in result["trees"].items())
            if "change_vs_parent" in result:
                vs = result["change_vs_parent"][key]
                line += (f" | x{vs['median_ratio']:.3f}, faster in "
                         f"{vs['rounds_faster']}/{vs['rounds']} rounds")
            if "interleaved" in result:
                vs = result["interleaved"][key]
                line += (f" | blocks x{vs['median_ratio']:.3f} [{vs['ratio_q1']:.3f}-"
                         f"{vs['ratio_q3']:.3f}], faster in {vs['blocks_faster']}/{vs['blocks']}")
            trees = result["trees"].values()
            if key in result["trees"]["change"].get("peak_alloc_mb", {}):
                line += " | peak " + " / ".join(
                    f"{tree['peak_alloc_mb'][key]:.2f}" for tree in trees) + " MB"
            if key in result["trees"]["change"].get("workspace_bytes", {}):
                line += " | workspace " + " / ".join(
                    f"{sum(tree['workspace_bytes'][key].values()) / 2.0 ** 20:.2f}"
                    for tree in trees) + " MB"
            if key in result["trees"]["change"].get("rss_mb", {}):
                line += " | rss median " + " / ".join(
                    f"{tree['rss_mb'][key]['median']:.2f}" for tree in trees) + " MB"
                if "rss_change_vs_parent" in result:
                    vs = result["rss_change_vs_parent"][key]
                    line += f", lower in {vs['rounds_lower']}/{vs['rounds']} rounds"
            print(f"{case}/{key:<22} {line}")
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
