"""Time the stages of the pipeline, optionally against a git revision; write
BENCH_<case>.json for each case.

    python scripts/bench.py CASE [CASE ...] [--rounds 5] [--against REV] [--out-dir DIR]

Cases, each with a fixed amount of work per round:

    step   one training step as `train` runs it per batch (forward_batch,
           backward, a nadam apply; one workspace and one gradient vector),
           float64 and float32 steps alternating, after two warm-up steps:
           300 at c09 (lstm1, 47 units, 10,576 parameters) and 20 at
           gru-lstm1 (GRU 498 into LSTM 311, 1.77 M); batch 46, lookback 10,
           8 features.  Keys <shape>/<dtype>; digests: the weights after the
           last step.
    setup  command start-up on the synthetic market bundle under
           profiles/synthetic-market.ini: fresh-process `import grnn.cli`
           (import) and `grnn prepare` (prepare), then each prepare stage 5
           times in-process: ingest, add_indicators, normalize,
           write_frame_csv, read_frame_csv and window.  Digests:
           prepared.csv and norm_params.json.
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

The synthetic market bundle and the sine CSV are written once into a
temporary work directory.  With --against REV, `git archive REV` is
unpacked into a temporary tree too.  Each round runs every case in a fresh
process per tree, with PYTHONPATH=<tree>/src, the trees' order
alternating from round to round so that drift of a shared host hits both
alike.  Each BENCH_<case>.json holds the machine (perfbench/envinfo.py),
the rounds and, per tree, its commit, its digests and each key's median,
min and sample count; with --against also, per key, the ratio of the
medians (change over parent) and the number of pairs (same round, same
repeat) in which this tree was faster, and whether both trees' digests
agree.
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
STEP_SHAPES = {                  # name: (layers, timed steps per dtype and round)
    "c09": ((("lstm", 47),), 300),
    "gru-lstm1": ((("gru", 498), ("lstm", 311)), 20),
}
STAGE_REPEATS = 5
STAGES = ("ingest", "add_indicators", "normalize", "write_frame_csv", "read_frame_csv",
          "window")
POOL_SHAPES = {                  # name: (profile, architecture, seeds, epochs)
    "sine": ("smoke-sine.ini", "lstm1", 2, 15),
    "c09": ("synthetic-market.ini", "lstm1", 8, 12),
    "gru-lstm1": ("synthetic-market.ini", "gru-lstm1", 2, 2),
}
MODES = ("serial", "one_worker", "pooled")


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def file_sha1(path: str) -> str:
    with open(path, "rb") as fh:
        return sha1(fh.read())


def step_case(tree: str) -> dict:
    import numpy as np
    from grnn.network import (DTYPES, LayerSpec, NetworkParams, NetworkSpec, backward,
                              forward_batch)
    from grnn.numerics import Rng
    from grnn.optim import OptimizerState, apply

    def stepper(spec, dtype: str, x, y):
        """(step, params): a closure running one training step in `dtype`, and
        the weights it updates."""
        params = NetworkParams.init(spec, Rng(3), DTYPES[dtype])
        grads = NetworkParams.zeros(spec, DTYPES[dtype])
        opt, ws = OptimizerState.create("nadam", 1e-4), {}
        x = x.astype(DTYPES[dtype])

        def step():
            preds, tape = forward_batch(spec, params, x, ws)
            backward(spec, params, tape, (2.0 * (preds[:, 0] - y) / BATCH)[:, None], grads, ws)
            apply(opt, params, grads)

        return step, params

    times, digests = {}, {}
    for name, (layers, k) in STEP_SHAPES.items():
        spec = NetworkSpec(layers=tuple(LayerSpec(*layer) for layer in layers),
                           input_dim=FEATURES)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((BATCH, LOOKBACK, FEATURES))
        y = rng.standard_normal(BATCH)
        steps = {f"{name}/{dtype}": stepper(spec, dtype, x, y)
                 for dtype in ("float64", "float32")}
        times.update({key: [] for key in steps})
        for step, _ in steps.values():
            step()
            step()
        for _ in range(k):
            for key, (step, _) in steps.items():
                started = time.perf_counter()
                step()
                times[key].append(time.perf_counter() - started)
        for key, (_, params) in steps.items():
            digests[key] = sha1(params.flat.tobytes())
    return {"times": times, "digests": digests}


def timed(argv: list) -> float:
    started = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - started


def setup_case(tree: str) -> dict:
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

        def stage(name, fn, *args, **kwargs):
            started = time.perf_counter()
            value = fn(*args, **kwargs)
            times[name].append(time.perf_counter() - started)
            return value

        for _ in range(STAGE_REPEATS):
            frame = stage("ingest", data.ingest, cfg.sources, cfg.date_column)
            frame = stage("add_indicators", data.add_indicators, frame, cfg.target,
                          cfg.indicators)
            frame, norm = stage("normalize", data.normalize, frame, fit_on=cfg.fit_on,
                                split=cfg.split)
            stage("write_frame_csv", data.write_frame_csv, path, frame, cfg.date_column)
            frame = stage("read_frame_csv", data.read_frame_csv, path, cfg.date_column)
            stage("window", data.window, frame, cfg.lookback, norm, split=cfg.split,
                  target=cfg.target)
    return {"times": times, "digests": digests}


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


CASES = {
    "step": (step_case, "seconds of one training step (forward_batch + backward + nadam "
                        f"apply), batch {BATCH}, lookback {LOOKBACK}, {FEATURES} features"),
    "setup": (setup_case, "seconds of command start-up on the synthetic market bundle: "
                          "fresh-process `import grnn.cli` and `grnn prepare`, and each "
                          "prepare stage in-process"),
    "pool": (pool_case, "raw wall seconds of one multi-seed run_experiment: serial, "
                        "one_worker and pooled"),
}


def child(case: str, tree: str) -> None:
    """Run one case with the grnn on sys.path; print its result as one JSON line."""
    with contextlib.redirect_stdout(sys.stderr):
        result = CASES[case][0](tree)
    print(json.dumps(result))


def run_child(case: str, tree: str, work: str) -> dict:
    path = os.pathsep.join([os.path.join(tree, "src"), os.path.join(ROOT, "scripts")])
    done = subprocess.run([sys.executable, "-c", CHILD, case, tree], cwd=work, check=True,
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


def report(case: str, environment: dict, rounds: int, commits: dict, runs: dict) -> dict:
    """The BENCH_<case>.json record of `runs`: tree -> list of child results."""
    result = {"case": case, "what": CASES[case][1], "environment": environment,
              "rounds": rounds, "trees": {}}
    times = {}
    for name, outs in runs.items():
        times[name] = {key: [t for out in outs for t in out["times"][key]]
                       for key in outs[0]["times"]}
        tree = result["trees"][name] = {
            "git_commit": commits[name], "digests": outs[-1]["digests"],
            "times": {key: summary(ts) for key, ts in times[name].items()}}
        if "peak_rss_mb" in outs[0]:
            tree["peak_rss_mb"] = {
                shape: {what: max(out["peak_rss_mb"][shape][what] for out in outs)
                        for what in outs[0]["peak_rss_mb"][shape]}
                for shape in outs[0]["peak_rss_mb"]}
    if "parent" in runs:
        trees = result["trees"]
        result["artifacts_identical"] = (trees["change"]["digests"]
                                         == trees["parent"]["digests"])
        result["change_vs_parent"] = {
            key: {"median_ratio": (trees["change"]["times"][key]["median_s"]
                                   / trees["parent"]["times"][key]["median_s"]),
                  "pairs_faster": sum(a < b for a, b in zip(ts, times["parent"][key])),
                  "pairs": len(ts)}
            for key, ts in times["change"].items()}
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
    from grnn.synthetic import write_bundle, write_sine

    environment = envinfo.record(ROOT)
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
                for name in order:
                    runs[case][name].append(run_child(case, trees[name], work))

    for case in cases:
        result = report(case, environment, args.rounds, commits, runs[case])
        for key in result["trees"]["change"]["times"]:
            line = " | ".join(f"{name} median {tree['times'][key]['median_s'] * 1e3:9.2f} ms"
                              for name, tree in result["trees"].items())
            if "change_vs_parent" in result:
                vs = result["change_vs_parent"][key]
                line += (f" | x{vs['median_ratio']:.3f}, faster in "
                         f"{vs['pairs_faster']}/{vs['pairs']}")
            print(f"{case}/{key:<22} {line}")
        path = os.path.join(args.out_dir, f"BENCH_{case}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
