"""Time multi-seed training in-process and in the worker pool; write BENCH_pool.json.

Three cases, each trained through `run_experiment` on a dataset that
`grnn prepare` builds from the synthetic inputs the benchmark uses:

    c09        lstm1 of profiles/synthetic-market.ini (47 units, batch 46) on
               the synthetic market bundle, 8 seeds x 12 epochs (perfbench
               train-lstm1)
    sine       lstm1 of profiles/smoke-sine.ini (16 units, batch 16), 2 seeds
               x 15 epochs (the train command of perfbench pipeline-sine)
    gru-lstm1  gru-lstm1 of profiles/synthetic-market.ini (498 and 311 units,
               batch 46), 2 seeds x 2 epochs: the GEMM-bound shape, where a
               second BLAS thread speeds one seed up most

Three ways of running the same seeds alternate, round by round, so drift
of a shared host hits them alike:

    serial      one `run_experiment(repeats=1)` per seed: in-process at the
                process's BLAS threads, as multi-seed runs trained before
    in_process  `workers=1`: in-process, BLAS capped to one thread
    pooled      `workers=pool_size(repeats)`: forked one-BLAS-thread workers

Each reports the min and median of its raw wall seconds over --rounds.
After each case the result records the peak RSS so far of this process and
of the largest pool worker (RUSAGE_CHILDREN); the cases run from the
smallest network to the largest, so each reading is its own case's.  The
machine is recorded with perfbench/envinfo.py.

    python scripts/bench_pool.py [--rounds 5] [--out BENCH_pool.json]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import envinfo  # noqa: E402
from grnn import cli  # noqa: E402
from grnn.config import load_config  # noqa: E402
from grnn.synthetic import write_bundle, write_sine  # noqa: E402
from grnn.train import pool_size, run_experiment  # noqa: E402

# name: (profile, inputs, architecture, seeds, epochs)
CASES = {
    "c09": ("synthetic-market.ini", "market", "lstm1", 8, 12),
    "sine": ("smoke-sine.ini", "sine", "lstm1", 2, 15),
    "gru-lstm1": ("synthetic-market.ini", "market", "gru-lstm1", 2, 2),
}
MODES = ("serial", "in_process", "pooled")


def prepared(profile: str, inputs: str):
    """(config, dataset) as `grnn prepare` writes and `grnn train` reads them."""
    path, cwd = os.path.join(ROOT, "profiles", profile), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)              # the profiles name their sources relative to it
        try:
            if inputs == "market":
                write_bundle(os.path.join("data", "synthetic"), seed=0)
            else:
                os.makedirs(os.path.join("data", "sine"))
                write_sine(os.path.join("data", "sine", "sine.csv"))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if cli.main(["prepare", "--config", path, "--out", "out"]) != 0:
                    raise SystemExit(f"grnn prepare failed on {profile}")
            cfg = load_config(path)
            return cfg, cli.load_prepared(cfg, "out")
        finally:
            os.chdir(cwd)


def runner(cfg, dataset, label: str, seeds: int, epochs: int):
    arch = cfg.arch(label)
    spec = cli._network_spec(cfg, arch, arch.units)
    tc = replace(cfg.train, batch_size=arch.batch_size, learning_rate=arch.learning_rate,
                 max_epochs=epochs, patience=epochs)

    def run(mode: str) -> list:
        if mode == "serial":
            return [run_experiment(spec, dataset, replace(tc, seed=tc.seed + k),
                                   repeats=1).runs[0] for k in range(seeds)]
        workers = 1 if mode == "in_process" else pool_size(seeds)
        return run_experiment(spec, dataset, tc, repeats=seeds, workers=workers).runs

    return run


def bench_case(name: str, rounds: int) -> dict:
    profile, inputs, label, seeds, epochs = CASES[name]
    run = runner(*prepared(profile, inputs), label, seeds, epochs)
    times = {mode: [] for mode in MODES}
    for _ in range(rounds):
        for mode in MODES:
            started = time.perf_counter()
            runs = run(mode)
            times[mode].append(time.perf_counter() - started)
            assert [r.status for r in runs] == ["complete"] * seeds, runs
    out = {"seeds": seeds, "epochs": epochs, "workers": pool_size(seeds), "rounds": rounds}
    for mode, ts in times.items():
        out[mode] = {"min_s": min(ts), "median_s": statistics.median(ts), "all_s": ts}
    out["median_speedup_pooled_vs_in_process"] = (out["in_process"]["median_s"]
                                                  / out["pooled"]["median_s"])
    out["median_speedup_pooled_vs_serial"] = out["serial"]["median_s"] / out["pooled"]["median_s"]
    out["peak_rss_mb_so_far"] = peak_rss_mb()
    return out


def peak_rss_mb() -> dict:
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "largest_worker": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_pool.json"))
    args = ap.parse_args(argv)
    result = {"what": "raw wall seconds of one multi-seed run_experiment; before = "
                      "in_process (one BLAS thread, one seed after another), after = pooled",
              "environment": envinfo.record(ROOT), "cases": {}}
    for name in CASES:
        case = result["cases"][name] = bench_case(name, args.rounds)
        print(f"{name:<9} " + " | ".join(
            f"{mode} min {case[mode]['min_s']:6.2f} s median {case[mode]['median_s']:6.2f} s"
            for mode in MODES))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
