"""Does float32 training measure the same as float64?  Welch tests per architecture.

Trains the same seeds of each architecture once per compute dtype on the
synthetic market bundle, with the hyperparameters and protocol of
profiles/synthetic-market.ini, and runs `stats.welch_t` (the test behind
`grnn compare`) on the retained runs' test R2 and MAPE, float32 against
float64.  `gru-lstm1` is capped at 40 epochs in both dtypes to keep its
1.77 M parameters affordable; every other run uses the profile's 200
epochs.  Early stopping (patience 5) applies to all.

    python scripts/compare_dtypes.py [--seeds 10] [--log dtype_runs.jsonl]

Each finished (architecture, dtype) group is appended to --log, and a rerun
skips the groups already there, so an interrupted comparison resumes.  The
seeds run as `grnn train` runs them: `run_experiment` spreads them over
one-BLAS-thread workers, as many as the cores (GRNN_THREADS caps it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARCHS = ("lstm1", "gru1", "lstm-gru1", "gru-lstm1")
DTYPES = ("float32", "float64")
HYBRID, HYBRID_EPOCHS = "gru-lstm1", 40


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds per architecture and dtype")
    ap.add_argument("--log", default="dtype_runs.jsonl", help="per-group results (resumable)")
    return ap.parse_args(argv)


def market_dataset(cfg):
    """The synthetic bundle prepared as `grnn prepare` does for the profile."""
    from grnn.data import TimeSeriesFrame, add_indicators, normalize, window
    from grnn.synthetic import make_sources

    dates, values = make_sources(seed=0)
    frame = add_indicators(TimeSeriesFrame(dates, dict(values)), cfg.target, cfg.indicators)
    norm_frame, norm = normalize(frame, fit_on=cfg.fit_on, split=cfg.split)
    return window(norm_frame, cfg.lookback, norm, split=cfg.split, target=cfg.target)


def run_group(cfg, dataset, label, dtype, seeds: int) -> dict:
    from dataclasses import replace

    from grnn.network import LayerSpec, NetworkSpec
    from grnn.train import run_experiment

    arch = cfg.arch(label)
    spec = NetworkSpec(tuple(LayerSpec(kind, units, cfg.train.activation)
                             for kind, units in zip(arch.cell_kinds, arch.units)),
                       input_dim=len(dataset.feature_order))
    tc = replace(cfg.train, dtype=dtype, learning_rate=arch.learning_rate,
                 batch_size=arch.batch_size)
    if label == HYBRID:
        tc = replace(tc, max_epochs=HYBRID_EPOCHS)
    archive = run_experiment(spec, dataset, tc, repeats=seeds, architecture=label,
                             r2_bar=cfg.train.r2_bar)
    return {"architecture": label, "dtype": dtype, "max_epochs": tc.max_epochs,
            "runs": [run.to_record() for run in archive.runs]}


def welch_row(label, metric, groups) -> str:
    from grnn.stats import welch_t

    samples = {dtype: [run["report"][metric] for run in groups[dtype]["runs"]
                       if run["retained"]] for dtype in DTYPES}
    n32, n64 = len(samples["float32"]), len(samples["float64"])
    means = "".join(f" {sum(s) / len(s):>10.5g}" if s else f" {'-':>10}"
                    for s in samples.values())
    try:
        res = welch_t(samples["float32"], samples["float64"])
        test = (f" {res.t_statistic:>9.2e} {res.dof:>6.1f} {res.p_value:>8.4f} "
                f"{'yes' if res.significant_at_05 else 'no':>5}")
    except ValueError:
        test = f" {'insufficient data':>30}"
    return f"{label:<10} {metric:<5} {n32:>3} {n64:>3}{means}{test}"


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from grnn.config import load_config

    cfg = load_config(os.path.join(ROOT, "profiles", "synthetic-market.ini"))
    dataset = market_dataset(cfg)
    done = {}
    if os.path.exists(args.log):
        with open(args.log, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                done[rec["architecture"], rec["dtype"]] = rec
    for label in ARCHS:
        for dtype in DTYPES:
            if (label, dtype) in done:
                continue
            print(f"training {label} in {dtype} ...", file=sys.stderr, flush=True)
            rec = done[label, dtype] = run_group(cfg, dataset, label, dtype, args.seeds)
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    print(f"{'arch':<10} {'metric':<5} {'n32':>3} {'n64':>3} {'mean f32':>10} {'mean f64':>10} "
          f"{'t':>9} {'dof':>6} {'p':>8} {'sig.':>5}")
    for label in ARCHS:
        groups = {dtype: done[label, dtype] for dtype in DTYPES}
        for metric in ("r2", "mape"):
            print(welch_row(label, metric, groups))
    return 0


if __name__ == "__main__":
    sys.exit(main())
