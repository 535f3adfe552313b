"""Time one training step per compute dtype, in process, and write BENCH_float32.json.

A step is what `train` runs per batch: `forward_batch`, `backward` and a
nadam `apply`, reusing one workspace and one gradient vector.  Two shapes:

    c09        lstm1, 47 units, batch 46, lookback 10, 8 features (10,576 parameters)
    gru-lstm1  GRU 498 into LSTM 311, batch 46, lookback 10, 8 features (1.77 M)

float64 and float32 steps alternate, so drift of a shared host hits both
alike.  Each case reports the min and median of its k timed steps per dtype
after two warm-up steps, and the result records the core count, numpy,
BLAS and thread variables (perfbench/envinfo.py).

    python scripts/bench_dtype.py [--k-c09 300] [--k-gru-lstm1 20] [--out BENCH_float32.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
from grnn.network import (DTYPES, LayerSpec, NetworkParams, NetworkSpec,  # noqa: E402
                          backward, forward_batch)
from grnn.numerics import Rng  # noqa: E402
from grnn.optim import OptimizerState, apply  # noqa: E402

BATCH, LOOKBACK, FEATURES = 46, 10, 8
CASES = {
    "c09": (LayerSpec("lstm", 47),),
    "gru-lstm1": (LayerSpec("gru", 498), LayerSpec("lstm", 311)),
}


def stepper(spec: NetworkSpec, dtype: str, x, y):
    """A closure running one training step, as `train` does, in `dtype`."""
    params = NetworkParams.init(spec, Rng(3), DTYPES[dtype])
    grads = NetworkParams.zeros(spec, DTYPES[dtype])
    opt, ws = OptimizerState.create("nadam", 1e-4), {}
    x = x.astype(DTYPES[dtype])

    def step():
        preds, tape = forward_batch(spec, params, x, ws)
        backward(spec, params, tape, (2.0 * (preds[:, 0] - y) / BATCH)[:, None], grads, ws)
        apply(opt, params, grads)

    return step


def bench_case(layers, k: int) -> dict:
    spec = NetworkSpec(layers=layers, input_dim=FEATURES)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH, LOOKBACK, FEATURES))
    y = rng.standard_normal(BATCH)
    steps = {dtype: stepper(spec, dtype, x, y) for dtype in ("float64", "float32")}
    times = {dtype: [] for dtype in steps}
    for step in steps.values():
        step()
        step()
    for _ in range(k):
        for dtype, step in steps.items():
            started = time.perf_counter()
            step()
            times[dtype].append(time.perf_counter() - started)
    out = {"parameters": NetworkParams.zeros(spec).flat.size, "k": k}
    for dtype, ts in times.items():
        out[dtype] = {"min_ms": 1e3 * min(ts), "median_ms": 1e3 * statistics.median(ts)}
    out["median_speedup"] = out["float64"]["median_ms"] / out["float32"]["median_ms"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k-c09", type=int, default=300)
    ap.add_argument("--k-gru-lstm1", type=int, default=20)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_float32.json"))
    args = ap.parse_args(argv)
    ks = {"c09": args.k_c09, "gru-lstm1": args.k_gru_lstm1}
    result = {"what": "one training step (forward_batch + backward + nadam apply), "
                      f"batch {BATCH}, lookback {LOOKBACK}, {FEATURES} features; "
                      "before = float64, after = float32",
              "environment": envinfo.record(ROOT), "cases": {}}
    for name, layers in CASES.items():
        case = result["cases"][name] = bench_case(layers, ks[name])
        print(f"{name:<10} float64 min {case['float64']['min_ms']:8.3f} ms "
              f"median {case['float64']['median_ms']:8.3f} ms | float32 min "
              f"{case['float32']['min_ms']:8.3f} ms median {case['float32']['median_ms']:8.3f} ms"
              f" | x{case['median_speedup']:.2f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
