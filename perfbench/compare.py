"""Summarize one set of benchmark results, or compare two.

    python3 perfbench/compare.py SET.jsonl            # spread of each metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl # NEW against BASE

A set is a ``results.jsonl`` that run.py appends to (one line per run).
Only untraced runs (``--trace 0``) are compared.  For each workload and
end-to-end metric it prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median).  With two sets it
also prints how much worse NEW's median is than BASE's, as a share of
BASE's, against the metric's bound in BENCHMARK.json.

Two sets measured in different environments (core count, Python, numpy,
BLAS, thread settings) are refused: the thread count alone moves an epoch
by 70%.  Exit status: 0 when every metric is within its bound, 1 when one
is not, 2 when the sets cannot be compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MACHINE_KEYS = ("nproc", "python", "numpy", "blas", "threads")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [r for r in (json.loads(line) for line in fh if line.strip())
                if r["trace"] == 0]


def machine(records: list[dict]) -> dict:
    envs = {json.dumps({k: r["env"][k] for k in MACHINE_KEYS}, sort_keys=True)
            for r in records}
    if len(envs) != 1:
        raise ValueError(f"a set mixes {len(envs)} environments")
    return json.loads(envs.pop())


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med


def by_workload(records: list[dict]) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sets = [load(p) for p in argv]
    try:
        envs = [machine(s) for s in sets]
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if len(envs) == 2 and envs[0] != envs[1]:
        print(f"refused: environments differ:\n  {envs[0]}\n  {envs[1]}", file=sys.stderr)
        return 2
    print(f"environment: {envs[0]}")

    ok = True
    groups = [by_workload(s) for s in sets]
    for workload in sorted(groups[0]):
        runs = [g.get(workload, []) for g in groups]
        print(f"\n{workload}: " + " vs ".join(f"{len(r)} runs" for r in runs))
        for name, metric in spec.items():
            stats = [spread([r["metrics"][name]["value"] for r in rs]) for rs in runs if rs]
            if len(stats) != len(runs):
                print(f"  {name}: missing in one set")
                ok = False
                continue
            cells = [f"median {m:.6g} [{q1:.6g}, {q3:.6g}] spread {s:.3f}"
                     for m, q1, q3, s in stats]
            bound = metric["bound"]
            flag = ""
            if any(s[3] > bound for s in stats):
                flag += " SPREAD>BOUND"
                ok = False
            if len(stats) == 2:
                base, new = stats[0][0], stats[1][0]
                worse = (new - base) / base if metric["better"] == "lower" else (base - new) / base
                cells.append(f"worse by {worse:+.3f}")
                if worse > bound:
                    flag += " WORSE>BOUND"
                    ok = False
            print(f"  {name} ({metric['unit']}, bound {bound}): " + " | ".join(cells) + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
