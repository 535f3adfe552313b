"""Time command start-up and the prepare stages; write BENCH_setup.json.

Start-up is what every grnn command pays before its own work: the
interpreter, `import grnn.cli`, and for `grnn prepare` the whole command.
Each round times, in fresh processes and on the synthetic market bundle
(seed 0) under profiles/synthetic-market.ini:

    import    python -c "import grnn.cli"
    prepare   python -m grnn.cli prepare (ingest six CSVs, MACD and RSI,
              min-max scaling, write prepared.csv and norm_params.json)
    stages    one more process that runs each stage --repeats times on the
              same data and reports every time: ingest, add_indicators,
              normalize, write_frame_csv, read_frame_csv and window

The result gives the median and min of each over all rounds.  With
--against REV the tree of REV (`git archive`, unpacked into a temporary
directory that is removed afterwards) is timed too, first in every other
round, so drift of a shared host hits both trees alike.  The result then
also counts the pairs of timings (same round, same repeat) in which this
tree was faster, and checks that both trees write byte-identical
prepared.csv and norm_params.json.  The machine is recorded with
perfbench/envinfo.py.

    python scripts/bench_setup.py [--rounds 15] [--repeats 5] [--against REV]
                                  [--out BENCH_setup.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROFILE = os.path.join("profiles", "synthetic-market.ini")
STAGES = ("ingest", "add_indicators", "normalize", "write_frame_csv", "read_frame_csv",
          "window")
ARTIFACTS = ("prepared.csv", "norm_params.json")


def stage_times(tree: str, repeats: int) -> dict:
    """Seconds of each prepare stage, `repeats` times, with `tree`'s grnn (run
    in the data directory, in a process of its own)."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from grnn import data
    from grnn.config import load_config

    cfg = load_config(os.path.join(tree, PROFILE))
    out = os.path.join("stages", "prepared.csv")
    os.makedirs("stages", exist_ok=True)
    times = {name: [] for name in STAGES}

    def stage(name, fn, *args, **kwargs):
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        times[name].append(time.perf_counter() - started)
        return value

    for _ in range(repeats):
        frame = stage("ingest", data.ingest, cfg.sources, cfg.date_column)
        frame = stage("add_indicators", data.add_indicators, frame, cfg.target, cfg.indicators)
        frame, norm = stage("normalize", data.normalize, frame, fit_on=cfg.fit_on,
                            split=cfg.split)
        stage("write_frame_csv", data.write_frame_csv, out, frame, cfg.date_column)
        frame = stage("read_frame_csv", data.read_frame_csv, out, cfg.date_column)
        stage("window", data.window, frame, cfg.lookback, norm, split=cfg.split,
              target=cfg.target)
    return times


def timed(argv: list, env: dict) -> float:
    started = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - started


def sha1(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def one_round(name: str, tree: str, repeats: int, times: dict) -> dict:
    """Time one round of `tree` into `times`; return its artifacts' sha1."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    times["import"].append(timed([sys.executable, "-c", "import grnn.cli"], env))
    out = f"out-{name}"
    times["prepare"].append(timed([sys.executable, "-m", "grnn.cli", "prepare", "--config",
                                   os.path.join(tree, PROFILE), "--out", out], env))
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--stages-of", tree,
                           "--repeats", str(repeats)], check=True, capture_output=True,
                          text=True)
    for stage, ts in json.loads(done.stdout).items():
        times[stage].extend(ts)
    return {artifact: sha1(os.path.join(out, artifact)) for artifact in ARTIFACTS}


def summary(ts: list) -> dict:
    return {"median_s": statistics.median(ts), "min_s": min(ts), "n": len(ts)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--repeats", type=int, default=5, help="stage repeats per round")
    ap.add_argument("--against", metavar="REV", help="also time this git revision")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_setup.json"))
    ap.add_argument("--stages-of", metavar="TREE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stages_of:
        print(json.dumps(stage_times(args.stages_of, args.repeats)))
        return 0

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import envinfo
    from grnn.synthetic import write_bundle

    keys = ("import", "prepare", *STAGES)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": ROOT}
        revs = {"change": envinfo.record(ROOT)["git_commit"]}
        if args.against:
            revs["parent"] = subprocess.run(
                ["git", "rev-parse", "--verify", f"{args.against}^{{commit}}"], cwd=ROOT,
                check=True, capture_output=True, text=True).stdout.strip()
            trees["parent"] = os.path.join(tmp, "parent")
            os.makedirs(trees["parent"])
            archive = subprocess.run(["git", "archive", revs["parent"]], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", trees["parent"]], input=archive, check=True)
        work = os.path.join(tmp, "work")
        write_bundle(os.path.join(work, "data", "synthetic"), seed=0)
        times = {name: {key: [] for key in keys} for name in trees}
        digests = {}
        cwd = os.getcwd()
        os.chdir(work)              # the profile names its sources relative to it
        try:
            for r in range(args.rounds):
                order = list(trees) if r % 2 else list(trees)[::-1]
                for name in order:
                    digests[name] = one_round(name, trees[name], args.repeats, times[name])
        finally:
            os.chdir(cwd)

    result = {
        "what": "seconds of command start-up on the synthetic market bundle: fresh-process "
                "`import grnn.cli` and `grnn prepare`, and each prepare stage in-process",
        "environment": envinfo.record(ROOT),
        "rounds": args.rounds,
        "stage_repeats": args.repeats,
        "trees": {name: {"git_commit": revs[name], "artifact_sha1": digests[name],
                         **{key: summary(times[name][key]) for key in keys}}
                  for name in trees},
    }
    if "parent" in trees:
        result["artifacts_identical"] = digests["parent"] == digests["change"]
        result["change_vs_parent"] = {
            key: {"median_ratio": (result["trees"]["change"][key]["median_s"]
                                   / result["trees"]["parent"][key]["median_s"]),
                  "pairs_faster": sum(a < b for a, b in zip(times["change"][key],
                                                            times["parent"][key])),
                  "pairs": len(times["change"][key])}
            for key in keys}
    for key in keys:
        print(f"{key:<16}" + " | ".join(
            f"{name} median {result['trees'][name][key]['median_s'] * 1e3:7.1f} ms"
            for name in trees))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
