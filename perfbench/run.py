"""grnn benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a grnn checkout.  Each workload run starts fresh
child processes (see child.py) that import grnn from ``src`` and call
``grnn.cli.main`` once per command, closed-loop with one client.

``--trace 0`` measures the end-to-end metrics: set-up-only children
(import + ``grnn prepare``) for the set-up time, before and after whole
passes of the workload.  The number of passes is ``--seconds`` over the
workload's nominal pass time, rounded (at least one), so it never depends
on how fast the program runs.  Times are scaled to a reference host speed
by the readings of a probe run beside them (probe.py).  Every pass uses
the same seed, so every pass must write byte-identical artifacts.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of the
traced one, with the tracing overhead as the difference between the two.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every result, with the
environment it was measured in, is also appended to
``.perfbench-work/results.jsonl`` for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import REF_S as PROBE_REF_S  # noqa: E402
from workloads import PROGRESS, WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench-work"
SETUP_SAMPLES = 6            # set-up-only children per run, besides each pass
RUN_LIMIT_S = 170           # a whole run, children included, ends within this
NO_QUALIFYING_RUN = "no qualifying run"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(root: str, mode: str, workload: str, seed: int, workdir: str, deadline: float,
          result: str | None = None, extra=()) -> dict | None:
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, "--root", root,
            "--workload", workload, "--seed", str(seed), "--workdir", workdir, *extra]
    if result is not None:
        argv += ["--result", result]
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if result is None:
        return None
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(root: str, workload: str, seed: int, workdir: str, deadline: float, name: str,
             setup_only=False, trace=False) -> dict:
    """One fresh child over the workload's commands, from a clean output dir."""
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    extra = ["--setup-only"] if setup_only else []
    if trace:
        extra += ["--trace", os.path.join(workdir, f"{name}.spans.tsv")]
    rec = spawn(root, "run", workload, seed, workdir, deadline,
                result=os.path.join(workdir, f"{name}.json"), extra=extra)
    for i, cmd in enumerate(rec["commands"]):
        with open(os.path.join(workdir, f"{name}.{i}.{cmd['label']}.log"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"$ grnn {' '.join(cmd['argv'])}\n# exit {cmd['exit']}\n"
                     f"{cmd['stdout']}{cmd['stderr']}")
    return rec


def outcome(command, cmd: dict) -> str:
    """"ok", "missed" or "broken".

    A traceback, an ``error:`` line or an unexpected exit code is broken
    output.  ``grnn train``'s exit 1 "no qualifying run" is a well-formed
    outcome: expected on capped ``train-gru-lstm1``, and elsewhere a failed
    operation (no seed of the experiment cleared the R2 bar).
    """
    lines = cmd["stderr"].strip().splitlines()
    last = lines[-1] if lines else ""
    if cmd["traceback"] or last.startswith("error:"):
        return "broken"
    if cmd["exit"] == 0:
        return "ok"
    if cmd["exit"] == 1 and last.startswith(NO_QUALIFYING_RUN):
        return "ok" if command.no_qualifying_run_expected else "missed"
    return "broken"


def account(workload, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command, training run and trial."""
    attempted = failed = 0
    problems = []
    by_label = {c.label: c for c in workload.commands}
    for p in passes:
        for cmd in p["commands"]:
            attempted += 1
            result = outcome(by_label[cmd["label"]], cmd)
            failed += result != "ok"
            if result == "broken":
                problems.append(f"command {cmd['label']} exit {cmd['exit']}: "
                                f"{cmd['stderr'].strip()[-300:]}")
        missing = p["planned"] - len(p["commands"])
        if missing:
            attempted += missing
            failed += missing
            problems.append(f"{missing} commands not run after a traceback")
        facts = p.get("facts")
        if facts is None:
            continue
        for label, t in facts["train"].items():
            attempted += len(t["runs"])
            failed += sum(status != "complete" for status, _ in t["runs"])
            if not t["runs"]:
                problems.append(f"{label}: archive has no runs")
        for label, h in facts["hpo"].items():
            attempted += h["trials"]
            failed += h["failed"]
            if h["trials"] == 0:
                problems.append(f"{label}: no trials recorded")
    return attempted, failed, problems


def digest_problems(key: str, recs: list[dict], workdir_root: str) -> list[str]:
    """Artifacts must be identical across passes and across runs of one seed."""
    problems = []
    full = [r["artifacts"] for r in recs if r.get("facts") is not None]
    prepared = [{k: v for k, v in r["artifacts"].items() if "/" not in k} for r in recs]
    if any(d != prepared[0] for d in prepared[1:]):
        problems.append("prepare wrote different files across repeats")
    if any(d != full[0] for d in full[1:]):
        problems.append("passes of one seed wrote different artifacts")
    if not full:
        return problems
    store = os.path.join(workdir_root, "digests.json")
    known = {}
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            known = json.load(fh)
    if key in known and known[key] != full[0]:
        problems.append("artifacts differ from an earlier run of the same seed and source")
    known.setdefault(key, full[0])
    with open(store, "w", encoding="utf-8") as fh:
        json.dump(known, fh, sort_keys=True)
    return problems


def segments(cmd: dict) -> list[tuple[float, str]]:
    """A command's time split at its progress lines: [(seconds, line)].

    ``grnn train`` prints one line per training run and ``grnn hpo`` one per
    trial, so each segment is one run (with its test evaluation) or one
    trial, ended by its line; the last segment, with the line "", is what the
    command does after them.  Where the child ran the probe, the time
    between each two readings is scaled to the reference host speed by the
    mean of the two (see probe.py); a dropped timer reading only leaves out
    its own time.
    """
    marks = [*cmd["stamps"], (cmd["end"], "", cmd["probe_end"], None)]
    out, spent = [], 0.0
    last, last_probe, paused = cmd["start"], cmd["probe_start"], 0.0
    for t, line, probe, resume in marks:
        if line is None and probe is None:
            paused += resume - t
            continue
        scale = 1.0 if probe is None else 2 * PROBE_REF_S / (last_probe + probe)
        spent += (t - last - paused) * scale
        if line is not None:
            out.append((spent, line))
            spent = 0.0
        last, last_probe, paused = resume, probe, 0.0
    return out


def median_segments(passes: list[dict]) -> dict:
    """{command label: [(seconds, line)]} over the commands after prepare,
    each segment at its median over the passes.

    Every pass does the same work, so the median over a fixed number of
    passes leaves out what the probe could not see: spells of the host
    shorter than a segment.
    """
    out = {}
    for i, cmd in enumerate(passes[0]["commands"][1:], start=1):
        per_pass = [segments(p["commands"][i]) for p in passes]
        if any([line for _, line in s] != [line for _, line in per_pass[0]] for s in per_pass):
            raise BenchError(f"{cmd['label']}: passes printed different progress")
        out[cmd["label"]] = [(statistics.median(s for s, _ in seg), seg[0][1])
                             for seg in zip(*per_pass)]
    return out


def train_rate(medians: dict, facts: dict) -> float:
    """Train windows per second over the complete training runs.

    ``grnn train`` prints one progress line per run, in archive order, so
    the first segments of its command pair with the archive's runs.
    """
    windows = seconds = 0.0
    for label, t in facts["train"].items():
        if len(medians[label]) != len(t["runs"]) + 1:
            raise BenchError(f"{label}: {len(medians[label]) - 1} progress lines "
                             f"for {len(t['runs'])} archived runs")
        for (secs, _), (status, epochs) in zip(medians[label], t["runs"]):
            if status == "complete" and epochs > 0:
                windows += epochs * facts["train_windows_per_epoch"]
                seconds += secs
    if not seconds:
        raise BenchError("no training run completed")
    return windows / seconds


def pass_facts(rec: dict) -> dict:
    """Raw times of one pass (not scaled), kept with the result record."""
    seconds = {c["label"]: c["seconds"] for c in rec["commands"]}
    return {"wall_s": sum(seconds.values()) - seconds["prepare"],
            "hpo_s": sum(seconds[label] for label in rec["facts"]["hpo"])}


def end_to_end(setups: list[dict], passes: list[dict], attempted: int, failed: int) -> dict:
    medians = median_segments(passes)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * PROBE_REF_S / r["setup_probe_s"]
                                      for r in setups + passes), "s"),
        "wall_s": (sum(s for segs in medians.values() for s, _ in segs), "s"),
        "train_windows_per_s": (train_rate(medians, passes[0]["facts"]), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_ok_share": ((attempted - failed) / attempted, "share"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(plain: dict, traced: dict) -> dict:
    from tracer import ABSENT, target_names

    metrics = {}
    layers = traced["layers"]
    for key in target_names():
        row = layers.get(key, ABSENT)
        for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            metrics[f"{key}.{field}"] = ({"value": None, "unit": unit, "absent": True}
                                         if row == ABSENT else
                                         {"value": row[field], "unit": unit})
    facts = traced["facts"]
    train = list(facts["train"].values())
    hpo = list(facts["hpo"].values())
    runs = sum(len(t["runs"]) for t in train)
    retained = sum(t["retained"] for t in train)
    epochs = sum(e for t in train for _, e in t["runs"])
    wall = [sum(c["seconds"] for c in r["commands"]) for r in (plain, traced)]
    counts = {
        "train.runs": (runs, "count"),
        "train.runs_retained": (retained, "count"),
        "train.retained_ratio": (retained / runs if runs else 0.0, "share"),
        "train.epochs": (epochs, "count"),
        "train.windows": (epochs * facts["train_windows_per_epoch"], "count"),
        "hpo.trials": (sum(h["trials"] for h in hpo), "count"),
        "hpo.trials_failed": (sum(h["failed"] for h in hpo), "count"),
        "trace.overhead_s": (wall[1] - wall[0], "s"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in counts.items()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "grnn", "cli.py")):
        print(f"error: {root} is not a grnn checkout (no src/grnn/cli.py)", file=sys.stderr)
        return 2
    import envinfo

    workload = WORKLOADS[args.workload]
    work_root = os.path.join(root, WORK_DIR)
    workdir = os.path.join(work_root, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = envinfo.record(root)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        spawn(root, "inputs", args.workload, args.seed, workdir, deadline)

        def child(name, **kw):
            return run_pass(root, args.workload, args.seed, workdir, deadline, name, **kw)

        if args.trace:
            setups = []
            passes = [child("plain"), child("traced", trace=True)]
        else:
            # half the set-up samples before the passes and half after, so
            # one slow spell of a shared machine does not cover all of them
            half = SETUP_SAMPLES // 2
            setups = [child(f"setup{i}", setup_only=True) for i in range(half)]
            passes = [child(f"pass{i}") for i in range(workload.passes(args.seconds))]
            setups += [child(f"setup{i}", setup_only=True)
                       for i in range(half, SETUP_SAMPLES)]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = account(workload, setups + passes)
    problems += digest_problems(f"{env['source']}|{args.workload}|{args.seed}",
                                setups + passes, work_root)
    complete = all(p.get("facts") is not None for p in passes)
    if not complete:
        problems.append("a pass ended without readable artifacts")
    metrics = {}
    try:
        if complete and args.trace:
            metrics = per_layer(*passes)
        elif complete:
            metrics = end_to_end(setups, passes, attempted, failed)
    except BenchError as exc:
        problems.append(str(exc))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(passes), "env": env,
              "problems": problems,
              "pass_times": [pass_facts(p) for p in passes] if complete else [],
              "correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(work_root, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
