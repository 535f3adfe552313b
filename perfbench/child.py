"""One fresh benchmark process: write inputs, or run a workload's commands.

    python perfbench/child.py inputs --root R --workload W --seed S --workdir D
    python perfbench/child.py run    --root R --workload W --seed S --workdir D
                                     --t0 T --result FILE [--setup-only] [--trace FILE]

``run`` imports grnn from ``R/src``, calls ``grnn.cli.main`` once per
command with the working directory at ``D`` (where ``inputs`` wrote the
synthetic data) and writes a JSON record of timings, exit codes, output
facts, artifact digests and peak RSS to FILE.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so the set-up
time covers interpreter start and every import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

from probe import other_threads_ticks  # noqa: E402
from workloads import PROGRESS  # noqa: E402


def _import_grnn(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import grnn.cli
    source = os.path.realpath(grnn.cli.__file__)
    if not source.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise SystemExit(f"imported grnn from {source}, not from {root}/src")
    return grnn.cli


TICK_S = 0.2        # period of the host-speed readings inside a command


class Sampler:
    """The host-speed readings taken while one command runs.

    ``mark(line)`` reads the probe at a progress line, after waiting for
    the process's other threads to go idle.  On a workload whose times are
    scaled, a one-shot interval timer (SIGALRM, re-armed after each reading)
    also reads it every TICK_S, without waiting, so a long segment is scaled
    by the host's speed inside it and not only at its ends.  A timer reading
    is dropped (None) if other threads (BLAS workers) used CPU since the
    previous reading, since their spinning slows the probe down.  Each
    sample is (time taken, progress line or None for a timer reading,
    reading, time resumed); without a probe the last two are None and the
    time taken.
    """

    def __init__(self, probe):
        self.probe = probe
        self.stamps: list[tuple[float, str | None, float | None, float]] = []
        self.busy = False
        self.threads_cpu = 0

    def __enter__(self):
        if self.probe is not None:
            self.threads_cpu = other_threads_ticks()
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def __exit__(self, *exc):
        if self.probe is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self, line: str) -> None:
        if self.probe is None:
            t = time.monotonic()
            self.stamps.append((t, line, None, t))
        else:
            self._sample(line)

    def _tick(self, signum, frame) -> None:
        if not self.busy:
            self._sample(None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def _sample(self, line: str | None) -> None:
        self.busy = True
        t = time.monotonic()
        if line is not None:
            reading = self.probe()
        elif other_threads_ticks() == self.threads_cpu:
            reading = self.probe(wait=False)
        else:
            reading = None
        self.threads_cpu = other_threads_ticks()
        self.stamps.append((t, line, reading, time.monotonic()))
        self.busy = False


class StampedStream(io.StringIO):
    """Captures text and marks each progress line on the sampler."""

    def __init__(self, sampler: Sampler):
        super().__init__()
        self.sampler = sampler

    def write(self, text: str) -> int:
        if PROGRESS.match(text):
            self.sampler.mark(text)
        return super().write(text)


def run_command(cli, argv: list[str], probe) -> dict:
    """Call cli.main(argv) with its output captured; never raises.

    A host-speed probe, if given, runs before and after the command, after
    each progress line (one per training run or HPO trial) and every
    TICK_S in between (see Sampler), so run.py can time each training run
    and trial and scale its time by the host's speed within it.
    ``seconds`` leaves out the probes run inside the command.
    """
    out, sampler = io.StringIO(), Sampler(probe)
    err = StampedStream(sampler)
    tb = None
    probe_start = probe() if probe else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler:
        start = time.monotonic()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # a traceback is a failed command
            code, tb = None, traceback.format_exc()
        end = time.monotonic()
    # a timer reading may fall between arming and start or end and disarming
    stamps = [s for s in sampler.stamps if start <= s[0] < end]
    return {"argv": argv, "exit": code, "start": start, "end": end,
            "seconds": end - start - sum(resume - t for t, _, _, resume in stamps),
            "stamps": stamps, "probe_start": probe_start,
            "probe_end": probe() if probe else None,
            "stdout": out.getvalue(), "stderr": err.getvalue() + (tb or ""),
            "traceback": tb is not None or "Traceback (most recent call last)" in err.getvalue()}


def digests(directory: str) -> dict:
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def output_facts(workload, root: str, seed: int) -> dict:
    """Read back from the artifacts: train windows per epoch, each training
    run's (status, stopped epoch) in archive order, and trial counts."""
    from grnn.cli import load_prepared
    from grnn.config import load_config

    cfg = load_config(os.path.join(root, workload.profile), [f"train.seed={seed}"])
    n_train = int(load_prepared(cfg, "out").train_x.shape[0])
    facts = {"train_windows_per_epoch": n_train, "train": {}, "hpo": {}}
    for cmd in workload.commands:
        if cmd.argv[0] == "train":
            arch = cmd.argv[cmd.argv.index("--arch") + 1]
            path = os.path.join("out", "train", arch, "archive.jsonl")
            runs = _jsonl(path)[1:] if os.path.exists(path) else []
            facts["train"][cmd.label] = {
                "runs": [(r["status"], r["stopped_epoch"]) for r in runs],
                "retained": sum(bool(r["retained"]) for r in runs),
            }
        elif cmd.argv[0] == "hpo":
            arch = cmd.argv[cmd.argv.index("--arch") + 1]
            path = os.path.join("out", "hpo", arch, "trials.jsonl")
            trials = _jsonl(path) if os.path.exists(path) else []
            facts["hpo"][cmd.label] = {
                "trials": len(trials),
                "failed": sum(t["status"] != "complete" for t in trials),
            }
    return facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("inputs", "run"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args()

    cli = _import_grnn(args.root)
    from probe import Probe
    from tracer import Tracer
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS[args.workload]
    os.chdir(args.workdir)
    if args.mode == "inputs":
        write_inputs(workload, args.seed, ".")
        return 0

    tracer = Tracer() if args.trace else None
    commands = workload.commands[:1] if args.setup_only else workload.commands
    results = []
    probe = setup_s = setup_probe = None
    with tracer or contextlib.nullcontext():
        for cmd in commands:
            results.append({"label": cmd.label,
                            **run_command(cli, workload.argv(cmd, args.root, args.seed), probe)})
            if setup_s is None:
                setup_s = time.monotonic() - args.t0
                probe = Probe()
                setup_probe = probe()          # the host's speed just after set-up
                if not workload.scaled or tracer is not None:
                    probe = None           # traced spans would hold its readings
            if results[-1]["exit"] is None:
                break                      # a traceback: later commands are moot
    if tracer is not None:
        tracer.write(args.trace)

    record = {
        "planned": len(commands),
        "setup_s": setup_s,
        "setup_probe_s": setup_probe,
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts": digests("out"),
        "layers": tracer.summary() if tracer is not None else None,
    }
    if not args.setup_only and results[0]["exit"] == 0:
        record["facts"] = output_facts(workload, args.root, args.seed)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
