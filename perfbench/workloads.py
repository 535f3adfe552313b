"""The benchmark's workloads: synthetic inputs plus a fixed list of CLI commands.

Every workload is closed-loop with one client: one process runs the
commands one after another through ``grnn.cli.main``, with no
``--parallel``.  The workload seed is the only source of variation: it
seeds the synthetic market bundle and ``train.seed``.  The HPO seeds
(``hpo.seed``, ``hpo.train_seed``) stay at the profile's values: the TPE
draws set every trial's shape and so the search's amount of work, which
would otherwise change by a third from one seed to the next.  The sine
input has no seed, so on ``pipeline-sine`` the seed changes only the
training draws of ``grnn train``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

# grnn train prints one such line per training run, grnn hpo one per trial
PROGRESS = re.compile(r"\s*(seed|trial) \d+: ")

MARKET_PROFILE = "profiles/synthetic-market.ini"
SINE_PROFILE = "profiles/smoke-sine.ini"


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    # grnn train's exit 1 "no qualifying run" is this workload's expected outcome
    no_qualifying_run_expected: bool = False


@dataclass(frozen=True)
class Workload:
    inputs: str          # "market" (seeded bundle) or "sine"
    profile: str
    commands: tuple      # Command, in order; the first is always prepare
    pass_s: float        # nominal time of one pass; sets the number of passes
    scaled: bool         # times are scaled by the host-speed probe (probe.py)

    def passes(self, seconds: float) -> int:
        """Passes per run: fixed by ``--seconds``, never by measured times.

        A per-segment median over more passes is steadier, so a pass count
        that followed the program's speed would measure a faster commit
        with a different estimator.
        """
        return max(1, round(seconds / self.pass_s))

    def argv(self, command: Command, root: str, seed: int) -> list[str]:
        return [*command.argv, "--config", os.path.join(root, self.profile),
                "--out", "out", "--set", f"train.seed={seed}"]


PREPARE = Command("prepare", ("prepare",))
# Early stopping ends the profile's 500-epoch sine runs anywhere from epoch
# 50 to 175, which would make the amount of work depend on the seed; every
# run reaches the R2 bar well before this cap, and no run stops before it.
SINE_EPOCHS = ("--set", "train.max_epochs=15")
# A quarter of the profile's 30 epochs per trial keeps a pass at 4-7 s, so
# a run of 32 s makes 4 passes and each segment is taken at its median.
SINE_TRIAL_EPOCHS = ("--set", "hpo.max_epochs=8")

WORKLOADS = {
    # The paper's headline protocol at the published lstm1 hyperparameters
    # (the c09 shape): 10,528 parameters, so per-call numpy dispatch bounds
    # it, and all seeds share one shape.  Early stopping ends c09's runs
    # anywhere from epoch 8 to 31, so each seed trains exactly 12 epochs
    # instead, which keeps the work the same on every seed; at 12 epochs
    # about 40% of the runs still clear the R2 bar.
    "train-lstm1": Workload(
        inputs="market", profile=MARKET_PROFILE, pass_s=30.0,
        scaled=True,
        commands=(PREPARE,
                  Command("train", ("train", "--arch", "lstm1", "--repeats", "8",
                                    "--set", "train.max_epochs=12",
                                    "--set", "train.patience=12")))),
    # GRU 498 into LSTM 311, 1.77 M parameters: bound by GEMM and memory
    # traffic, not by dispatch.  One seed, one epoch; after one epoch a run
    # rarely clears the R2 bar, so the command's exit 1 is expected (exit 0
    # is accepted too).
    "train-gru-lstm1": Workload(
        inputs="market", profile=MARKET_PROFILE, pass_s=15.0,
        scaled=False,
        commands=(PREPARE,
                  Command("train", ("train", "--arch", "gru-lstm1", "--repeats", "1",
                                    "--set", "train.max_epochs=1"),
                          no_qualifying_run_expected=True))),
    # The whole CLI on tiny networks: every HPO trial has its own shape,
    # the optimizer has its largest share of time, and it is the only
    # workload that writes and reads back every artifact and runs TPE
    # suggest and the statistics.
    "pipeline-sine": Workload(
        inputs="sine", profile=SINE_PROFILE, pass_s=8.0,
        scaled=True,
        commands=(PREPARE,
                  Command("hpo", ("hpo", "--arch", "lstm1", *SINE_TRIAL_EPOCHS)),
                  Command("train-lstm1", ("train", "--arch", "lstm1", *SINE_EPOCHS)),
                  Command("train-gru1", ("train", "--arch", "gru1", *SINE_EPOCHS)),
                  Command("evaluate", ("evaluate", "--checkpoint",
                                       os.path.join("out", "train", "lstm1", "best.grnn"))),
                  Command("compare", ("compare",)),
                  Command("report", ("report", "--arch", "lstm1")))),
}


def write_inputs(workload: Workload, seed: int, workdir: str) -> None:
    """Write the workload's synthetic inputs where its profile expects them."""
    from grnn.synthetic import write_bundle, write_sine

    if workload.inputs == "market":
        write_bundle(os.path.join(workdir, "data", "synthetic"), seed=seed)
    else:
        os.makedirs(os.path.join(workdir, "data", "sine"), exist_ok=True)
        write_sine(os.path.join(workdir, "data", "sine", "sine.csv"))
