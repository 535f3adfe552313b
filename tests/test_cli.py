import contextlib
import dataclasses
import datetime as dt
import errno
import glob
import io
import json
import math
import multiprocessing
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnn.train as train_module
from grnn import cli
from grnn.cli import main
from grnn.config import ARCH_KEYS, SECTIONS, ConfigError, load_config, parse_arch_label
from grnn.hpo import TpeConfig, load_history
from grnn.metrics import EvalReport
from grnn.network import LayerSpec, NetworkParams, NetworkSpec, load_model, save_model
from grnn.numerics import Rng
from grnn.synthetic import write_bundle, write_sine
from grnn.train import RunArchive, RunRecord, TrainConfig, save_archive, train


def write_sine_config(tmp_path, **overrides):
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    csv_path, column = write_sine(data_dir / "sine.csv", n_points=260)
    cfg = {
        "data": {"date_column": "Date", "target": "SINE", "indicators": "",
                 "lookback": 8, "split": 0.80, "fit_on": "train_only"},
        "sources": {"SINE": f"{csv_path}:{column}"},
        "train": {"activation": "tanh", "max_epochs": 120,
                  "patience": 5, "learning_rate": 0.003, "batch_size": 16,
                  "repeats": 2, "seed": 42, "r2_bar": 0.90},
        "hpo": {"n_trials": 6, "n_startup": 2, "max_epochs": 4, "seed": 5,
                "train_seed": 5, "units_low": 4, "units_high": 16,
                "lr_low": 1e-3, "lr_high": 1e-2, "batch_low": 8, "batch_high": 32},
        "output": {"dir": str(tmp_path / "out")},
        "architectures": {"roster": "lstm1,gru1"},
        "arch.lstm1": {"units": 16, "learning_rate": 0.003, "batch_size": 16},
        "arch.gru1": {"units": 12, "learning_rate": 0.003, "batch_size": 16},
    }
    for key, section in overrides.items():
        cfg.setdefault(key, {}).update(section)
    path = tmp_path / "config.ini"
    with open(path, "w", encoding="utf-8") as fh:
        for section, values in cfg.items():
            fh.write(f"[{section}]\n")
            for k, v in values.items():
                fh.write(f"{k} = {v}\n")
            fh.write("\n")
    return path


def test_parse_arch_labels():
    assert parse_arch_label("lstm1") == ("lstm",)
    assert parse_arch_label("gru3") == ("gru", "gru", "gru")
    assert parse_arch_label("gru-lstm1") == ("gru", "lstm")
    assert parse_arch_label("gru-lstm2") == ("gru", "lstm", "gru", "lstm")
    assert parse_arch_label("lstm-gru1") == ("lstm", "gru")
    with pytest.raises(Exception):
        parse_arch_label("transformer1")


def test_config_loading_and_overrides(tmp_path):
    path = write_sine_config(tmp_path)
    cfg = load_config(path)
    assert cfg.target == "SINE"
    assert cfg.indicators == ()
    assert cfg.architectures["lstm1"].units == (16,)
    cfg2 = load_config(path, overrides=["train.seed=99", "data.lookback=4"])
    assert cfg2.train.seed == 99 and cfg2.lookback == 4


PROFILES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "profiles")
PROFILES = sorted(glob.glob(os.path.join(PROFILES_DIR, "*.ini")))


@pytest.mark.parametrize("profile", PROFILES, ids=os.path.basename)
def test_shipped_profiles_load(profile):
    cfg = load_config(profile)
    assert cfg.architectures and all(a.units for a in cfg.architectures.values())


def test_empty_scalar_value_keeps_its_default(tmp_path):
    path = write_sine_config(tmp_path)
    cfg = load_config(path, overrides=["train.max_epochs=", "hpo.units_high=",
                                       "data.lookback=", "train.activation=",
                                       "arch.lstm1.units="])
    assert cfg.train.max_epochs == TrainConfig().max_epochs
    assert cfg.hpo.units_high == TpeConfig().units_high
    assert cfg.lookback == 10 and cfg.train.activation == TrainConfig().activation
    assert cfg.architectures["lstm1"].units is None
    assert cfg.indicators == ()          # an empty list means none, not the default


def test_train_and_hpo_sections_are_the_run_dataclasses(tmp_path):
    """[train] is read into a TrainConfig and [hpo] into a TpeConfig: the
    keys each section accepts are exactly that dataclass's fields."""
    path = write_sine_config(tmp_path)
    cfg = load_config(path)
    assert type(cfg.train) is TrainConfig and type(cfg.hpo) is TpeConfig
    for section, cls in (("train", TrainConfig), ("hpo", TpeConfig)):
        names = sorted(f.name for f in dataclasses.fields(cls))
        assert sorted(SECTIONS[section]) == names
        with pytest.raises(ConfigError, match=re.escape(f"expected one of {names}")):
            load_config(path, overrides=[f"{section}.no_such_key=1"])
        every_key = [f"{section}.{f.name}={f.default}" for f in dataclasses.fields(cls)]
        assert getattr(load_config(path, overrides=every_key), section) == cls()


def test_arch_override_reaches_its_section(tmp_path):
    path = write_sine_config(tmp_path)
    cfg = load_config(path, overrides=["arch.lstm1.units=8", "arch.gru1.batch_size=4"])
    assert cfg.architectures["lstm1"].units == (8,)
    assert cfg.architectures["gru1"].batch_size == 4


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


@pytest.mark.parametrize("override, named", [
    ("train.lerning_rate=0.1", "'lerning_rate'"),
    ("trian.seed=3", "[trian]"),
    ("train.optimizer=nadam", "[train] unknown key 'optimizer'"),
    ("train.activation=sigmoid", "'sigmoid'"),
    ("train.learning_rate=-1", "learning_rate"),
    ("hpo.n_startup_random=3", "'n_startup_random'"),
    ("arch.lstm1.unit=3", "[arch.lstm1] unknown key 'unit'"),
    ("hpo.gamma=1.5", "[hpo] gamma"),
    ("train.max_epochs=0", "[train] max_epochs must be >= 1"),
    ("train.repeats=0", "[train] repeats must be >= 1"),
    ("train.seed=-1", "[train] seed must be >= 0"),
    ("hpo.seed=-1", "[hpo] seed and train_seed must be >= 0"),
    ("hpo.train_seed=-1", "[hpo] seed and train_seed must be >= 0"),
    ("hpo.max_epochs=0", "[hpo] max_epochs must be >= 1"),
    ("hpo.n_trials=0", "[hpo] n_trials must be >= 1"),
    ("hpo.n_startup=-1", "[hpo] n_startup must be >= 0"),
    ("hpo.units_low=-40", "[hpo] units_low must be >= 1"),
    ("hpo.batch_low=-40", "[hpo] batch_low must be >= 1"),
    ("hpo.n_ei_candidates=0", "[hpo] n_ei_candidates must be >= 1"),
    ("train.dtype=float16", "[train] unknown key 'dtype'"),
    ("hpo.bandwidth_floor=0.02", "[hpo] unknown key 'bandwidth_floor'"),
    ("train.clip_norm=1", "[train] unknown key 'clip_norm'"),
    ("arch.lstm1.learning_rate=nan", "[arch.lstm1] learning_rate must be a finite number > 0"),
    ("arch.lstm1.batch_size=0", "[arch.lstm1] batch_size must be >= 1"),
    ("arch.lstm1.batch_size=-1", "[arch.lstm1] batch_size must be >= 1"),
    ("arch.lstm1.units=0", "[arch.lstm1] units must be >= 1"),
    ("arch.lstm1.units=-3", "[arch.lstm1] units must be >= 1"),
    ("train.r2_bar=nan", "[train] r2_bar must be a finite number"),
    ("train.r2_bar=inf", "[train] r2_bar must be a finite number"),
    ("data.split=nan", "[data] split must be a number in (0, 1)"),
    ("trian .seed=3", "[trian]"),          # the section name is stripped before it is looked up
])
def test_bad_config_fails_before_data_loads(tmp_path, capsys, override, named):
    path = write_sine_config(tmp_path)      # nothing prepared under out/
    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--set", override]) == 1
    line = one_error_line(capsys)
    assert named in line and "prepared dataset missing" not in line


@pytest.mark.parametrize("text, named", [
    ("[data]\ntarget = SINE\n[data]\nlookback = 4\n", "section 'data' already exists"),
    ("[data]\ntarget = SINE\ntarget = SINE\n", "option 'target' in section 'data' already exists"),
    ("target = SINE\n[data]\n", "File contains no section headers."),
    ("[data]\ntarget = SINE\nbare line\n", "[line 3]: 'bare line\\n'"),
], ids=["duplicate-section", "duplicate-key", "key-before-header", "bare-line"])
def test_malformed_config_file_is_one_error_line(tmp_path, capsys, text, named):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["prepare", "--config", str(path)]) == 1
    line = one_error_line(capsys)
    assert str(path) in line and named in line


@pytest.mark.parametrize("name, content, named", [
    ("no_units", {"learning_rate": 0.003, "batch_size": 16}, "missing key 'units'"),
    ("a_list", [16, 0.003, 16], "expected a JSON object"),
    ("units_true", {"units": [True], "learning_rate": 0.003, "batch_size": 16},
     "units is not an integer: True"),
    ("batch_float", {"units": [16], "learning_rate": 0.003, "batch_size": 2.7},
     "batch_size is not an integer: 2.7"),
])
def test_train_rejects_malformed_hyperparams(tmp_path, capsys, name, content, named):
    path = write_sine_config(tmp_path)
    best = tmp_path / f"{name}.json"
    best.write_text(json.dumps(content))
    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--hyperparams", str(best)]) == 1
    line = one_error_line(capsys)
    assert str(best) in line and named in line


def with_sine_min(value):
    """A norm_params.json mangler that sets the SINE column's min to `value`."""
    def mangle(text):
        sidecar = json.loads(text)
        sidecar["columns"]["SINE"]["min"] = value
        return json.dumps(sidecar)
    return mangle


@pytest.mark.parametrize("name, mangle, named", [
    ("norm_params.json", lambda text: "{}\n", "missing key 'columns'"),
    ("norm_params.json", with_sine_min("x"), "SINE min is not a number: 'x'"),
    ("norm_params.json", with_sine_min(None), "SINE min is not a number: None"),
    ("norm_params.json", lambda text: '{"columns": "abc"}', "'columns' is not an object"),
    ("prepared.csv", lambda text: text.splitlines()[0] + "\n", "no data rows"),
    ("prepared.csv", lambda text: text + "2099-01-01," + "1" * 200_000 + "\n",
     "prepared.csv:262: field larger than field limit"),
])
def test_train_rejects_malformed_prepared_data(tmp_path, capsys, name, mangle, named):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    capsys.readouterr()
    target = tmp_path / "out" / name
    target.write_text(mangle(target.read_text()))
    assert main(["train", "--config", str(path), "--arch", "lstm1"]) == 1
    line = one_error_line(capsys)
    assert str(target) in line and named in line


@pytest.mark.parametrize("lines, named", [
    (['{"architecture": "lstm1", "n_runs": 1}', '{"status": "complete"}'],
     "archive.jsonl:2: missing key 'seed'"),
    (["[1]"], "archive.jsonl:1: expected a JSON object"),
    (['{"architecture": "lstm1", "n_runs": 1}', "[]"],
     "archive.jsonl:2: expected a JSON object"),
    ([], "empty archive"),
    (['{"architecture": "lstm1", "n_runs": 1}',
      '{"seed": 1, "status": "complete", "retained": true}'],
     "archive.jsonl:2: a retained run needs a report"),
    (['{"architecture": "lstm1", "n_runs": 1}',
      '{"seed": 1, "status": "complete", "retained": true, "report": {"r2": null, '
      '"rmse": 1.0, "mape": 0.1, "mape_pct": 10.0, "rmse_nd": 0.1, "n": 44}}'],
     "archive.jsonl:2: r2 is not a number: None"),
])
def test_compare_rejects_malformed_archive(tmp_path, capsys, lines, named):
    """`compare` and `report` both read the archive."""
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    archive = tmp_path / "out" / "train" / "lstm1" / "archive.jsonl"
    archive.parent.mkdir(parents=True)
    archive.write_text("".join(line + "\n" for line in lines))
    spec = NetworkSpec(layers=(LayerSpec("lstm", 3),), input_dim=1)
    save_model(archive.parent / "best.grnn", spec, NetworkParams.init(spec, Rng(1)),
               {"architecture": "lstm1", "lookback": 8})
    capsys.readouterr()
    for command in ("compare", "report"):
        assert main([command, "--config", str(path), "--arch", "lstm1"]) == 1
        assert named in one_error_line(capsys), command


def test_hpo_bad_search_bounds_fail_before_data_loads(tmp_path, capsys):
    path = write_sine_config(tmp_path)      # nothing prepared under out/
    assert main(["hpo", "--config", str(path), "--arch", "lstm1",
                 "--set", "hpo.units_low=64"]) == 1
    assert "low must be < high" in one_error_line(capsys)


def test_an_infinite_learning_rate_bound_fails_before_data_loads(tmp_path, capsys):
    """numpy cannot draw log(lr) uniformly up to log(inf): it raises
    OverflowError, which `main` does not catch, so the bound is checked first."""
    path = write_sine_config(tmp_path)      # nothing prepared under out/
    assert main(["hpo", "--config", str(path), "--arch", "lstm1",
                 "--set", "hpo.lr_high=inf"]) == 1
    assert "learning_rate: need 0 < low < high < inf, got [0.001, inf]" in one_error_line(capsys)


def test_hpo_resume_rejects_trial_without_objective(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    log = tmp_path / "out" / "hpo" / "lstm1" / "trials.jsonl"
    log.parent.mkdir(parents=True)
    for objective, named in (("", "missing key 'objective'"),
                             ('"objective": "x", ', "objective is not a number: 'x'"),
                             ('"objective": null, ', "objective is not a number: None")):
        text = ('{"trial_id": 0, "values": {"units_0": 8, "learning_rate": 0.003, '
                f'"batch_size": 16}}, {objective}"status": "complete"}}\n')
        log.write_text(text)
        capsys.readouterr()
        assert main(["hpo", "--config", str(path), "--arch", "lstm1"]) == 1
        assert f"trials.jsonl:1: {named}" in one_error_line(capsys)
        assert log.read_text() == text


@pytest.mark.parametrize("values, named", [
    ("5", "'values' is not an object"),
    ('{"units_0": 8, "batch_size": 16}', "missing key 'learning_rate'"),
    ('{"units_0": 8, "learning_rate": "fast", "batch_size": 16}',
     "value of 'learning_rate' is not a number"),
    ('{"units_0": 8.5, "learning_rate": 0.003, "batch_size": 16}',
     "value of 'units_0' is not an integer"),
])
def test_hpo_resume_rejects_malformed_trial_values(tmp_path, capsys, values, named):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    log = tmp_path / "out" / "hpo" / "lstm1" / "trials.jsonl"
    log.parent.mkdir(parents=True)
    text = ('{"trial_id": 0, "values": {"units_0": 8, "learning_rate": 0.003, "batch_size": 16}, '
            '"objective": 0.2, "status": "complete"}\n'
            f'{{"trial_id": 1, "values": {values}, "objective": 0.1, "status": "complete"}}\n')
    log.write_text(text)
    capsys.readouterr()
    assert main(["hpo", "--config", str(path), "--arch", "lstm1",
                 "--set", "hpo.n_startup=1"]) == 1
    line = one_error_line(capsys)                      # no trial ran
    assert f"{log}:2: " in line and named in line
    assert log.read_text() == text


def test_hpo_log_survives_a_crash_and_a_torn_line(tmp_path, capsys, monkeypatch):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    hpo = ["hpo", "--config", str(path), "--arch", "lstm1", "--set", "hpo.n_startup=1"]
    log = tmp_path / "out" / "hpo" / "lstm1" / "trials.jsonl"
    assert main(hpo) == 0
    whole = log.read_bytes()
    assert len(whole.splitlines()) == 6
    log.unlink()

    calls = []

    def crashing_train(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return train(*args)

    monkeypatch.setattr(train_module, "train", crashing_train)
    with pytest.raises(KeyboardInterrupt):
        main(hpo)
    assert log.read_bytes() == b"".join(whole.splitlines(keepends=True)[:2])
    monkeypatch.setattr(train_module, "train", train)

    log.write_bytes(log.read_bytes()[:-20])     # an append torn by the crash
    assert main(hpo) == 0
    assert log.read_bytes() == whole
    capsys.readouterr()


@pytest.mark.skipif(cli.fcntl is None, reason="commands take no lock without fcntl")
def test_second_hpo_on_one_out_fails_while_the_first_holds_it(tmp_path, capsys):
    """A child process holds the search directory's lock: `grnn hpo` on the
    same --out fails with one error: line naming the directory and writes
    nothing.  Once the child is killed, the kernel drops the lock and the
    same command resumes the log."""
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    hpo = ["hpo", "--config", str(path), "--arch", "lstm1", "--set", "hpo.n_startup=1"]
    assert main([*hpo, "--set", "hpo.n_trials=2"]) == 0
    outdir = tmp_path / "out" / "hpo" / "lstm1"
    log = outdir / "trials.jsonl"
    two_trials = log.read_bytes()
    script = ("import sys, time\n"
              "import grnn.cli\n"
              "with grnn.cli._owned(sys.argv[1]):\n"
              "    print('locked', flush=True)\n"
              "    time.sleep(300)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    holder = subprocess.Popen([sys.executable, "-c", script, str(outdir)], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "locked\n"
        capsys.readouterr()
        assert main(hpo) == 1
        assert str(outdir) in one_error_line(capsys)
        assert log.read_bytes() == two_trials
    finally:
        holder.kill()
        holder.wait(timeout=30)
        holder.stdout.close()
    assert main(hpo) == 0
    assert "resuming from 2 recorded trials" in capsys.readouterr().err
    assert log.read_bytes().startswith(two_trials)
    assert len(log.read_bytes().splitlines()) == 6


@pytest.mark.skipif(cli.fcntl is None, reason="commands take no lock without fcntl")
def test_a_directory_the_file_system_cannot_lock_runs_unlocked(tmp_path, capsys, monkeypatch):
    """NFS emulates flock with byte-range locks, which need a file open for
    writing, so locking a directory there fails with EBADF: the command
    says so and runs."""
    def flock(fd, operation):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    monkeypatch.setattr(cli.fcntl, "flock", flock)
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    assert "cannot lock (Bad file descriptor); running without the lock" in capsys.readouterr().err
    assert (tmp_path / "out" / "prepared.csv").exists()


@pytest.mark.skipif(cli.fcntl is None, reason="commands take no lock without fcntl")
def test_forked_workers_do_not_keep_a_directory_locked(tmp_path):
    """A pool worker forked while a command holds its directory does not
    hold the lock, so workers left running by a killed `grnn train` do not
    keep its directory locked."""
    fork = multiprocessing.get_context("fork")
    running = fork.Event()
    with cli._owned(str(tmp_path)):
        worker = fork.Process(target=lambda: (running.set(), time.sleep(60)))
        worker.start()
    try:
        assert running.wait(timeout=30)
        with cli._owned(str(tmp_path)):
            assert worker.is_alive()
    finally:
        worker.kill()
        worker.join(timeout=30)
    assert not worker.is_alive()


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_workers_of_a_killed_train_exit_after_their_seed(tmp_path, monkeypatch):
    """`kill -9` of a pooled `grnn train` closes its end of each worker's
    seed pipe, so every worker exits once it finishes the seed it holds."""
    from grnn.train import pool_size

    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    monkeypatch.setenv("GRNN_THREADS", "2")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    argv = [sys.executable, "-m", "grnn.cli", "train", "--config", str(path), "--arch",
            "lstm1", "--repeats", "2", "--set", "train.max_epochs=300",
            "--set", "train.patience=300"]      # about 1.5 s per seed
    parent = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < pool_size(2):
            assert parent.poll() is None and time.monotonic() < deadline, workers
            with open(f"/proc/{parent.pid}/task/{parent.pid}/children",
                      encoding="utf-8") as fh:
                workers = [int(pid) for pid in fh.read().split()]
            time.sleep(0.01)
    finally:
        parent.kill()
        parent.wait(timeout=30)
    deadline = time.monotonic() + 20
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left, "workers still running 20 s after their parent was killed"


def with_a_bug_in_evaluate(path, *argv, **env):
    """Run `grnn` with argv on config `path` in a fresh process whose
    `evaluate`, as grnn.train calls it, raises AttributeError."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    bug = ("import sys\nfrom grnn import cli\n"
           "def evaluate(*args, **kwargs):\n"
           "    raise AttributeError('injected bug in evaluate')\n"
           "sys.modules['grnn.train'].evaluate = evaluate\n"
           "sys.exit(cli.main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", bug, argv[0], "--config", str(path), *argv[1:]],
                          env={**os.environ, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, timeout=120)


def test_a_bug_in_a_pooled_worker_fails_the_train_command(tmp_path):
    """An exception other than TrainingDiverged in a worker is a bug, not a
    failed run: the pooled `grnn train` exits non-zero with the exception's
    message on stderr and writes no archive."""
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    done = with_a_bug_in_evaluate(path, "train", "--arch", "lstm1", "--repeats", "2",
                                  "--set", "train.max_epochs=2", GRNN_THREADS="2")
    assert done.returncode != 0
    assert "AttributeError: injected bug in evaluate" in done.stderr
    assert re.search(r"seed 4[23] failed in its worker", done.stderr)
    assert not (tmp_path / "out" / "train" / "lstm1" / "archive.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ("hpo", "--arch", "lstm1"),
    ("train", "--arch", "lstm1", "--repeats", "1", "--set", "train.max_epochs=2"),
], ids=["hpo", "train-one-repeat"])
def test_a_bug_in_an_in_process_run_fails_the_command(tmp_path, argv):
    """A bug in a trial or a one-repeat run is not a failed trial or run:
    the command exits non-zero with the exception's message on stderr and
    records neither."""
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    done = with_a_bug_in_evaluate(path, *argv)
    assert done.returncode != 0
    assert "AttributeError: injected bug in evaluate" in done.stderr
    log = tmp_path / "out" / "hpo" / "lstm1" / "trials.jsonl"
    assert not log.exists() or log.read_bytes() == b""      # hpo opens its log before trial 0
    assert not (tmp_path / "out" / "train" / "lstm1" / "archive.jsonl").exists()


def test_seed_is_a_config_key_not_a_flag(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(["train", "--config", str(path), "--arch", "lstm1", "--seed", "7"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_multi_seed_train_without_fork_fails_with_one_error_line(tmp_path, capsys,
                                                                  monkeypatch):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    monkeypatch.delattr(os, "fork")
    train = ["train", "--config", str(path), "--arch", "lstm1", "--set", "train.max_epochs=2",
             "--set", "train.r2_bar=0"]
    capsys.readouterr()
    assert main([*train, "--repeats", "2"]) == 1
    err = capsys.readouterr().err.splitlines()       # the run's header line, then the error
    assert [line for line in err if line.startswith("error:")] == err[-1:]
    assert "os.fork" in err[-1]
    assert main([*train, "--repeats", "1"]) == 0     # one seed trains in-process
    capsys.readouterr()


def test_prepare_is_deterministic_and_reports_counts(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    out1 = capsys.readouterr().out
    assert "260 rows (208 train / 52 test)" in out1
    prepared = (tmp_path / "out" / "prepared.csv").read_bytes()
    sidecar = (tmp_path / "out" / "norm_params.json").read_bytes()

    assert main(["prepare", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "prepared.csv").read_bytes() == prepared
    assert (tmp_path / "out" / "norm_params.json").read_bytes() == sidecar


def test_prepare_that_fails_midway_keeps_the_old_prepared_csv(tmp_path, capsys,
                                                               monkeypatch):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    out = tmp_path / "out"
    before = {name: (out / name).read_bytes() for name in ("prepared.csv", "norm_params.json")}

    class FailingDate(dt.date):
        def isoformat(self):
            raise OSError("No space left on device")

    real_normalize = cli.normalize

    def normalize(*args, **kwargs):
        frame, norm = real_normalize(*args, **kwargs)
        k = len(frame.dates) // 2      # the header is written, the rows are not
        frame.dates[k] = FailingDate(frame.dates[k].year, frame.dates[k].month,
                                     frame.dates[k].day)
        return frame, norm

    monkeypatch.setattr(cli, "normalize", normalize)
    assert main(["prepare", "--config", str(path)]) == 1
    assert capsys.readouterr().err.strip().endswith("error: No space left on device")
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(os.listdir(out)) == ["norm_params.json", "prepared.csv"]


def test_prepare_loads_no_process_pool_modules(tmp_path):
    """No command loads them: a multi-seed `train` forks its workers with
    os.fork (test_train.py checks that run)."""
    path = write_sine_config(tmp_path)
    script = ("import sys\n"
              "import grnn.cli\n"
              "pool = ('multiprocessing', 'concurrent.futures')\n"
              "print(sorted(m for m in pool if m in sys.modules))\n"
              "code = grnn.cli.main(['prepare', '--config', sys.argv[1]])\n"
              "print(code, sorted(m for m in pool if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


def test_prepare_missing_file_fails_with_name(tmp_path, capsys):
    path = write_sine_config(tmp_path, sources={"SINE": "no/such/file.csv:Value"})
    assert main(["prepare", "--config", str(path)]) == 1
    assert "file.csv" in capsys.readouterr().err


def test_market_prepare_trims_to_published_row_count(tmp_path, capsys):
    manifest = write_bundle(tmp_path / "mkt", seed=0)
    lines = ["[data]", "target = NIFTY", "lookback = 10", "split = 0.80",
             "fit_on = full", "", "[sources]"]
    for name, (p, col) in manifest.items():
        lines.append(f"{name} = {p}:{col}")
    lines += ["", "[output]", f"dir = {tmp_path / 'out'}",
              "", "[architectures]", "roster = lstm1",
              "", "[arch.lstm1]", "units = 8"]
    cfg = tmp_path / "m.ini"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["prepare", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "prepared 3649 rows (2919 train / 730 test)" in out
    assert "NIFTY" in out and "RSI" in out


def test_full_pipeline_train_evaluate_compare_report(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0

    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--repeats", "2"]) == 0
    out = capsys.readouterr().out
    assert "LSTM" in out
    archive_path = tmp_path / "out" / "train" / "lstm1" / "archive.jsonl"
    ckpt = tmp_path / "out" / "train" / "lstm1" / "best.grnn"
    assert archive_path.exists() and ckpt.exists()

    spec, params, extra = load_model(ckpt)
    assert extra["architecture"] == "lstm1"
    assert extra["lookback"] == 8

    assert main(["evaluate", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
    eval_out = capsys.readouterr().out
    assert "LSTM" in eval_out
    eval_json = json.loads((tmp_path / "out" / "eval" / "lstm1.json").read_text())
    assert eval_json["r2"] > 0.99

    assert main(["train", "--config", str(path), "--arch", "gru1",
                 "--repeats", "2"]) == 0
    capsys.readouterr()

    assert main(["compare", "--config", str(path)]) == 0
    cmp_out = capsys.readouterr().out
    assert "(lstm1, gru1)" in cmp_out
    assert "t-statistic" in cmp_out
    assert (tmp_path / "out" / "compare" / "comparison.jsonl").exists()

    assert main(["report", "--config", str(path), "--arch", "lstm1"]) == 0
    capsys.readouterr()
    scatter = (tmp_path / "out" / "report" / "lstm1_scatter.csv").read_text().splitlines()
    n_test = 52 - 8
    assert len(scatter) == n_test + 1
    assert scatter[0] == "date,actual,predicted"
    metrics = (tmp_path / "out" / "report" / "lstm1_metrics.csv").read_text().splitlines()
    archive_lines = [json.loads(l) for l in archive_path.read_text().splitlines()[1:]]
    retained = sum(1 for rec in archive_lines if rec["retained"])
    assert len(metrics) == 3 * retained + 1


def test_evaluate_reproduces_the_archived_report(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path), "--arch", "lstm1", "--repeats", "2"]) == 0
    ckpt = tmp_path / "out" / "train" / "lstm1" / "best.grnn"
    _, params, extra = load_model(ckpt)
    assert params.flat.dtype == np.float32
    assert extra["dtype"] == "float32"
    archive = [json.loads(line) for line in
               (tmp_path / "out" / "train" / "lstm1" / "archive.jsonl").read_text().splitlines()]
    best = next(rec for rec in archive[1:] if rec.get("seed") == extra["seed"])
    assert main(["evaluate", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "out" / "eval" / "lstm1.json").read_text()) == best["report"]


def test_progress_lines_pair_with_archived_runs_and_logged_trials(tmp_path, capsys,
                                                                   monkeypatch):
    """perfbench times `train` and `hpo` at their progress lines, the stderr
    lines its PROGRESS pattern matches: one per archived run, in archive
    order, and one per logged trial, the same on every rerun."""
    monkeypatch.syspath_prepend(os.path.join(PROFILES_DIR, "..", "perfbench"))
    from workloads import PROGRESS

    path = write_sine_config(tmp_path)
    printed = []
    for rerun in range(2):
        out = tmp_path / f"out{rerun}"
        base = ["--config", str(path), "--out", str(out)]
        assert main(["prepare", *base]) == 0
        assert main(["train", *base, "--arch", "lstm1", "--repeats", "2",
                     "--set", "train.max_epochs=15"]) == 0
        assert main(["hpo", *base, "--arch", "lstm1", "--set", "hpo.n_trials=3"]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if PROGRESS.match(line)]
        archive = (out / "train" / "lstm1" / "archive.jsonl").read_text().splitlines()[1:]
        trials = load_history(out / "hpo" / "lstm1" / "trials.jsonl")
        assert [line.split(":")[0].split() for line in lines] == (
            [["seed", str(json.loads(run)["seed"])] for run in archive]
            + [["trial", str(t.trial_id)] for t in trials])
        printed.append(lines)
    assert printed[0] == printed[1]


def test_train_rerun_is_byte_identical(tmp_path):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--repeats", "2"]) == 0
    archive_path = tmp_path / "out" / "train" / "lstm1" / "archive.jsonl"
    ckpt_path = tmp_path / "out" / "train" / "lstm1" / "best.grnn"
    first = (archive_path.read_bytes(), ckpt_path.read_bytes())
    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--repeats", "2"]) == 0
    assert (archive_path.read_bytes(), ckpt_path.read_bytes()) == first


def test_repeats_flag_is_the_train_repeats_override(tmp_path, capsys):
    """`--repeats N` appends `train.repeats=N` after the --set list, so it
    writes the archive `--set train.repeats=N` writes, and wins over a
    --set of the same key."""
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    train_argv = ["train", "--config", str(path), "--arch", "lstm1",
                  "--set", "train.max_epochs=15"]
    outdir = tmp_path / "out" / "train" / "lstm1"
    written = []
    for how in (["--repeats", "3"], ["--set", "train.repeats=3"]):
        assert main([*train_argv, *how]) == 0
        written.append(((outdir / "archive.jsonl").read_bytes(),
                        (outdir / "best.grnn").read_bytes()))
    assert written[0] == written[1]
    assert len(written[0][0].splitlines()) == 1 + 3
    assert main([*train_argv, "--repeats", "1", "--set", "train.repeats=3"]) == 0
    assert len((outdir / "archive.jsonl").read_bytes().splitlines()) == 1 + 1
    capsys.readouterr()


def test_train_no_qualifying_run_exits_nonzero(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    rc = main(["train", "--config", str(path), "--arch", "lstm1",
               "--repeats", "1", "--set", "train.max_epochs=1",
               "--set", "train.learning_rate=1e-6"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "no qualifying run" in err
    assert "best achieved R2" in err


def test_hpo_writes_log_and_best_then_resumes(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0

    assert main(["hpo", "--config", str(path), "--arch", "lstm1",
                 "--set", "hpo.n_trials=4", "--set", "hpo.n_startup=2"]) == 0
    capsys.readouterr()
    log_path = tmp_path / "out" / "hpo" / "lstm1" / "trials.jsonl"
    assert len(load_history(log_path)) == 4

    # resume to 6 trials: exactly two more appended, earlier ones unchanged
    before = load_history(log_path)
    assert main(["hpo", "--config", str(path), "--arch", "lstm1"]) == 0
    capsys.readouterr()
    after = load_history(log_path)
    assert len(after) == 6
    assert [t.to_record() for t in after[:4]] == [t.to_record() for t in before]

    best = json.loads((tmp_path / "out" / "hpo" / "lstm1" / "best.json").read_text())
    assert 4 <= best["units"][0] <= 16
    assert 1e-3 <= best["learning_rate"] <= 1e-2
    assert 8 <= best["batch_size"] <= 32

    # a hybrid architecture samples one units value per layer
    assert main(["hpo", "--config", str(path), "--arch", "gru1",
                 "--set", "architectures.roster=lstm1,gru1,gru-lstm1",
                 "--set", "hpo.n_trials=3", "--set", "hpo.n_startup=2"]) == 0
    capsys.readouterr()
    assert main(["hpo", "--config", str(path), "--arch", "gru-lstm1",
                 "--set", "architectures.roster=lstm1,gru1,gru-lstm1",
                 "--set", "hpo.n_trials=3", "--set", "hpo.n_startup=2"]) == 0
    capsys.readouterr()
    hybrid_best = json.loads(
        (tmp_path / "out" / "hpo" / "gru-lstm1" / "best.json").read_text())
    assert len(hybrid_best["units"]) == 2


def test_train_can_consume_hpo_best(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    assert main(["hpo", "--config", str(path), "--arch", "lstm1",
                 "--set", "hpo.n_trials=3", "--set", "hpo.n_startup=2"]) == 0
    best_path = tmp_path / "out" / "hpo" / "lstm1" / "best.json"
    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--repeats", "1", "--hyperparams", str(best_path)]) == 0
    capsys.readouterr()


def test_seed_override_changes_archive(tmp_path):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--repeats", "1"]) == 0
    archive_path = tmp_path / "out" / "train" / "lstm1" / "archive.jsonl"
    rec_default = json.loads(archive_path.read_text().splitlines()[1])
    assert main(["train", "--config", str(path), "--arch", "lstm1",
                 "--repeats", "1", "--set", "train.seed=777"]) == 0
    rec_seeded = json.loads(archive_path.read_text().splitlines()[1])
    assert rec_default["seed"] == 42
    assert rec_seeded["seed"] == 777


def test_evaluate_rejects_corrupt_checkpoint(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    bad = tmp_path / "bad.grnn"
    bad.write_bytes(b"garbage\x00\x01\n more garbage")
    assert main(["evaluate", "--config", str(path), "--checkpoint", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_malformed_checkpoints(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    capsys.readouterr()
    spec = NetworkSpec(layers=(LayerSpec("lstm", 3),), input_dim=1)
    good = tmp_path / "good.grnn"
    save_model(good, spec, NetworkParams.init(spec, Rng(1)), {"lookback": 8})
    header_line, blob = good.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)

    def with_extra(**extra):
        return json.dumps({**header, "extra": extra}).encode() + b"\n" + blob

    def with_spec(layer_units=3, input_dim=1, output_dim=1):
        spec_rec = {**header["spec"], "input_dim": input_dim, "output_dim": output_dim,
                    "layers": [{**header["spec"]["layers"][0], "units": layer_units}]}
        return json.dumps({**header, "spec": spec_rec}).encode() + b"\n" + blob

    cases = {
        "truncated": header_line + b"\n" + blob[:-12],
        "nan_tensor": header_line + b"\n" + np.array([np.nan]).astype("<f8").tobytes() + blob[8:],
        "array_header": b"[1, 2]\n" + blob,
        "no_spec": json.dumps({k: v for k, v in header.items() if k != "spec"}).encode()
                   + b"\n" + blob,
        "no_tensors": json.dumps({k: v for k, v in header.items() if k != "tensors"}).encode()
                      + b"\n" + blob,
        "units_float": with_spec(layer_units=1.5),
        "units_true": with_spec(layer_units=True),
        "input_dim_float": with_spec(input_dim=1.5),
        "input_dim_true": with_spec(input_dim=True),
        "output_dim_2": with_spec(output_dim=2),
    }
    bad_extras = {
        "lookback_list": with_extra(lookback=[1]),
        "lookback_null": with_extra(lookback=None),
        "lookback_zero": with_extra(lookback=0),
        "architecture_int": with_extra(lookback=8, architecture=5),
        "architecture_path": with_extra(lookback=8, architecture="../x"),
        "feature_order_str": with_extra(lookback=8, feature_order="NIFTY"),
    }
    out = tmp_path / "out"
    trained = out / "train" / "lstm1"
    trained.mkdir(parents=True)
    for name in ("archive.jsonl", "best.grnn"):
        (trained / name).write_bytes(b"")
    for name, content in {**cases, **bad_extras}.items():
        (tmp_path / f"{name}.grnn").write_bytes(content)
    written = set(tmp_path.rglob("*"))

    def fails_naming(argv, bad, name):
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (name, err)
        assert str(bad) in lines[0], name

    for name in {**cases, **bad_extras}:
        bad = tmp_path / f"{name}.grnn"
        fails_naming(["evaluate", "--config", str(path), "--checkpoint", str(bad),
                      "--out", str(out)], bad, name)
    for name, content in bad_extras.items():
        (trained / "best.grnn").write_bytes(content)
        fails_naming(["report", "--config", str(path), "--arch", "lstm1", "--out", str(out)],
                     trained / "best.grnn", name)
    assert set(tmp_path.rglob("*")) == written


def test_override_that_does_not_parse_is_a_config_error(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    with pytest.raises(ConfigError, match=r"\[train\] max_epochs: cannot parse 'yes'"):
        load_config(path, overrides=["train.max_epochs=yes"])
    assert main(["prepare", "--config", str(path), "--set", "train.max_epochs=yes"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot parse 'yes'" in err and "Traceback" not in err


def test_compare_requires_two_archives(tmp_path, capsys):
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    assert main(["compare", "--config", str(path)]) == 1
    assert ">= 2 archives" in capsys.readouterr().err


def fixed_archive(label, shift, freq, n=24):
    """`n` retained runs whose metrics are fixed smooth functions of the seed."""
    runs = []
    for k in range(n):
        mape = round(0.008 - shift / 10 + 0.0011 * math.sin(1.6 * freq * k + 0.4)
                     + 0.0003 * (k % 4), 6)
        report = EvalReport(
            r2=round(0.95 + shift + 0.012 * math.sin(freq * k) + 0.002 * (k % 3), 6),
            rmse=round(110.0 - 400.0 * shift + 9.0 * math.cos(0.5 * freq * k)
                       + 1.5 * (k % 5), 6),
            mape=mape, mape_pct=mape * 100.0, rmse_nd=0.01, n=100, seed=k,
            architecture=label)
        runs.append(RunRecord(seed=k, status="complete", stopped_epoch=10,
                              train_loss=0.001, report=report, retained=True))
    return RunArchive(architecture=label, runs=runs)


COMPARE_24_STDOUT = """\
Normality (D'Agostino-Pearson K2) of per-run metrics
Metric                       lstm1        gru1
rmse      K2                0.7187      3.1632
rmse      p-value           0.6981      0.2056
mape      K2                2.9590      4.1388
mape      p-value           0.2277      0.1263
r2        K2                7.6789      6.9524
r2        p-value           0.0215      0.0309

Pairwise Welch two-sample t-tests
Metric                  (lstm1, gru1)
rmse      t-statistic          2.5938
rmse      p-value              0.0127
mape      t-statistic          3.6371
mape      p-value              0.0007
r2        t-statistic         -4.2370
r2        p-value              0.0001
"""
# (metric, label or pair) -> exact statistic and p-value within 1e-12; the
# p-values were computed by the hand-written incomplete gamma that the
# closed form exp(-k2 / 2) replaced, and by the Lanczos-based t tail
COMPARE_24_NORMALITY = {
    ("rmse", "lstm1"): (0.7186631590753456, 0.6981428230941672),
    ("rmse", "gru1"): (3.1632277510913536, 0.20564294812740813),
    ("mape", "lstm1"): (2.9590430151831684, 0.2277466373531215),
    ("mape", "gru1"): (4.138829347155033, 0.126259663197498),
    ("r2", "lstm1"): (7.6789331351757575, 0.021505069787248067),
    ("r2", "gru1"): (6.952416341120001, 0.030924449235094936),
}
COMPARE_24_WELCH = {      # metric -> (t, dof, p_value)
    "rmse": (2.5938036947155805, 45.92650538564225, 0.01269426006091113),
    "mape": (3.637142607471404, 45.81502340205736, 0.0006965805325320014),
    "r2": (-4.2370478063845844, 45.993578981557114, 0.00010766182039041357),
}


def test_compare_runs_normality_on_24_run_archives(tmp_path, capsys):
    """Two archives of 24 retained runs take the normality branch, which
    the pipeline tests (2 seeds each) never reach; no training runs."""
    path = write_sine_config(tmp_path)
    for label, shift, freq in (("lstm1", 0.0, 1.3), ("gru1", 0.01, 0.9)):
        archive = tmp_path / "out" / "train" / label / "archive.jsonl"
        archive.parent.mkdir(parents=True)
        save_archive(archive, fixed_archive(label, shift, freq))
    assert main(["compare", "--config", str(path)]) == 0
    assert capsys.readouterr().out == COMPARE_24_STDOUT
    lines = (tmp_path / "out" / "compare" / "comparison.jsonl").read_text().splitlines()
    records = {rec["metric"]: rec for rec in map(json.loads, lines)}
    assert list(records) == ["rmse", "mape", "r2"]
    for (metric, label), (k2, p_value) in COMPARE_24_NORMALITY.items():
        got = records[metric]["normality"][label]
        assert got["k2"] == k2 and got["n"] == 24
        assert abs(got["p_value"] - p_value) <= 1e-12
    for metric, (t, dof, p_value) in COMPARE_24_WELCH.items():
        [got] = records[metric]["pairwise"]
        assert (got["a"], got["b"], got["t"], got["dof"]) == ("lstm1", "gru1", t, dof)
        assert abs(got["p_value"] - p_value) <= 1e-12
        assert got["significant_at_05"] is True


def test_env_var_caps_parallel_workers(monkeypatch):
    from grnn.train import pool_size

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.delenv("GRNN_THREADS", raising=False)
    assert pool_size(repeats=48) == 4
    assert pool_size(repeats=1) == 1
    monkeypatch.setenv("GRNN_THREADS", "3")
    assert pool_size(repeats=48) == 3
    assert pool_size(repeats=2) == 2
    monkeypatch.setenv("GRNN_THREADS", "8")
    assert pool_size(repeats=48) == 4
    monkeypatch.setenv("GRNN_THREADS", "1")
    assert pool_size(repeats=48) == 1
    monkeypatch.setenv("GRNN_THREADS", "8")
    # workers that cannot be held to one BLAS thread: one of them
    monkeypatch.setattr(train_module, "_blas_threads", lambda: None)
    assert pool_size(repeats=48) == 1
    for bad in ("two", "0", "00", "\u00b2", "\u0663"):    # superscript and Arabic-Indic digits
        monkeypatch.setenv("GRNN_THREADS", bad)
        with pytest.raises(ValueError, match="GRNN_THREADS must be a whole number"):
            pool_size(repeats=48)


def test_train_runs_where_the_platform_has_no_sched_getaffinity(tmp_path, monkeypatch,
                                                                 capsys):
    from grnn.train import pool_size

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delenv("GRNN_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool_size(repeats=48) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)     # cannot tell
    assert pool_size(repeats=48) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = write_sine_config(tmp_path)
    assert main(["prepare", "--config", str(path)]) == 0
    for repeats in ("1", "2"):
        assert main(["train", "--config", str(path), "--arch", "lstm1",
                     "--repeats", repeats]) == 0
    capsys.readouterr()


def test_worker_count_does_not_change_multi_seed_artifacts(tmp_path, monkeypatch, capsys):
    """At the c09 shape one and two BLAS threads round float32 differently
    (the sine shape cannot tell them apart); every seed of a multi-seed run
    trains and is scored on one, in-process or in a pool.  `grnn evaluate`
    scores at the process's BLAS threads and must still reproduce the
    archived report of best.grnn."""
    monkeypatch.chdir(tmp_path)
    write_bundle(tmp_path / "data" / "synthetic", seed=0)
    base = ["--config", os.path.join(PROFILES_DIR, "synthetic-market.ini"), "--out", "out"]
    assert main(["prepare", *base]) == 0
    train_argv = ["train", *base, "--arch", "lstm1", "--repeats", "2",
                  "--set", "train.max_epochs=3", "--set", "train.r2_bar=0"]
    outdir = tmp_path / "out" / "train" / "lstm1"
    artifacts = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GRNN_THREADS", threads)
        assert main(train_argv) == 0
        artifacts.append(((outdir / "archive.jsonl").read_bytes(),
                          (outdir / "best.grnn").read_bytes()))
        assert sorted(os.listdir(outdir)) == ["archive.jsonl", "best.grnn"]
        assert main(["evaluate", *base, "--checkpoint", str(outdir / "best.grnn")]) == 0
        _, _, extra = load_model(outdir / "best.grnn")
        archived = next(json.loads(line)["report"] for line in
                        artifacts[-1][0].decode().splitlines()[1:]
                        if json.loads(line)["seed"] == extra["seed"])
        assert json.loads((tmp_path / "out" / "eval" / "lstm1.json").read_text()) == archived
    assert artifacts[0] == artifacts[1]
    capsys.readouterr()


# --- fuzz: whatever a user gives the CLI, one error: line at most -------------

FUZZ_KEYS = ([f"{section}.{key}" for section in ("data", "train", "hpo")
              for key in sorted(SECTIONS[section])]
             + [f"arch.{label}.{key}" for label in ("lstm1", "gru1") for key in sorted(ARCH_KEYS)])
FUZZ_VALUES = ("", "x", "-1", "0", "-3", "1", "2", "16", "0.5", "0.001", "1e-300",
               "99999999999999999999999", "1e308", "nan", "inf", "-inf", ",", "relu",
               "full", "Date", "SINE", "MACD,RSI")
FUZZ_LINES = (b"", b"\x00", b"\xff\xfe", b"[]", b"{}", b"null", b"NaN", b",,,", b"[data]",
              b"target = SINE", b"x", b"2020-01-01,nan", b"2020-01-01,", b"Date,Value")
FUZZ_JSON = (None, True, "x", "", -1, 0, 10 ** 30, 1e308, 1.5, float("nan"), float("inf"),
             [], {}, [1, "x"])
FUZZ_FILES = {      # what a drawn corruption hits, under the example's directory
    "config": "config.ini", "csv": "data/sine.csv", "checkpoint": "out/train/lstm1/best.grnn",
    "trials": "out/hpo/lstm1/trials.jsonl", "archive": "out/train/lstm1/archive.jsonl"}
FUZZ_COMMANDS = {   # command: its arguments, and the files of FUZZ_FILES that it reads
    "prepare": ([], ("config", "csv")),
    "hpo": (["--arch", "lstm1"], ("config", "trials")),
    "train": (["--arch", "lstm1", "--repeats", "1"], ("config",)),
    "evaluate": (["--checkpoint", "{root}/" + FUZZ_FILES["checkpoint"]],
                 ("config", "checkpoint")),
    "compare": ([], ("config", "archive")),
    "report": (["--arch", "lstm1"], ("config", "checkpoint", "archive")),
}


def _json_paths(value, path=()):
    """The path of `value` and of every value inside it."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _json_paths(sub, (*path, key))


def _mangled_json(draw, text: bytes) -> bytes:
    """`text`, one JSON value, with one value inside it replaced or one key dropped."""
    record = json.loads(text)
    path = draw(st.sampled_from(list(_json_paths(record))[1:] or [()]))
    if not path:
        return json.dumps(draw(st.sampled_from(FUZZ_JSON))).encode()
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(FUZZ_JSON))
    return json.dumps(record).encode()


def _corrupted(draw, kind: str, data: bytes) -> bytes:
    """A cut, a line of junk or, in a JSON line, one mangled value."""
    lines = data.split(b"\n")
    i = 0 if kind == "checkpoint" else draw(st.integers(0, len(lines) - 1))
    json_line = kind in ("checkpoint", "trials", "archive") and lines[i].strip()
    how = draw(st.sampled_from(("json", "json", "cut", "line")     # JSON mangled half the time
                               if json_line else ("cut", "line")))
    if how == "json":
        lines[i] = _mangled_json(draw, lines[i])
    elif how == "line":
        lines[i] = draw(st.sampled_from(FUZZ_LINES))
    elif kind == "checkpoint":          # its JSON header; the tensors stay
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    else:
        return data[:draw(st.integers(0, len(data)))]
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_outputs(tmp_path_factory):
    """The out/ of a sine pipeline: prepared data, one logged trial, and a
    one-seed archive and checkpoint for lstm1 and for gru1."""
    base = tmp_path_factory.mktemp("fuzz")
    path = write_sine_config(base)
    small = ["--set", "train.max_epochs=15", "--set", "hpo.max_epochs=1",
             "--set", "hpo.n_trials=2", "--set", "hpo.n_startup=1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["prepare", "--config", str(path)]) == 0
        assert main(["hpo", "--config", str(path), "--arch", "lstm1", *small]) == 0
        for label in ("lstm1", "gru1"):
            assert main(["train", "--config", str(path), "--arch", label, "--repeats", "1",
                         *small]) == 0
    trials = base / "out" / "hpo" / "lstm1" / "trials.jsonl"
    trials.write_bytes(trials.read_bytes().splitlines(keepends=True)[0])   # one trial to resume
    return base / "out"


@settings(max_examples=250, derandomize=True, deadline=None)
@given(draw=st.data())
def test_fuzzed_cli_input_fails_with_one_error_line(fuzz_outputs, draw):
    """Some --set values, or else one corruption of a file the command reads (the
    config, the source CSV, the checkpoint's header, the trial log or the
    archive): `main` exits 0 or 1 and prints at most one error: line and no
    traceback.  The pins after the drawn overrides keep every command to one
    in-process seed of one epoch, and a search to one trial."""
    draw = draw.draw
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    args, reads = FUZZ_COMMANDS[command]
    corrupted = draw(st.sampled_from((None, *reads)))
    overrides = [] if corrupted else draw(st.lists(st.tuples(
        st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        path = write_sine_config(root)
        shutil.copytree(fuzz_outputs, root / "out")
        if corrupted is not None:
            target = root / FUZZ_FILES[corrupted]
            target.write_bytes(_corrupted(draw, corrupted, target.read_bytes()))
        argv = [command, "--config", str(path), "--out", str(root / "out"),
                *(arg.format(root=root) for arg in args)]
        for key, value in overrides:
            argv += ["--set", f"{key}={value}"]
        argv += ["--set", "train.max_epochs=1", "--set", "hpo.n_trials=2",
                 "--set", "hpo.n_startup=1", "--set", "hpo.max_epochs=1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1), argv
    assert "Traceback" not in err.getvalue(), argv
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1, argv
