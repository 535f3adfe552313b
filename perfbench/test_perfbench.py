"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The traced-run test runs the pipeline-sine workload once untraced and once
traced (about half a minute on 2 cores).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import ABSENT, Tracer, summarize  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] -> b [1, 4], c [5, 9] -> d [6, 8]; e [11, 12] is a second root
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 5.0, 9.0, 0),
             ("d", 6.0, 8.0, 2), ("e", 11.0, 12.0, -1), ("b", 11.5, 11.75, 4)]
    out = summarize(spans)
    assert out["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert out["b"] == {"calls": 2, "total_s": 3.25, "self_s": 3.25}
    assert out["c"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert out["d"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert out["e"] == {"calls": 1, "total_s": 1.0, "self_s": 0.75}


def _fake_package(monkeypatch):
    """fakepkg.inner defines outer() -> leaf(); fakepkg.user imports both by name."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def leaf():
        return 1

    def outer():
        return inner.leaf() + inner.leaf()

    inner.leaf, inner.outer = leaf, outer
    user = types.ModuleType("fakepkg.user")
    user.outer, user.leaf = outer, leaf
    pkg.outer = outer                       # a package-level re-export
    for name, mod in (("fakepkg", pkg), ("fakepkg.inner", inner), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, inner, user


def test_tracer_wraps_every_name_and_reports_missing_functions_absent(monkeypatch):
    pkg, inner, user = _fake_package(monkeypatch)
    ticks = iter(range(100))
    tracer = Tracer("fakepkg", {"inner": ("outer", "leaf", "gone"), "nomodule": ("f",)},
                    clock=lambda: float(next(ticks)))
    original = inner.outer
    with tracer:
        assert user.outer is not original and pkg.outer is not original
        assert user.outer() == 2            # outer [0, 5] -> leaf [1, 2], leaf [3, 4]
        user.leaf()                         # leaf [6, 7], a root span
    assert inner.outer is original and user.outer is original and pkg.outer is original
    out = tracer.summary()
    assert out["inner.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert out["inner.leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert out["inner.gone"] == ABSENT and out["nomodule.f"] == ABSENT


def test_traced_pipeline_sine_writes_the_untraced_artifacts():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "pipeline-sine", "--seed", "3", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    workdir = os.path.join(ROOT, ".perfbench-work", "pipeline-sine")
    records = []
    for name in ("plain", "traced"):
        with open(os.path.join(workdir, f"{name}.json"), encoding="utf-8") as fh:
            records.append(json.load(fh))
    plain, traced = (r["artifacts"] for r in records)
    assert plain == traced
    for name in ("trials.jsonl", "archive.jsonl", "best.grnn", "comparison.jsonl",
                 "lstm1_scatter.csv", "prepared.csv"):
        assert any(path.endswith(name) for path in plain), name
    metrics = result["metrics"]
    assert metrics["hpo.suggest.calls"]["value"] == 8
    assert metrics["cells.lstm_forward.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-lstm1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_segments_leave_out_probe_time_and_scale_to_the_reference_speed():
    from run import PROBE_REF_S, segments

    # the probe reads 1x the reference time before the command, 2x after the
    # progress line at 11 s (it returns at 11.5 s, after waiting for idle
    # threads) and 1x at the end
    ref = PROBE_REF_S
    cmd = {"start": 10.0, "end": 12.5, "probe_start": ref, "probe_end": ref,
           "stamps": [(11.0, "seed 1: complete epochs=3", 2 * ref, 11.5)]}
    (first, line), (last, tail) = segments(cmd)
    assert line.startswith("seed 1") and tail == ""
    assert abs(first - 1.0 / 1.5) < 1e-9 and abs(last - 1.0 / 1.5) < 1e-9
    cmd.update(probe_start=None, probe_end=None,
               stamps=[(11.0, "seed 1: complete epochs=3", None, 11.0)], end=12.0)
    assert [s for s, _ in segments(cmd)] == [1.0, 1.0]      # an unscaled workload


def test_segments_scale_between_timer_readings_and_skip_dropped_ones():
    from run import PROBE_REF_S, segments

    # a timer reading of 3x at 10.5 s, one dropped at 10.8 s (other threads
    # were busy), the progress line at 11.1 s with 1x, the end with 1x
    ref = PROBE_REF_S
    cmd = {"start": 10.0, "end": 12.2, "probe_start": ref, "probe_end": ref,
           "stamps": [(10.5, None, 3 * ref, 10.6), (10.8, None, None, 10.9),
                      (11.1, "seed 1: complete epochs=3", ref, 11.2)]}
    (first, _), (last, _) = segments(cmd)
    assert first == pytest.approx(0.5 * 0.5 + 0.4 * 0.5)
    assert last == pytest.approx(1.0)


def test_probe_waits_for_spinning_threads():
    import threading
    import time

    from probe import IDLE_TIMEOUT_S, wait_until_other_threads_idle

    stop = time.monotonic() + 0.3

    def spin():
        while time.monotonic() < stop:
            pass

    spinner = threading.Thread(target=spin)
    spinner.start()
    start = time.monotonic()
    wait_until_other_threads_idle()
    waited = time.monotonic() - start
    spinner.join()
    assert time.monotonic() - stop < 0.2 and start + waited >= stop
    assert waited < IDLE_TIMEOUT_S


def test_train_rate_pairs_progress_segments_with_archived_runs():
    from run import BenchError, train_rate

    facts = {"train_windows_per_epoch": 10,
             "train": {"train": {"runs": [["complete", 3], ["diverged", 1], ["complete", 5]],
                                 "retained": 1}}}
    medians = {"train": [(2.0, "seed 1: complete"), (9.0, "seed 2: diverged"),
                        (2.0, "seed 3: complete"), (0.5, "")]}
    assert train_rate(medians, facts) == (3 + 5) * 10 / 4.0
    medians["train"].pop(0)
    with pytest.raises(BenchError):
        train_rate(medians, facts)
