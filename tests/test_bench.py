"""scripts/bench.py end to end: one round of the setup case against HEAD;
its in-process cases; and the names perfbench's tracer times."""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_KEYS = {"import", "prepare", "ingest", "add_indicators", "normalize", "write_frame_csv",
              "read_frame_csv", "window"}


def test_bench_setup_against_head(tmp_path):
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD^{commit}"], cwd=ROOT,
            capture_output=True).returncode != 0:
        pytest.skip("needs git and a HEAD commit")
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "bench.py"), "setup",
                           "--rounds", "1", "--against", "HEAD", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_setup.json").read_text())
    assert set(result["trees"]) == {"change", "parent"}
    for tree in result["trees"].values():
        assert set(tree["times"]) == SETUP_KEYS
        assert set(tree["digests"]) == {"prepared.csv", "norm_params.json", "train_x", "test_x",
                                        "train_y", "test_y"}
        assert set(tree["peak_alloc_mb"]) == SETUP_KEYS - {"import", "prepare"}
        assert all(mb > 0 for mb in tree["peak_alloc_mb"].values())
        assert len(tree["probe_s"]) == 1 and tree["probe_s"][0] > 0
    assert result["probe_ref_s"] > 0
    assert set(result["change_vs_parent"]) == SETUP_KEYS
    assert all(vs["rounds"] == 1 and vs["rounds_faster"] in (0, 1)
               for vs in result["change_vs_parent"].values())
    assert result["artifacts_identical"] is True


def test_bench_predict_reports_peak_alloc(monkeypatch):
    """The predict case on one small shape, in-process, and its report."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    bench = pytest.importorskip("bench")
    monkeypatch.setattr(bench, "PREDICT_SHAPES", {"c09": ((("lstm", 47),), 2)})
    out = bench.predict_case(ROOT)
    assert set(out["times"]) == set(out["digests"]) == set(out["peak_alloc_mb"]) == {"c09"}
    assert len(out["times"]["c09"]) == 2 and out["peak_alloc_mb"]["c09"] > 0
    runs = {name: [{**out, "probe_s": 0.01}] for name in ("change", "parent")}
    result = bench.report("predict", {}, 1, {"change": "a", "parent": "b"}, runs, 0.0066)
    for tree in result["trees"].values():
        assert tree["peak_alloc_mb"] == out["peak_alloc_mb"]
    assert result["artifacts_identical"] is True


def test_bench_suggest_times_each_space(monkeypatch):
    """The suggest case with two timed calls per space, in-process, and its report."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    bench = pytest.importorskip("bench")
    monkeypatch.setattr(bench, "SUGGEST_SPACES", {"lstm1": (1, 2), "gru-lstm1": (2, 2)})
    out = bench.suggest_case(ROOT)
    assert set(out["times"]) == set(out["digests"]) == {"lstm1", "gru-lstm1"}
    assert all(len(ts) == 2 for ts in out["times"].values())
    assert out["digests"]["lstm1"] != out["digests"]["gru-lstm1"]
    assert bench.suggest_case(ROOT)["digests"] == out["digests"]
    runs = {name: [{**out, "probe_s": 0.01}] for name in ("change", "parent")}
    result = bench.report("suggest", {}, 1, {"change": "a", "parent": "b"}, runs, 0.0066)
    assert set(result["change_vs_parent"]) == {"lstm1", "gru-lstm1"}
    assert result["artifacts_identical"] is True


def test_every_traced_name_is_a_function_of_its_grnn_module():
    """perfbench's tracer reports a name it cannot find as absent, and the
    workload's result line then carries null metrics; so every name in its
    TARGETS stays a callable at module level in grnn.<module>."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, names in tracer.TARGETS.items():
        found = importlib.import_module(f"grnn.{module}")
        for name in names:
            assert callable(getattr(found, name, None)), f"grnn.{module}.{name}"


def test_bench_step_reports_peak_alloc(monkeypatch):
    """The step case on one small shape, in-process: a fresh workspace's
    peak over a full, a short and a full batch, and the bytes of each of
    its buffers afterwards, which that peak covers."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    bench = pytest.importorskip("bench")
    monkeypatch.setattr(bench, "STEP_SHAPES", {"c09": ((("lstm", 47),), 2)})
    out = bench.step_case(ROOT)
    assert (set(out["times"]) == set(out["digests"]) == set(out["peak_alloc_mb"])
            == set(out["workspace_bytes"]) == {"c09/float32"})
    assert len(out["times"]["c09/float32"]) == 2 and out["peak_alloc_mb"]["c09/float32"] > 0
    buffers = out["workspace_bytes"]["c09/float32"]
    assert {"scratch/rows", "layer0/gates", "layer0/h", "dh_top"} <= set(buffers)
    assert not [name for name in buffers if name.startswith("layer0/scratch")]
    assert 0 < sum(buffers.values()) <= out["peak_alloc_mb"]["c09/float32"] * 2 ** 20


def test_bench_rss_reports_each_commands_own_peak(monkeypatch, tmp_path):
    """The rss case on prepare and a one-epoch train, in-process, and its report."""
    from grnn.synthetic import write_bundle

    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    bench = pytest.importorskip("bench")
    monkeypatch.setattr(bench, "RSS_COMMANDS", {
        "prepare": ("prepare",),
        "train": ("train", "--arch", "lstm1", "--repeats", "1", "--set", "train.max_epochs=1")})
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.chdir(tmp_path)
    write_bundle(tmp_path / "data" / "synthetic", seed=0)
    out = bench.rss_case(ROOT)
    assert set(out["times"]) == set(out["rss_mb"]) == {"prepare", "train"}
    assert all(mb > 0 for mb in out["rss_mb"].values())
    assert out["digests"]["prepare/exit"] == 0 and out["digests"]["train/exit"] in (0, 1)
    assert {"prepared.csv", "norm_params.json", "train/lstm1/archive.jsonl"} <= set(out["digests"])
    assert os.listdir(tmp_path) == ["data"]
    runs = {name: [{**out, "probe_s": 0.01}] for name in ("change", "parent")}
    result = bench.report("rss", {}, 1, {"change": "a", "parent": "b"}, runs, 0.0066)
    for tree in result["trees"].values():
        assert tree["rss_mb"]["train"] == {"median": out["rss_mb"]["train"],
                                           "rounds": [out["rss_mb"]["train"]]}
    assert result["rss_change_vs_parent"]["train"] == {"median_ratio": 1.0, "rounds_lower": 0,
                                                       "rounds": 1}
    assert result["artifacts_identical"] is True


def test_bench_optim_times_apply_and_digests_the_weights(monkeypatch):
    """The optim case with three timed calls on the c09 shape, in-process."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    bench = pytest.importorskip("bench")
    monkeypatch.setattr(bench, "OPTIM_SHAPES", {"c09": ((("lstm", 47),), 3)})
    out = bench.optim_case(ROOT)
    assert set(out["times"]) == set(out["digests"]) == {"c09"}
    assert len(out["times"]["c09"]) == 3 and all(t > 0 for t in out["times"]["c09"])
    assert bench.optim_case(ROOT)["digests"] == out["digests"]
    monkeypatch.setattr(bench, "OPTIM_SHAPES", {"c09": ((("lstm", 47),), 4)})
    assert bench.optim_case(ROOT)["digests"] != out["digests"]     # each call moves the weights


def test_bench_layer_interleaves_both_trees_in_one_process(monkeypatch, capsys):
    """The interleaved layer case on sine's LSTM shape, with this checkout
    loaded twice under distinct package names, and its report: the digests
    agree, each tree times every call of every block, and each key gets its
    median block ratio, quartiles and blocks_faster."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    bench = pytest.importorskip("bench")
    monkeypatch.setattr(bench, "LAYER_SHAPES", {"lstm16": ("lstm", 16, 16, 8, 1, 20)})
    try:
        bench.child("layer", f"parent={ROOT}", f"change={ROOT}")
        assert sys.modules["grnn_change.cells"] is not sys.modules["grnn_parent.cells"]
    finally:
        for name in [name for name in sys.modules if name.startswith(("grnn_change",
                                                                         "grnn_parent"))]:
            del sys.modules[name]
    out = json.loads(capsys.readouterr().out)
    keys = {"lstm16/forward", "lstm16/backward"}
    for tree in out["trees"].values():
        assert set(tree["times"]) == set(tree["digests"]) == keys
        assert all(len(ts) == 20 for ts in tree["times"].values())
    assert out["trees"]["change"]["digests"] == out["trees"]["parent"]["digests"]
    assert set(out["blocks"]) == keys
    for key, pairs in out["blocks"].items():
        assert len(pairs) == bench.LAYER_BLOCKS
        for tree, summed in zip(("change", "parent"), zip(*pairs)):
            assert sum(summed) == pytest.approx(sum(out["trees"][tree]["times"][key]))
    runs = {name: [{**tree, "probe_s": 0.01}] for name, tree in out["trees"].items()}
    result = bench.report("layer", {}, 1, {"change": "a", "parent": "b"}, runs, 0.0066,
                          [out["blocks"]])
    assert result["artifacts_identical"] is True
    for vs in result["interleaved"].values():
        assert vs["blocks"] == bench.LAYER_BLOCKS and 0 <= vs["blocks_faster"] <= vs["blocks"]
        assert 0 < vs["ratio_q1"] <= vs["median_ratio"] <= vs["ratio_q3"]


def test_bench_layer_against_a_revision_runs_both_trees_in_one_child(monkeypatch, tmp_path):
    """`layer --against REV` starts one child per round that gets both trees
    as NAME=PATH, in an order that flips every round, and reports the blocks;
    here the child runs in-process on one small shape."""
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD^{commit}"], cwd=ROOT,
            capture_output=True).returncode != 0:
        pytest.skip("needs git and a HEAD commit")
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    bench = pytest.importorskip("bench")
    monkeypatch.setattr(bench, "LAYER_SHAPES", {"gru16": ("gru", 16, 16, 8, 1, 10)})
    children = []

    def run_child(case, work, *trees):
        children.append((case, [tree.split("=", 1)[0] for tree in trees]))
        return bench.layer_interleaved(dict(tree.split("=", 1) for tree in trees))

    monkeypatch.setattr(bench, "run_child", run_child)
    try:
        assert bench.main(["layer", "--rounds", "2", "--against", "HEAD",
                           "--out-dir", str(tmp_path)]) == 0
    finally:
        for name in [name for name in sys.modules if name.startswith(("grnn_change",
                                                                         "grnn_parent"))]:
            del sys.modules[name]
    assert children == [("layer", ["parent", "change"]), ("layer", ["change", "parent"])]
    result = json.loads((tmp_path / "BENCH_layer.json").read_text())
    assert result["artifacts_identical"] is True
    assert set(result["interleaved"]) == {"gru16/forward", "gru16/backward"}
    assert all(vs["blocks"] == 2 * bench.LAYER_BLOCKS for vs in result["interleaved"].values())
