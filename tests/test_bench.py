"""scripts/bench.py end to end: one round of the setup case against HEAD;
its in-process cases through the interleaved driver; how --against starts
the children; and the names perfbench's tracer times."""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IN_PROCESS = {      # case: (its shapes' name in bench, small shapes, each key's k)
    "layer": ("LAYER_SHAPES", {"lstm16": ("lstm", 16, 16, 8, 1, 13)},
              {"lstm16/forward": 13, "lstm16/backward": 13}),   # 13: not a multiple of BLOCKS
    "step": ("STEP_SHAPES", {"c09": ((("lstm", 47),), 3)}, {"c09/float32": 3}),  # 3 < BLOCKS
    "predict": ("PREDICT_SHAPES", {"c09": ((("lstm", 47),), 2)}, {"c09": 2}),
    "suggest": ("SUGGEST_SPACES", {"lstm1": (1, 2), "gru-lstm1": (2, 3)},
                {"lstm1": 2, "gru-lstm1": 3}),
    "optim": ("OPTIM_SHAPES", {"c09": ((("lstm", 47),), 3)}, {"c09": 3}),
}
SETUP_KEYS = {"import", "prepare", "ingest", "add_indicators", "normalize", "write_frame_csv",
              "read_frame_csv", "window"}


def unload_trees():
    """Forget the packages bench.load_grnn made, as a fresh child process would."""
    for name in [name for name in sys.modules if name.startswith(("grnn_change",
                                                                     "grnn_parent"))]:
        del sys.modules[name]


@pytest.fixture
def bench(monkeypatch):
    """scripts/bench.py as a module; the trees it loads are unloaded afterwards."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    yield pytest.importorskip("bench")
    unload_trees()


def needs_git_head():
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD^{commit}"], cwd=ROOT,
            capture_output=True).returncode != 0:
        pytest.skip("needs git and a HEAD commit")


def test_bench_setup_against_head(tmp_path):
    needs_git_head()
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


@pytest.mark.parametrize("case", IN_PROCESS)
def test_bench_in_process_case(bench, monkeypatch, capsys, case):
    """One round of an in-process case through the driver, on small shapes,
    with this checkout loaded twice under distinct package names, and its
    report: the digests agree, each key times its k calls per tree in
    min(k, BLOCKS) blocks, and each key gets its median block ratio,
    quartiles and blocks_faster; then the case's own checks."""
    shapes, small, ks = IN_PROCESS[case]
    monkeypatch.setattr(bench, shapes, small)
    bench.child(case, f"parent={ROOT}", f"change={ROOT}")
    assert sys.modules["grnn_change"] is not sys.modules["grnn_parent"]
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["parent", "change"]
    assert out["change"]["digests"] == out["parent"]["digests"]
    for tree in out.values():
        assert set(tree["times"]) == set(tree["blocks"]) == set(tree["digests"]) == set(ks)
        for key, k in ks.items():
            assert len(tree["times"][key]) == k and all(t > 0 for t in tree["times"][key])
            assert len(tree["blocks"][key]) == min(k, bench.BLOCKS)
            assert sum(tree["blocks"][key]) == pytest.approx(sum(tree["times"][key]))
    runs = {name: [{**tree, "probe_s": 0.01}] for name, tree in out.items()}
    result = bench.report(case, {}, 1, {"change": "a", "parent": "b"}, runs, 0.0066)
    assert result["artifacts_identical"] is True
    assert set(result["interleaved"]) == set(ks)
    for key, vs in result["interleaved"].items():
        assert vs["blocks"] == min(ks[key], bench.BLOCKS)
        assert 0 <= vs["blocks_faster"] <= vs["blocks"]
        assert 0 < vs["ratio_q1"] <= vs["median_ratio"] <= vs["ratio_q3"]
    trees = result["trees"].values()
    if case in ("step", "predict"):
        assert all(set(tree["peak_alloc_mb"]) == set(ks) for tree in trees)
        assert all(mb > 0 for tree in trees for mb in tree["peak_alloc_mb"].values())
    if case == "step":      # a fresh workspace's buffers, which its traced peak covers
        buffers = out["change"]["workspace_bytes"]["c09/float32"]
        assert {"scratch/rows", "layer0/gates", "layer0/h", "dh_top"} <= set(buffers)
        assert not [name for name in buffers if name.startswith("layer0/scratch")]
        assert 0 < sum(buffers.values()) <= out["change"]["peak_alloc_mb"]["c09/float32"] * 2 ** 20
    if case == "suggest":
        assert out["change"]["digests"]["lstm1"] != out["change"]["digests"]["gru-lstm1"]
    if case == "optim":     # each call moves the weights
        keys, k, call, digest, readings = next(bench.optim_calls(sys.modules["grnn_change"]))
        before = digest()
        call()
        assert digest() != before


def test_bench_layer_against_a_revision_runs_both_trees_in_one_child(bench, monkeypatch,
                                                                       capsys, tmp_path):
    """`--against REV` starts, per round, one child for an in-process case
    (layer), which gets both trees as NAME=PATH in an order that flips every
    round, and one child per tree, in that order, for a fresh-process case
    (setup); here the children run in-process, on one small layer shape and
    a stub in place of the setup case."""
    needs_git_head()
    monkeypatch.setattr(bench, "LAYER_SHAPES", {"gru16": ("gru", 16, 16, 8, 1, 10)})
    monkeypatch.setitem(bench.CASES, "setup", (
        lambda tree: {"times": {"import": [0.1]}, "digests": {"tree": tree == ROOT}}, "stub"))
    children = []

    def run_child(case, work, trees):
        children.append((case, list(trees)))
        unload_trees()
        capsys.readouterr()
        bench.child(case, *(f"{name}={tree}" for name, tree in trees.items()))
        return json.loads(capsys.readouterr().out)

    monkeypatch.setattr(bench, "run_child", run_child)
    assert bench.main(["layer", "setup", "--rounds", "2", "--against", "HEAD",
                       "--out-dir", str(tmp_path)]) == 0
    assert children == [("layer", ["parent", "change"]), ("setup", ["parent"]),
                        ("setup", ["change"]), ("layer", ["change", "parent"]),
                        ("setup", ["change"]), ("setup", ["parent"])]
    layer = json.loads((tmp_path / "BENCH_layer.json").read_text())
    assert layer["artifacts_identical"] is True
    assert set(layer["interleaved"]) == {"gru16/forward", "gru16/backward"}
    assert all(vs["blocks"] == 2 * bench.BLOCKS for vs in layer["interleaved"].values())
    setup = json.loads((tmp_path / "BENCH_setup.json").read_text())
    assert "interleaved" not in setup and setup["change_vs_parent"]["import"]["rounds"] == 2
    assert setup["trees"]["change"]["digests"] == {"tree": True}
    assert setup["trees"]["parent"]["digests"] == {"tree": False}
