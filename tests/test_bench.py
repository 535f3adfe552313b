"""scripts/bench.py end to end: one round of the stages case against HEAD;
its in-process cases through the interleaved driver; the commands case; how
--against starts the children; the verdicts of `report`; and the names
perfbench's tracer times."""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("ingest", "add_indicators", "normalize", "write_frame_csv", "read_frame_csv", "window")
IN_PROCESS = {      # case: (its shapes' name in bench, small shapes, each key's k)
    "layer": ("LAYER_SHAPES", {"lstm16": ("lstm", 16, 16, 8, 1, 13)},
              {"lstm16/forward": 13, "lstm16/backward": 13}),   # 13: not a multiple of BLOCKS
    "step": ("STEP_SHAPES", {"c09": ((("lstm", 47),), 3)}, {"c09/float32": 3}),  # 3 < BLOCKS
    "predict": ("PREDICT_SHAPES", {"c09": ((("lstm", 47),), 2)}, {"c09": 2}),
    "suggest": ("SUGGEST_SPACES", {"lstm1": (1, 2), "gru-lstm1": (2, 3)},
                {"lstm1": 2, "gru-lstm1": 3}),
    "optim": ("OPTIM_SHAPES", {"c09": ((("lstm", 47),), 3)}, {"c09": 3}),
    "stages": ("STAGE_CALLS", 2, dict.fromkeys(STAGES, 2)),
}


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


def test_bench_stages_against_head(tmp_path):
    needs_git_head()
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "bench.py"), "stages",
                           "--rounds", "1", "--against", "HEAD", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_stages.json").read_text())
    assert set(result["trees"]) == {"change", "parent"}
    for tree in result["trees"].values():
        assert set(tree["times"]) == set(tree["digests"]) == set(STAGES)
        assert all(times["n"] == 10 for times in tree["times"].values())
        assert set(tree["readings"]["peak_alloc_mb"]) == set(STAGES)
        assert all(mb["median"] > 0 for mb in tree["readings"]["peak_alloc_mb"].values())
        assert len(tree["probe_s"]) == 1 and tree["probe_s"][0] > 0
    assert result["probe_ref_s"] > 0
    assert set(result["change_vs_parent"]) == set(STAGES)
    assert all(vs["rounds"] == 1 and vs["blocks"] == 10 and vs["verdict"] == "unresolved"
               for vs in result["change_vs_parent"].values())
    assert result["artifacts_identical"] is True
    assert "stages/peak_alloc_mb/window: median" in done.stdout


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


def test_bench_commands_reports_each_commands_own_peak(bench, monkeypatch, tmp_path):
    """The commands case on the import, prepare and a one-epoch train, each in
    its own fresh process, and its report by the readings rule."""
    from grnn.synthetic import write_bundle

    monkeypatch.setattr(bench, "COMMANDS", {
        "import": (),
        "prepare": ("prepare",),
        "train": ("train", "--arch", "lstm1", "--repeats", "1", "--set", "train.max_epochs=1")})
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.chdir(tmp_path)
    write_bundle(tmp_path / "data" / "synthetic", seed=0)
    out = bench.commands_case(ROOT)
    rss = out["readings"]["peak_rss_mb"]
    assert list(out["times"]) == list(rss) == ["import", "prepare", "train"]
    assert all(t > 0 for t in sum(out["times"].values(), []))
    # ru_maxrss also counts the peak of the process that spawned the command (here
    # pytest's), so only the order of the readings is checked
    assert 0 < rss["import"] <= rss["prepare"] <= rss["train"]
    assert out["digests"]["import/exit"] == out["digests"]["prepare/exit"] == 0
    assert out["digests"]["train/exit"] in (0, 1)
    assert {"prepared.csv", "norm_params.json", "train/lstm1/archive.jsonl"} <= set(out["digests"])
    assert os.listdir(tmp_path) == ["data"]
    runs = {name: [{**out, "probe_s": 0.01}] for name in ("change", "parent")}
    result = bench.report("commands", {}, 1, {"change": "a", "parent": "b"}, runs, 0.0066)
    for tree in result["trees"].values():
        assert tree["readings"]["peak_rss_mb"] == {
            key: {"median": mb, "rounds": [mb]} for key, mb in rss.items()}
    assert result["readings_vs_parent"]["peak_rss_mb"]["train"] == {
        "median_ratio": 1.0, "rounds": 1, "rounds_lower": 0, "rounds_higher": 0,
        "verdict": "unresolved"}
    assert all("blocks" not in vs for vs in result["change_vs_parent"].values())
    assert result["artifacts_identical"] is True


@pytest.mark.parametrize("case", IN_PROCESS)
def test_bench_in_process_case(bench, monkeypatch, capsys, tmp_path, case):
    """One round of an in-process case through the driver, on small shapes,
    with this checkout loaded twice under distinct package names, and its
    report: the digests agree, each key times its k calls per tree in
    min(k, BLOCKS) blocks, and each key gets its median block ratio,
    quartiles, blocks_lower and verdict; then the case's own checks."""
    shapes, small, ks = IN_PROCESS[case]
    monkeypatch.setattr(bench, shapes, small)
    if case == "stages":        # the profile names its sources relative to the work directory
        from grnn.synthetic import write_bundle

        write_bundle(tmp_path / "data" / "synthetic", seed=0)
        monkeypatch.chdir(tmp_path)
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
    assert set(result["change_vs_parent"]) == set(ks)
    for key, vs in result["change_vs_parent"].items():
        assert vs["blocks"] == min(ks[key], bench.BLOCKS) and vs["rounds"] == 1
        assert 0 <= vs["blocks_lower"] <= vs["blocks"]
        assert 0 < vs["ratio_q1"] <= vs["median_ratio"] <= vs["ratio_q3"]
        assert vs["verdict"] == "unresolved"
    readings = out["change"]["readings"]
    if case in ("step", "predict", "stages"):
        assert set(readings["peak_alloc_mb"]) == set(ks)
        assert all(mb > 0 for mb in readings["peak_alloc_mb"].values())
        assert set(result["readings_vs_parent"]["peak_alloc_mb"]) == set(ks)
    if case == "step":      # a fresh workspace's buffers, which its traced peak covers
        buffers = {key[len("c09/float32/"):]: n for key, n in readings["workspace_bytes"].items()}
        assert set(readings["workspace_bytes"]) == {f"c09/float32/{name}" for name in buffers}
        assert {"scratch/rows", "layer0/gates", "layer0/h", "dh_top"} <= set(buffers)
        assert not [name for name in buffers if name.startswith("layer0/scratch")]
        assert 0 < sum(buffers.values()) <= readings["peak_alloc_mb"]["c09/float32"] * 2 ** 20
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
    (commands); here the children run in-process, on one small layer shape and
    a stub in place of the commands case."""
    needs_git_head()
    monkeypatch.setattr(bench, "LAYER_SHAPES", {"gru16": ("gru", 16, 16, 8, 1, 10)})
    monkeypatch.setitem(bench.CASES, "commands", (
        lambda tree: {"times": {"import": [0.1]}, "digests": {"tree": tree == ROOT},
                      "readings": {"peak_rss_mb": {"import": 30.0}}}, "stub"))
    children = []

    def run_child(case, work, trees):
        children.append((case, list(trees)))
        unload_trees()
        capsys.readouterr()
        bench.child(case, *(f"{name}={tree}" for name, tree in trees.items()))
        return json.loads(capsys.readouterr().out)

    monkeypatch.setattr(bench, "run_child", run_child)
    assert bench.main(["layer", "commands", "--rounds", "2", "--against", "HEAD",
                       "--out-dir", str(tmp_path)]) == 0
    assert children == [("layer", ["parent", "change"]), ("commands", ["parent"]),
                        ("commands", ["change"]), ("layer", ["change", "parent"]),
                        ("commands", ["change"]), ("commands", ["parent"])]
    layer = json.loads((tmp_path / "BENCH_layer.json").read_text())
    assert layer["artifacts_identical"] is True
    assert set(layer["change_vs_parent"]) == {"gru16/forward", "gru16/backward"}
    assert all(vs["blocks"] == 2 * bench.BLOCKS for vs in layer["change_vs_parent"].values())
    commands = json.loads((tmp_path / "BENCH_commands.json").read_text())
    assert commands["change_vs_parent"]["import"]["rounds"] == 2
    assert "blocks" not in commands["change_vs_parent"]["import"]
    assert commands["readings_vs_parent"]["peak_rss_mb"]["import"]["median_ratio"] == 1.0
    assert commands["trees"]["change"]["digests"] == {"tree": True}
    assert commands["trees"]["parent"]["digests"] == {"tree": False}


def synthetic_rounds(change: list, parent: list, blocks: list) -> dict:
    """The runs `report` takes for one in-process key, "key", timed once per
    round, with each round's value as its reading "mb" too, and `blocks`
    (change, parent) pairs per round."""
    def outs(values, side):
        return [{"times": {"key": [value]}, "blocks": {"key": [pair[side] for pair in blocks]},
                 "digests": {}, "readings": {"mb": {"key": value}}, "probe_s": 0.01}
                for value in values]
    return {"change": outs(change, 0), "parent": outs(parent, 1)}


@pytest.mark.parametrize("change, ratio, verdict", [
    ([0.9] * 9 + [1.1], 0.97, "gain"),          # 9/10 rounds lower, beyond band and spread
    ([1.1] * 9 + [0.9], 1.03, "loss"),
    ([0.9] * 8 + [1.1] * 2, 0.97, "none"),      # 8/10 rounds lower
    ([0.97] * 10, 0.997, "none"),               # every round lower, within band and spread
    ([0.9] * 9, 0.97, "unresolved"),            # fewer than 10 rounds
])
def test_report_states_a_verdict_per_key_and_reading(bench, monkeypatch, change, ratio, verdict):
    """An in-process key's verdict needs 9/10 rounds its way and a block ratio
    beyond its band; a reading's, 9/10 rounds and a median beyond the
    parent's interquartile range over rounds (here 0.98-1.02)."""
    monkeypatch.setitem(bench.BANDS, "layer/key", (0.99, 1.01))
    parent = ([0.98, 1.02] * 5)[:len(change)]
    runs = synthetic_rounds(change, parent, [(ratio, 1.0)] * 3)
    result = bench.report("layer", {}, len(change), {"change": "a", "parent": "b"}, runs, 0.0066)
    key, reading = result["change_vs_parent"]["key"], result["readings_vs_parent"]["mb"]["key"]
    assert key["median_ratio"] == pytest.approx(ratio) and key["band"] == (0.99, 1.01)
    assert (key["verdict"], reading["verdict"]) == (verdict, verdict)
    assert reading["rounds_lower"] == sum(a < b for a, b in zip(change, parent))
    assert result["trees"]["change"]["readings"]["mb"]["key"]["rounds"] == change


def test_report_leaves_a_key_without_a_band_unresolved(bench):
    runs = synthetic_rounds([0.5] * 10, [1.0] * 10, [(0.5, 1.0)] * 3)
    result = bench.report("layer", {}, 10, {"change": "a", "parent": "b"}, runs, 0.0066)
    assert result["change_vs_parent"]["key"]["band"] is None
    assert result["change_vs_parent"]["key"]["verdict"] == "unresolved"
    assert result["readings_vs_parent"]["mb"]["key"]["verdict"] == "gain"
