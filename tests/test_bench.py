"""scripts/bench.py end to end: one round of the setup case against HEAD."""

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
        assert set(tree["digests"]) == {"prepared.csv", "norm_params.json"}
    assert set(result["change_vs_parent"]) == SETUP_KEYS
    assert all(vs["rounds"] == 1 and vs["rounds_faster"] in (0, 1)
               for vs in result["change_vs_parent"].values())
    assert result["artifacts_identical"] is True
