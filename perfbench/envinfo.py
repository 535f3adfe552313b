"""The environment a result was measured in, recorded with every result.

Thread settings are recorded as found and never changed: the thread count
alone moves an lstm-gru1 epoch from 1.49 s to 2.51 s and the test-split
prediction from 50 ms to 320 ms, so results from different environments
are not compared (see compare.py).
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GRNN_THREADS")


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):            # numpy < 1.26 has no mode="dicts"
        return {"name": None, "version": None}


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: str) -> str:
    """sha256 over the program, its profiles and this benchmark."""
    h = hashlib.sha256()
    for sub in ("src", "profiles", os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)):
        for base, dirs, files in sorted(os.walk(os.path.join(root, sub))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".ini")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, root).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def machine() -> dict:
    """What must match for two sets of runs to be comparable."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def record(root: str) -> dict:
    return {**machine(), "git_commit": _git_commit(root), "source": source_digest(root)}
