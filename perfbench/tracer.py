"""Outside-in tracer: times calls into grnn's public functions from outside.

Each traced function is wrapped at every module-level name in the traced
package that refers to it, because the package's modules import functions
by name (``from .cells import lstm_forward``) and patching only the
defining module would miss those callers.  Modules are looked up through
``importlib``/``sys.modules``: ``import grnn.train as m`` would yield the
function ``train`` that ``grnn/__init__.py`` re-exports, not the module.

Spans (name, start, end, parent) stay in memory in flat arrays and are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct traced children.  Everything runs on one thread,
so a span's parent is simply the span open when it started.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

ABSENT = "absent"

# module -> public functions whose calls are timed (the per-layer metrics)
TARGETS = {
    "cells": ("lstm_forward", "lstm_backward", "gru_forward", "gru_backward"),
    "network": ("forward_batch", "backward", "predict_batch", "save_model", "load_model"),
    "optim": ("apply",),
    "train": ("train", "run_experiment", "save_archive", "load_archive"),
    "metrics": ("evaluate",),
    "hpo": ("suggest", "optimize", "save_history", "load_history"),
    "data": ("ingest", "add_indicators", "normalize", "window",
             "read_frame_csv", "write_frame_csv"),
    "stats": ("compare_architectures",),
    "config": ("load_config",),
}


def target_names(targets=TARGETS) -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in targets.items() for fn in fns]


class Tracer:
    """Wraps target functions in `package`; `uninstall` restores them."""

    def __init__(self, package: str = "grnn", targets=TARGETS, clock=time.perf_counter):
        self.package = package
        self.targets = targets
        self.clock = clock
        self.names: list[str] = []          # span name id -> "module.function"
        self.absent: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")            # -1 for a root span
        self._open: list[int] = []
        self._patched: list[tuple] = []     # (module, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for mod_name, fns in self.targets.items():
            try:
                module = importlib.import_module(f"{self.package}.{mod_name}")
            except ImportError:
                module = None
            for fn in fns:
                key = f"{mod_name}.{fn}"
                original = getattr(module, fn, None) if module is not None else None
                if not callable(original):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(len(self.names), original)
                self.names.append(key)
                for mod in modules + ([module] if module not in modules else []):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, ident: int, fn):
        clock, open_spans = self.clock, self._open
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(ident)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_spans.pop()

        return traced

    def spans(self):
        """(name, start, end, parent index) for every recorded span."""
        return [(self.names[n], s, e, p)
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, s, e, p in self.spans():
                fh.write(f"{name}\t{s!r}\t{e!r}\t{p}\n")

    def summary(self) -> dict:
        """{"module.function": {"calls", "total_s", "self_s"} or ABSENT}."""
        out = summarize(self.spans())
        for key in self.names:
            out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in self.absent:
            out[key] = ABSENT
        return out


def summarize(spans) -> dict:
    """Per-name calls, total and self time from (name, start, end, parent) spans.

    A span's self time is its duration minus its direct children's durations.
    """
    durations = [e - s for _, s, e, _ in spans]
    child_time = [0.0] * len(spans)
    for d, (_, _, _, p) in zip(durations, spans):
        if p >= 0:
            child_time[p] += d
    out: dict = {}
    for i, (name, _, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += durations[i]
        row["self_s"] += durations[i] - child_time[i]
    return out
