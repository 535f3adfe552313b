"""Host-speed probe: a fixed LSTM step, not taken from grnn, timed in place.

On a shared machine the host's speed drifts: plain Python code and small
numpy calls run up to 1.7x slower, for seconds or minutes at a time, while
other tenants are busy.  A pass child times the probe right after set-up
and, on a workload whose times are scaled, before and after each command,
after each progress line and every 0.2 s in between (child.Sampler), so
the time between any two readings can be scaled by their mean (run.py).

The probe is the smallest LSTM step (batch 16, 16 units, one input): all
call overhead, like set-up and the dispatch-bound workloads, and too small
for BLAS to use its threads.  It is written here, so a change to grnn
never changes it.  Two things of the process it runs in are kept out of
the reading: a garbage collection of grnn's heap, and BLAS worker threads
that grnn's last large product left spinning (they slow the probe down by
up to 2x on a 2-core machine until they go to sleep).  A reading at a
progress line waits for those threads to go idle; a timer reading cannot
wait, so it is dropped if they used CPU since the reading before.
"""

from __future__ import annotations

import gc
import os
import threading
import time

import numpy as np

REF_S = 0.0066          # the probe's time when the host runs fast
BATCH, INPUTS, UNITS, STEPS = 16, 1, 16, 200
IDLE_WINDOW_S = 0.03    # 3 clock ticks: a spinning thread shows within it
IDLE_TIMEOUT_S = 0.5    # OpenBLAS workers spin for about 0.16 s after a product


def other_threads_ticks() -> int:
    """CPU clock ticks used so far by this process's other threads."""
    me = threading.get_native_id()
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:          # the thread has just ended
            continue
        ticks += int(fields[11]) + int(fields[12])      # utime, stime
    return ticks


def wait_until_other_threads_idle() -> None:
    """Return once no other thread of this process used CPU for a window."""
    if not os.path.isdir("/proc/self/task"):
        return
    deadline = time.monotonic() + IDLE_TIMEOUT_S
    before = other_threads_ticks()
    while time.monotonic() < deadline:
        time.sleep(IDLE_WINDOW_S)
        after = other_threads_ticks()
        if after == before:
            return
        before = after


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((BATCH, INPUTS)) * 0.1
        self.v = [rng.standard_normal((UNITS, INPUTS)) * 0.1 for _ in range(4)]
        self.w = [rng.standard_normal((UNITS, UNITS)) * 0.1 for _ in range(4)]
        self.b = [np.zeros(UNITS) for _ in range(4)]
        self.zero = np.zeros((BATCH, UNITS))

    def __call__(self, wait: bool = True) -> float:
        """Seconds taken by STEPS LSTM steps, once other threads are idle
        (with ``wait=False``, at once).

        The garbage collector is off meanwhile: the probe makes no cycles.
        """
        if wait:
            wait_until_other_threads_idle()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            x, h, c = self.x, self.zero, self.zero
            for _ in range(STEPS):
                f, i, o, g = (x @ v.T + h @ w.T + b for v, w, b in zip(self.v, self.w, self.b))
                f, i, o = (1.0 / (1.0 + np.exp(-z)) for z in (f, i, o))
                c = f * c + i * np.tanh(g)
                h = o * np.tanh(c)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
