"""The machine-speed probe by which every reported time is scaled.

The shared 2-vCPU machines this benchmark was built on change speed by
up to 70%, for seconds or for a whole 30 s run at a time, and CPU time
moves with wall time: the slowdown is contention for the core, not
waiting.  Ten runs then split into a fast and a slow group, and a raw
time's quartile spread says more about the machine than about polynet.

So a worker measures the machine while it works: every PERIOD_S a
SIGALRM handler runs `probe()`, a fixed loop that does not touch polynet,
on the main thread between two bytecodes, and records how long it took.
A job's time is divided by its slowness, the mean probe time within
WINDOW_S of the job over PROBE_S: the result is seconds at the speed at
which the probe takes PROBE_S.  A change to polynet moves these times as
it moves the raw ones; the raw times are kept in each run's `timing`
line.  The probes take about 1% of the run, in every commit alike.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
WINDOW_S = 0.5
# Mean probe() time on the machine of perfbench/BASELINE.md in its usual,
# slower state, so that scaled times read as raw seconds did there.
PROBE_S = 0.001
SETUP_PROBES = 50  # probes a worker runs right after its set-up

_W = np.linspace(-1.0, 1.0, 20).reshape(4, 5)
_X = np.ones(5)


def probe() -> float:
    """Time one pass of tuple-keyed dict and float work, as in polynet's
    polynomial arithmetic, and of small numpy products, as in its forward pass."""
    t0 = time.perf_counter()
    terms: dict[tuple[int, int], float] = {}
    for i in range(1500):
        key = (i % 13, i % 7)
        terms[key] = terms.get(key, 0.0) * 0.5 + i
    for _ in range(60):
        h = _W @ _X
        float(np.sum(h * h))
    return time.perf_counter() - t0


class Speedometer:
    """Probes every PERIOD_S while in its `with` block."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the probe, probe time)

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self) -> "Speedometer":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowness(self, t0: float, t1: float) -> float:
        """Mean probe time within WINDOW_S of [t0, t1], over PROBE_S."""
        near = [s for t, s in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return statistics.fmean(near or [s for _, s in self.samples]) / PROBE_S
