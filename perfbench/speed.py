"""Machine-speed sampling, so that times are reported in reference seconds.

On the small shared virtual machines this benchmark runs on, the same
computation runs at speeds that differ by up to 1.8x for tens of seconds at
a time, depending on the host's other load.  Process CPU time changes just
as much, and steal time stays near zero, so neither helps.  The speed is
therefore sampled while a pass runs: a SIGALRM handler, every 0.1 s of wall
time, times two fixed probes, each after one untimed warm-up run:

* a loop of Python and numpy-scalar arithmetic, which tracks the speed of
  interpreter-bound work;
* an in-place pass over an 8 MB array (larger than L2, warm in L3), which
  tracks the shared cache and memory that large-array work depends on.

A sample is the geometric mean of the two speeds relative to the reference,
REF_LOOP_S / loop time and REF_STREAM_S / stream time, and a wall interval is
converted to reference seconds by

    wall * harmonic mean(speed of the samples inside it),

that is, into the time it would have taken on a machine where the probes take
``REF_LOOP_S`` and ``REF_STREAM_S``.  Those are close to the probe times of the
fast state of a 2-core Xeon VM, so reference seconds there read like wall
seconds.  The same probe mix is used for every workload, whatever the code
under test spends its time on, so that a change which moves work between
interpreter loops and array passes is measured on the same scale as its
parent.  The harmonic mean weighs slow spells more than the arithmetic mean
would; the workloads slow down more than the probes in such spells, and on
the 2-core VM it gave the smaller run-to-run spread on all three workloads.

The probes run in the benchmark's own process, on the main thread.  Slowdown
the program causes itself and that also slows the probes (worker threads or
BLAS pools competing for the cores) is divided out, so it is not seen in
reference seconds; compare the raw wall times kept in the run record.

The sampling costs 2-3% of the wall time.  The handler only does arithmetic
on its own data, so the program's results and call counts are unaffected.
"""

from __future__ import annotations

import math
import signal
import time

REF_LOOP_S = 0.0008
REF_STREAM_S = 0.0004
STREAM_ELEMENTS = 1 << 20
INTERVAL_S = 0.1
LOOP_ITERATIONS = 500
SETUP_SAMPLES = 20


def _loop() -> float:
    import numpy as np

    x, acc = 0.3, 0.0
    for k in range(LOOP_ITERATIONS):
        z = np.float64(x) / (x + 1.5j)
        acc += z.real * 0.5 + math.sqrt(k)
        x = x * 0.999 + 0.001
    return acc


def loop_s() -> float:
    """Wall time of the fixed calibration loop.

    The loop runs once untimed first: right after the program has streamed
    large arrays, a cold cache alone makes the first run up to 1.8x slower,
    which would bias the scaling by the program's memory use.
    """
    _loop()
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def stream_s(array) -> float:
    """Wall time of one in-place pass over ``array``, after an untimed one."""
    import numpy as np

    np.multiply(array, 1.0, out=array)
    start = time.perf_counter()
    np.multiply(array, 1.0, out=array)
    return time.perf_counter() - start


def relative_speed(array) -> float:
    """Speed now, relative to the reference: geometric mean of the two probes."""
    return math.sqrt(REF_LOOP_S / loop_s() * REF_STREAM_S / stream_s(array))


def scale_now(wall: float) -> float:
    """Reference seconds for an interval that has just ended, from probes run now."""
    import numpy as np

    array = np.ones(STREAM_ELEMENTS)
    return wall * _harmonic_mean([relative_speed(array) for _ in range(SETUP_SAMPLES)])


def _harmonic_mean(speeds: list[float]) -> float:
    return len(speeds) / sum(1.0 / v for v in speeds)


class Speedometer:
    """Samples the relative speed every ``INTERVAL_S`` while the context is open."""

    def __init__(self) -> None:
        import numpy as np

        self.samples: list[tuple[float, float]] = []
        self._array = np.ones(STREAM_ELEMENTS)
        self._previous = None

    def _sample(self, *_) -> None:
        now = time.perf_counter()
        self.samples.append((now, relative_speed(self._array)))

    def __enter__(self) -> "Speedometer":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds for the wall interval [start, end].

        Uses the samples taken inside the interval, or the last one before
        it when the interval is shorter than the sampling period.
        """
        inside = [v for t, v in self.samples if start <= t < end]
        if not inside:
            inside = [v for t, v in self.samples if t < start][-1:] or [self.samples[0][1]]
        return (end - start) * _harmonic_mean(inside)
