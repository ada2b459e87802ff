"""Host speed, sampled beside the timed calls on the same CPU.

On a shared virtual machine a vCPU's speed switches between a fast state
and one ~25-35% slower (most likely a busy neighbour on the same physical
core) for seconds to minutes at a time.  The guest sees no steal time and its CPU
time slows with its wall time, so a run's raw wall time follows the share
of time the host spent slow, not the program.

``HostSpeed`` starts a thread in the benchmark's process that times a fixed
small kernel every ``PERIOD_S``.  The process is pinned to one CPU
first, so the thread shares the CPU with the timed call.  The median kernel
time inside an interval is the host speed during it, and ``factor`` turns
the interval's wall time into time at the speed where the kernel takes
``REFERENCE_KERNEL_S``.

The kernel mixes the two kinds of work the program does, small NumPy calls
and float formatting in the interpreter.  Code of each kind slows by a
different share when the host is slow, and so do the workloads, which mix
them differently; timed alone, the NumPy part over-corrects a workload
heavy in interpreter work and the formatting part under-corrects one heavy
in NumPy.  The kernel runs cold, after ``PERIOD_S`` of the call's work:
timed warm it slows far more than the program does.  Running cold, it also
feels what the call leaves in the caches: beside a workload that streams
large arrays it runs up to twice as slow as beside a light one, so a change
to the program's memory traffic moves the kernel time too, and a saving
there shows less in the rescaled time than in the raw time.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.02
REFERENCE_KERNEL_S = 90e-6  # fast host state, 2.1 GHz Xeon vCPU
_X = np.linspace(0.0, 1.0, 200)
_VALUES = [0.1 * i + 1e-3 for i in range(40)]


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Pin the calling thread, and threads and children it starts, to one CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def kernel_seconds():
    """Seconds the fixed kernel takes."""
    t0 = time.perf_counter()
    for _ in range(10):
        np.exp(_X).sum()
    ",".join(f"{v!r},{v * 2.5!r}" for v in _VALUES)
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager: sample the kernel in a thread until exit."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end, kernel seconds)
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(PERIOD_S):
            if not self._paused.is_set():
                self.samples.append((time.perf_counter(), kernel_seconds()))

    @contextlib.contextmanager
    def paused(self):
        """No samples while a child process has the CPU: the kernel would
        time the scheduler sharing the CPU between them, not the host."""
        self._paused.set()
        try:
            yield
        finally:
            self._paused.clear()

    def factor(self, t0, t1):
        """What seconds between ``t0`` and ``t1`` are worth at the
        reference speed: ``REFERENCE_KERNEL_S`` over the median kernel time.

        An interval that holds no sample uses a kernel timing taken now.
        """
        inside = [k for t, k in list(self.samples) if t0 <= t <= t1]
        kernel = statistics.median(inside) if inside else kernel_seconds()
        return REFERENCE_KERNEL_S / kernel
