"""Host-speed reference kernel.

On a shared VM the host's speed per instruction is not constant: on a
2-vCPU Xeon VM (2.0 GHz) the same fixed work took 1.4-1.9x longer in
slow phases, which alternate every few milliseconds and whose share
drifts from minute to minute.  Process CPU time slows down with it
(it matched wall time to 0.2% there), so neither clock can tell a slow
host from a slow program.

The benchmark therefore runs :func:`kernel_s` — a fixed piece of work
touching the interpreter, small objects, dicts and small numpy arrays,
none of it from the program under test — right before and right after
every timed piece of work.  The kernel then sees the same mix of slow
and fast phases as the work, so ``time * REFERENCE_S / mean(kernel
times)`` is the time the work would have taken on a host where the
kernel takes :data:`REFERENCE_S`.  A change to the program moves the
measured time and not the kernel, so it shows one for one.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Kernel time on an uncontended vCPU of the host above (its fast
#: phase); normalised times read as times on such a host.
REFERENCE_S = 0.0043


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def step(self, k: int) -> int:
        return (self.x * k + self.y) & 0xFFFF


def kernel_s() -> float:
    """CPU seconds of the calling thread for one fixed unit of work."""
    start = time.thread_time()
    table: dict[int, int] = {}
    points = [_Point(i, 3 * i + 1) for i in range(128)]
    total = 0
    for k in range(40):
        for point in points:
            value = point.step(k)
            table[value & 255] = table.get(value & 255, 0) + value
            total ^= value
    bits = np.arange(1024, dtype=np.uint64) * np.uint64(2654435761)
    mask = bits.copy()
    for _ in range(200):
        mask = (mask ^ bits) & (bits | np.uint64(5))
        bits = np.roll(bits, 1)
    amplitudes = np.arange(64, dtype=complex).reshape(8, 8)
    for _ in range(200):
        amplitudes = (amplitudes @ amplitudes) / (abs(amplitudes).sum() + 1)
    if total < 0 or not np.isfinite(amplitudes).all():
        raise AssertionError("reference kernel went wrong")
    return time.thread_time() - start


def kernel_each_cpu_s() -> float:
    """Mean of :func:`kernel_s` run once on each CPU of this process.

    For work spread over processes on every CPU, such as the service's
    workers: the CPUs of a VM can be slowed by different amounts at the
    same time.  Only the calling thread is moved, and it is moved back.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)
