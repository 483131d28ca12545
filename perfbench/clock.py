"""Stage timing that holds steady on a shared host.

A stage is timed in CPU seconds of this process (user + system, with the
children it waited for), so time the scheduler gives to other processes is
not counted. That is not enough on a virtual machine whose cores are shared
with other tenants: there the same instructions run up to a third slower for
tens of seconds at a time, and CPU time slows with them.

So the clock also measures the host's speed while the stage runs. A fixed
probe kernel, the benchmark's own code and never the program's, runs three
times before the stage, three times after it, and from a SIGPROF handler
after every ``PROBE_EVERY_S`` CPU seconds within it. The probes run while
the stage runs, at points evenly spaced in its CPU time, so the mean of
``REFERENCE_PROBE_S / probe time`` is the stage's speed relative to a host
on which the probe takes ``REFERENCE_PROBE_S``. A stage's time is its CPU
time, less the probes run within it, times that speed: the CPU seconds the
stage takes on the reference host.

The probe runs its own Python and numpy work only; it reads nothing of the
program and the program cannot see it, except as a pause of about 1 ms
five times a CPU second (about 0.5% of the stage).
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


PROBE_EVERY_S = 0.2
PROBE_BURST = 3
# About the median probe time of a shared 2-vCPU x86-64 virtual machine
# (Python 3.11.7, numpy 2.4.6) over the runs of the benchmark.
REFERENCE_PROBE_S = 8.0e-4


_rng = np.random.default_rng(0)
_A = _rng.standard_normal((32, 32))
_X = _rng.standard_normal((32, 8))


def probe() -> float:
    """Wall seconds of a fixed mix of the kinds of work the program does:
    interpreter arithmetic, small objects stored in a dict and read back,
    and small numpy products. The collector is off meanwhile, so the time
    does not depend on how many objects the program holds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i % 7
        table = {}
        for i in range(750):
            table[i] = [i, str(i)]
        sum(len(v[1]) for v in table.values())
        y = _X
        for _ in range(40):
            y = np.tanh(_A @ y) + _X
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def cpu_seconds() -> float:
    """CPU time used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Reading:
    seconds: float = 0.0  # CPU seconds at the reference speed
    cpu_s: float = 0.0  # CPU seconds as read, less the probes within
    wall_s: float = 0.0
    speed: float = 0.0  # mean of REFERENCE_PROBE_S / probe time
    probes: list[float] = field(default_factory=list)


@contextmanager
def timed():
    """Time the block; the Reading it yields is filled in when it ends."""
    reading = Reading()
    inner: list[float] = []
    before = [probe() for _ in range(PROBE_BURST)]
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: inner.append(probe()))
    wall = time.perf_counter()
    cpu = cpu_seconds()
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield reading
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        cpu = cpu_seconds() - cpu
        wall = time.perf_counter() - wall
        signal.signal(signal.SIGPROF, previous)
        after = [probe() for _ in range(PROBE_BURST)]
        reading.probes = before + inner + after
        reading.speed = statistics.fmean(REFERENCE_PROBE_S / p for p in reading.probes)
        reading.cpu_s = max(cpu - sum(inner), 0.0)
        reading.wall_s = wall - sum(inner)
        reading.seconds = reading.cpu_s * reading.speed
