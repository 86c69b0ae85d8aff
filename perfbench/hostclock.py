"""A clock that runs at the host's current speed, not at wall speed.

Shared hosts change speed for seconds at a time (a fixed pure-Python
loop swings by about 1.5x as neighbours come and go), which no amount
of medians inside one short run removes.  :class:`HostClock` samples
the speed every ``period`` seconds with a fixed calibration kernel run
from a ``SIGALRM`` handler on the benchmark's own thread, and advances
its reading by wall time scaled to the reference speed.  A reading
therefore means "seconds at the reference speed".  The kernel's own
time is never counted.

The kernel is a tiny register machine (tuple dispatch, list and dict
traffic) because it tracks the program's slowdowns better than plain
integer arithmetic does: on recovery cells run back to back on a busy
host, it cut the cell-to-cell spread of f2/arthas-bi from 0.30 to 0.05
and of f9/arthas-rb from 0.22 to 0.03 (interquartile range over median),
where an arithmetic loop left 0.13 and 0.07.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List

#: dispatch steps of the calibration kernel per sample
LOOP = 1500
#: reference seconds per sample: the kernel's time on an unloaded host
REFERENCE_S = 0.30e-3
#: samples the speed is the median of (a quarter second at 50 ms)
SMOOTH = 5

_PROGRAM = (("add", 0, 1), ("st", 0, 2), ("ld", 3, 2), ("mul", 3, 1), ("len", 0, 0)) * 4


def calibration_loop(n: int = LOOP) -> int:
    """``n`` steps of a fixed register-machine program."""
    regs = [0] * 8
    mem = {}
    acc = 0
    for i in range(n):
        op, a, b = _PROGRAM[i % len(_PROGRAM)]
        if op == "add":
            regs[a] = (regs[a] + regs[b] + i) & 0xFFFF
        elif op == "st":
            mem[(regs[a] + i) & 1023] = regs[b]
        elif op == "ld":
            regs[a] = mem.get((regs[b] + i) & 1023, 0)
        elif op == "mul":
            regs[a] = (regs[a] * 3 + b) & 0xFFFF
        else:
            acc += len(mem)
    return acc


class HostClock:
    """Reference-speed time; a context manager that owns ``SIGALRM``."""

    def __init__(self, period: float = 0.05):
        self.period = period
        #: seconds per calibration sample, in sample order
        self.samples: List[float] = []
        #: (reading at ``since``, ``since``, speed factor), replaced whole
        self._state = (0.0, perf_counter(), 1.0)
        #: bumped by every tick, so a reading can tell it was interrupted
        self._ticks = 0
        self._old = None

    def _tick(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        base, since, factor = self._state
        calibration_loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        # one short sample is noisy; a slow spell lasts seconds
        speed = REFERENCE_S / statistics.median(self.samples[-SMOOTH:])
        self._state = (base + (t0 - since) * factor, t1, speed)
        self._ticks += 1

    def now(self) -> float:
        # the handler runs between any two bytecodes of this method; a
        # reading it interrupted mixes two states, so read again
        while True:
            ticks = self._ticks
            t = perf_counter()
            base, since, factor = self._state
            if self._ticks == ticks:
                return base + (t - since) * factor

    def __enter__(self) -> "HostClock":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return REFERENCE_S / statistics.median(self.samples) if self.samples else 1.0
