"""Host-speed calibration: a fixed kernel timed beside the workload.

The benchmark runs on a few cores of a shared host whose speed moves:
on the 2-core host the bounds were set on, this module's kernel took
about 8.5 ms or about 13 ms depending on the moment and the core, in
stretches of a few seconds, with CPU time tracking wall time.  The
same serve-chaos pass took 0.56 s to 0.77 s from one run to the next,
and over ten runs that spread the raw timings close to the benchmark's
bounds.

So every run times :func:`kernel`, a fixed piece of pure-Python work
that imports nothing from ``repro``, just before and just after each
unit of work (a serve pass, a figure tree), and every half second
inside a figure tree (:class:`Sampler`), and reports that unit's
timings in *reference seconds*: measured seconds times
:data:`REFERENCE_S` over the mean of the unit's kernel times.  A change to
the program moves the reported value exactly as much as the raw one;
the host's speed at that moment, which moves the kernel too, largely
cancels.  The bracket has to be tight: one factor per run (the median
kernel time over the run) left serve-chaos throughput spreading 0.10
(interquartile range over median, ten seeds), one factor per pass
brought it to 0.02-0.04.  The run records keep the raw values and the
kernel samples beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Sequence

#: The kernel's wall time at the speed reported values refer to (about
#: its median on the 2-core host).  Only ratios of reported values
#: matter; this fixes their scale.
REFERENCE_S = 0.012

#: Kernel iterations: about 12 ms, short beside any unit of work.
_ITERATIONS = 60_000


def kernel() -> int:
    """Interpreter work of the kind the program's hot paths do: integer
    arithmetic, dict stores and loop overhead."""
    total = 0
    table: dict[int, int] = {}
    for index in range(_ITERATIONS):
        table[index & 1023] = total
        total += (index * index) % 7
    return total


def sample() -> float:
    """Wall seconds of one :func:`kernel` run."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def unit_scales(unit_samples: Sequence[Sequence[float]]) -> list[float]:
    """One factor per unit of work that turns its measured seconds into
    reference seconds (divide rates by it), from the kernel times taken
    around and inside it."""
    return [REFERENCE_S / statistics.fmean(samples)
            for samples in unit_samples]


class Sampler:
    """Times :func:`kernel` every ``interval_s`` of wall time while the
    ``with`` block runs, so a unit of work several seconds long is
    scaled by the host's speed across it, not only at its ends.

    The samples are taken by a ``SIGALRM`` handler, which runs in the
    main thread between bytecodes, so no thread is started.  The time
    they take, ``busy_s``, lies inside the block and must be taken off
    its measured wall.  Not for request latencies: a sample would land
    inside whichever request is in flight.
    """

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        self.samples.append(sample())
        self.busy_s += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale_by_unit(samples: Sequence[float], starts: Sequence[int],
                  scales: Sequence[float]) -> list[float]:
    """``samples`` with each unit's slice multiplied by its scale.

    ``starts[i]`` is the index of unit ``i``'s first sample; its slice
    runs to the next unit's start (the last to the end).
    """
    if len(starts) != len(scales):
        raise ValueError("one start per scale")
    bounds = list(starts) + [len(samples)]
    return [value * scales[unit] for unit in range(len(scales))
            for value in samples[bounds[unit]:bounds[unit + 1]]]
