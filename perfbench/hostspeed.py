"""Host-speed probes: fixed pieces of the benchmark's own work, timed between jobs.

The benchmark runs on a few virtual cores of a shared host.  Measured on a
2-vCPU Intel Xeon guest, the same job's latency swings between two levels
about 1.7x apart within seconds, as other tenants load the physical cores,
and the share of time spent at the slow level drifts over minutes.  Medians
over a 30 s run then still differ by 10-30% from run to run, which is the
host and not the program.

So every timing metric is read in *reference seconds*: a job's measured
latency times the probe's ``reference_s`` over the probe time measured
around it (the mean of the probes just before and just after the job).  It
is the latency the job would have on a host where the probe takes
``reference_s``.  The probes call nothing of focklab, so a change to the
program moves the scaled times by the same share as the raw ones; the raw
times are printed and saved beside them.

Contention slows interpreted code and numpy code by different shares, so each
workload is scaled by the probe that does its kind of work (workloads.PROBE):
``interpreted`` is complex arithmetic in a Python loop, like focklab's
per-element kernel loops, which take most of gram-interp and analysis-sweep;
``numpy`` is LAPACK plus elementwise work over a large array, like the grid
sweeps of geometry-verdicts.  On traces of the three workloads taken on the
host above, scaling each by its own probe left 2-6% run-to-run spread (the
interquartile range over the median) against 5-27% unscaled, while scaling
the kernel workloads by the numpy probe, or geometry-verdicts by the
interpreted one, left up to 14%.
"""

from __future__ import annotations

import cmath
import math
from statistics import median

import numpy as np

# Taken at import, so a traced pass, which wraps numpy.linalg, does not see the probe.
_EIGVALSH = np.linalg.eigvalsh
_RNG = np.random.default_rng(0)
_GRAM = (lambda a: a @ a.T)(_RNG.standard_normal((200, 200)))
_GRID = _RNG.standard_normal(150_000) + 1j * _RNG.standard_normal(150_000)


def _interpreted() -> complex:
    z, turn = 0j, cmath.exp(0.001j)
    for k in range(10_000):
        z = z * turn + math.exp(-0.5 * (k % 7)) * cmath.exp(1j * k)
    return z


def _numpy() -> float:
    top = sum(float(_EIGVALSH(_GRAM)[-1]) for _ in range(2))
    covered = np.zeros(_GRID.shape, dtype=bool)
    for k in range(6):
        covered |= np.abs(_GRID - 0.1 * k) ** 2 < 0.5
    return top + int(covered.sum())


class Probe:
    """One probe and its reference time.

    ``reference_s`` is the probe's time on the 2-vCPU Intel Xeon guest the
    benchmark was tuned on, in its faster state, rounded.  It is a fixed
    number: changing it rescales every timing of the workloads that use it.
    """

    def __init__(self, work, reference_s: float):
        self.work = work
        self.reference_s = reference_s

    def seconds(self, clock) -> float:
        """Seconds the probe takes now."""
        t0 = clock()
        self.work()
        return clock() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor from seconds measured between two probes to reference seconds."""
        return self.reference_s / ((before + after) / 2)

    def reference_seconds(self, seconds: float, clock, samples: int = 5) -> float:
        """``seconds`` just measured, in reference seconds, by the median of a few probes."""
        return seconds * self.reference_s / median(self.seconds(clock) for _ in range(samples))


PROBES = {
    "interpreted": Probe(_interpreted, 0.0030),
    "numpy": Probe(_numpy, 0.0066),
}
