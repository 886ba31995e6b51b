"""Host-speed probe: expresses measured host time at a fixed reference speed.

On a shared virtual machine the host's speed changes under the
benchmark: on a 2-vCPU VM, a fixed pure-Python loop took 1.5-1.9x as
long in slow spells lasting seconds to minutes, with process CPU time
equal to wall time (the CPU ran slower; the process was not
descheduled).  Raw wall time then spreads more between runs of the same
code than any bound a regression check can use.

The probe is a fixed amount of the benchmark's own interpreter work
(integer arithmetic and dict inserts; it touches no program code).  It
runs just before and just after every measured unit.  A unit's
``scale`` is ``REFERENCE_PROBE_S`` over the mean of its two probes, and
multiplying the unit's host times by ``scale`` gives the time it would
have taken on a host where the probe takes ``REFERENCE_PROBE_S``.  On
that VM, scaling cut the ten-seed spread of the offline metrics to
between a fifth and a half of the raw spread (``perfbench/README.md``).
"""

from __future__ import annotations

import time
from typing import Sequence

#: Probe time of the reference host (about a 2-vCPU VM in its fast
#: state).  A fixed constant, so scaled figures compare across runs.
REFERENCE_PROBE_S = 0.007


def _kernel_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    table = {}
    for i in range(6_000):
        table[(i * 2654435761) & 0xFFFFF] = (i, acc)
    return time.perf_counter() - start


def probe_s() -> float:
    """Time a fixed unit of interpreter work, in seconds: twice the
    faster of two runs of half of it, so one preemption does not
    read as a slow host."""
    return 2 * min(_kernel_s(), _kernel_s())


def scale_of(probes: Sequence[float]) -> float:
    """Factor taking host time measured between ``probes`` to the
    reference speed (below 1 when the host ran slow)."""
    return REFERENCE_PROBE_S * len(probes) / sum(probes)
