"""Host-speed probe: a fixed piece of work timed between measured operations.

The ledger runs on shared virtual machines whose speed changes in waves:
the same ``cluster()`` call on the same graph took 1.4 s in one minute
and 2.9 s in the next, with CPU time equal to wall time and almost no
steal time (README.md, "Noise").  So every timed operation is bracketed
by a probe, and its time is divided by the host's slowness over it.

The probe has three parts that together look like the program's own mix:
an interpreter-bound dict loop, a stable ``argsort`` of 4 MB of keys, and
a random gather plus ``bincount`` over a 16 MB table.  Each part is
divided by its time on the reference machine, and the parts are averaged
with equal weight.  The probe is independent of the code under test and
of ``--seed``, so a change to the program moves the measured operations
but never the probe.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

_RNG = np.random.default_rng(20210601)
_KEYS = _RNG.integers(0, 1 << 40, size=1 << 19)
_TABLE = _RNG.integers(0, 1 << 30, size=1 << 21)
_INDEX = _RNG.integers(0, _TABLE.size, size=1 << 19)


def _interpreter() -> None:
    counts: dict = {}
    for i in range(60000):
        key = (i * 7919) & 4095
        counts[key] = counts.get(key, 0) + 1


def _sort() -> None:
    _KEYS.take(np.argsort(_KEYS, kind="stable"))


def _gather() -> None:
    np.bincount(_TABLE.take(_INDEX) & 65535)


#: Each part with its time in seconds on the reference machine (a 2-vCPU
#: KVM guest on an Intel Xeon, model 143) in its fast phase; see README.md.
PARTS: Tuple[Tuple[Callable[[], None], float], ...] = (
    (_interpreter, 0.0090),
    (_sort, 0.0800),
    (_gather, 0.0100),
)


def probe() -> float:
    """The host's slowness now: 1.0 is the reference machine at its fastest."""
    total = 0.0
    for part, nominal in PARTS:
        t0 = time.perf_counter()
        part()
        total += (time.perf_counter() - t0) / nominal
    return total / len(PARTS)


class SpeedGauge:
    """Probes between operations and scales their times to reference seconds.

    Each operation is charged the mean slowness of the probe before it and
    the probe after it; consecutive operations share the probe between
    them.  ``factors`` keeps every charged slowness, for the report.
    """

    def __init__(self) -> None:
        self.last = probe()
        self.factors: List[float] = []

    def factor(self) -> float:
        """Probe now; return the slowness since the previous probe."""
        now = probe()
        factor = (self.last + now) / 2.0
        self.last = now
        self.factors.append(factor)
        return factor

    def timed(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``fn``; return its result, raw seconds and reference seconds."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return out, raw, raw / self.factor()

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else self.last
