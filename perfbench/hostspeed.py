"""Host-speed reference: a frozen pure-Python kernel timed next to the work.

The benchmark runs on a VM whose speed follows a shared host: over twenty
minutes, map-small's median request time moved by up to 70% with no change
in the code (see NOTES.md, "Host noise").  Every end-to-end time the
benchmark reports is therefore divided by the *host factor* measured next
to it: the median wall time of :func:`kernel_seconds` over samples taken
beside the work, over :data:`REFERENCE_S`.  The result is the time the
work would have taken on the host at its reference speed.

The kernel is part of the benchmark, not of the program, so a change to
the program never changes it.  It walks a fixed pointer chain through
lists, indexes a dict by tuples and does int arithmetic — the interpreter
work the solvers do — and allocates no containers, so the cyclic garbage
collector (whose cost grows with the program's heap) never runs inside it.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

#: Median of :func:`kernel_seconds` on the 2-vCPU VM the benchmark was
#: tuned on (600 samples, quiet host).  Only the ratio matters: reported
#: times are in seconds at this speed.
REFERENCE_S = 0.0062

_RNG = random.Random(11)
_SIZE = 1 << 14
_NEXT = [_RNG.randrange(_SIZE) for _ in range(_SIZE)]
_VALUE = [_RNG.getrandbits(30) for _ in range(_SIZE)]
_KEYS = [(_RNG.randrange(64), _RNG.randrange(64)) for _ in range(512)]
_TABLE = {key: index for index, key in enumerate(_KEYS)}
_STEPS = 20000


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed kernel (about 6 ms)."""
    nxt, value, keys, table = _NEXT, _VALUE, _KEYS, _TABLE
    start = time.perf_counter()
    index = acc = 0
    for step in range(_STEPS):
        index = nxt[index]
        word = value[index]
        if word & 1:
            acc += word >> 3
        else:
            acc ^= table[keys[step & 511]]
        acc &= 0xFFFFFFFF
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples taken while one piece of work was measured."""

    #: Every factor computed in this process, for the run's summary.
    history: List[float] = []

    def __init__(self) -> None:
        #: Kernel seconds, sampled here or shipped from a worker process.
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(kernel_seconds())

    def factor(self) -> float:
        """How much slower than the reference the host ran (1.0 = as fast)."""
        factor = statistics.median(self.samples) / REFERENCE_S
        HostSpeed.history.append(factor)
        return factor
