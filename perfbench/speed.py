"""Machine-speed probe: divides the host's speed out of wall-clock figures.

The benchmark's host is shared.  Its speed for single-threaded Python
moves by up to 1.8x, for seconds at a time and also for tens of minutes
at a time, and ``process_time`` moves with it (the process is not
waiting, it runs slower).  A loop timed before or after the program misses the
shifts in between, so the probe times references *while* the program
runs: a ``SIGPROF`` timer interrupts the process every
:data:`INTERVAL_S` of CPU time, and the handler times one fixed chunk
of pure-Python work, in turn a compute chunk (a small heap and a
dictionary, cache-resident) and a memory chunk (the same loop reading
scattered entries of a 6 MB list).  The chunks sample the machine at
the same moments as the program, so their median times over an interval
tell how fast the machine was during it::

    with PROBE:
        mark = PROBE.mark()
        ...                      # the program runs; ticks interleave
        factor = PROBE.factor(mark)
    seconds_at_nominal_speed = raw_seconds / factor

The factor is the geometric mean of both chunks' median time over its
nominal time: 1.0 is the nominal speed, 1.3 a machine 1.3x slower.  Over
slow and fast phases of a 2-vCPU VM, the compute chunk alone
under-corrects the simulation workloads (their time moves 0.8x as much,
in log terms) and a memory chunk alone can over-correct (up to 1.6x);
the mean of the two tracked them at 0.97-1.14x.  The handler's own time is
counted in :attr:`SpeedProbe.spent`, so callers subtract it from what
they time.  The reference code lives here, not in ``src/``: a change to
the program cannot change the reference.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import statistics
import time
from typing import List, Tuple

#: CPU seconds between two ticks.
INTERVAL_S = 0.01
#: Seconds each chunk takes at the nominal speed: round figures near
#: their medians on a 2-vCPU x86-64 VM with Python 3.11.  Fixed
#: constants, so normalised figures compare across runs and revisions.
NOMINAL_COMPUTE_S = 150e-6
NOMINAL_MEMORY_S = 250e-6

_TABLE_SIZE = 200_000
_rng = random.Random(5)
#: The memory chunk's data: float objects scattered over ~6 MB, more
#: than a core's L2 cache, read at 4096 fixed random positions.
_TABLE = [float(i) for i in range(_TABLE_SIZE)]
_POSITIONS = [_rng.randrange(_TABLE_SIZE) for _ in range(4096)]


def compute_chunk(steps: int = 200) -> int:
    """Fixed cache-resident pure-Python work; returns a checksum."""
    heap = [(float(i), i) for i in range(16)]
    counts = {}
    for k in range(steps):
        when, item = heapq.heappop(heap)
        counts[item] = counts.get(item, 0) + 1
        heapq.heappush(heap, (when + (k * 7919 % 13) + 1.0, item))
    return sum(counts.values())


def memory_chunk(steps: int = 200) -> float:
    """The same loop, reading scattered entries of a large list."""
    heap = [(float(i), i) for i in range(16)]
    total = 0.0
    for k in range(steps):
        when, item = heapq.heappop(heap)
        total += _TABLE[_POSITIONS[(k * 61 + item) % 4096]]
        heapq.heappush(heap, (when + (k * 7919 % 13) + 1.0, item))
    return total


class SpeedProbe:
    """Times the chunks on ``SIGPROF`` ticks while active (a context
    manager; not re-entrant)."""

    def __init__(self):
        self.compute: List[float] = []
        self.memory: List[float] = []
        #: Seconds spent inside the handler since the probe was made.
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        if len(self.compute) <= len(self.memory):
            compute_chunk()
            samples = self.compute
        else:
            memory_chunk()
            samples = self.memory
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        self.previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self.previous)

    @property
    def ticks(self) -> int:
        return len(self.compute) + len(self.memory)

    def mark(self) -> Tuple[int, int]:
        """A point to measure from."""
        return len(self.compute), len(self.memory)

    def factor(self, mark: Tuple[int, int]) -> float:
        """How much slower than nominal the machine ran since ``mark``
        (1.0 when the interval had no tick of each kind)."""
        compute, memory = self.compute[mark[0]:], self.memory[mark[1]:]
        if not compute or not memory:
            return 1.0
        return math.sqrt(
            statistics.median(compute) / NOMINAL_COMPUTE_S
            * statistics.median(memory) / NOMINAL_MEMORY_S
        )


#: The one probe of the process.  When it is not active it takes no
#: samples and ``spent`` stays put, so the timing code reads it always.
PROBE = SpeedProbe()
